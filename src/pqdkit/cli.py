"""Batch command-line interface.

Subcommands cover matrix-function estimation, condition checking, bound
computation, oracle evaluation, convergence traces, and the acceptance
suite.  All randomness flows from --seed, so reports are byte-identical for
identical (input, flags, seed); wall-clock time is deliberately left out of
the serialized reports.

Exit codes: 0 success, 1 input error, 2 failed numerical condition.  Reports
are strict JSON: a non-finite number (an unbounded factor) is written as null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__, bounds, fpras, oracles
from . import estimator as est
from . import linear_optics as lo
from .errors import (
    BoundViolation,
    NonConvergent,
    NotLogConcave,
    OrderingOutOfRange,
    PqdkitError,
    PreconditionAminBelowOne,
    SchemaError,
)
from .phase_space import CLICK, MARGINAL, NOCLICK, photon

_TAGS = {t.value: t for t in lo.MatrixTag}


# ---------------------------------------------------------------------------
# file parsing
# ---------------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise SchemaError("/", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}")
    if not isinstance(obj, dict):
        raise SchemaError("/", "must be a JSON object")
    return obj


def _number(value, pointer: str, message: str, valid=None) -> float:
    """A JSON number as a finite float passing ``valid``; booleans, NaN,
    infinities and out-of-range integers are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x) and (valid is None or valid(x)):
            return x
    raise SchemaError(pointer, message)


def _is_int(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _nonneg(x: float) -> bool:
    return x >= 0.0


def _real_matrix(rows, pointer: str) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise SchemaError(pointer, "must be a matrix given as a list of rows")
    values = [
        [_number(x, f"{pointer}/{i}/{j}", "must be a finite number") for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    if len({len(row) for row in values}) > 1:
        raise SchemaError(pointer, "rows must have equal length")
    return np.array(values, dtype=float)


def _parse_complex_matrix(obj: dict, pointer: str) -> np.ndarray:
    if "m" not in obj:
        raise SchemaError(pointer + "/m", "missing mode count")
    m = obj["m"]
    if not _is_int(m, 1):
        raise SchemaError(pointer + "/m", "must be a positive integer")
    if obj.get("re") is None:
        raise SchemaError(pointer + "/re", "missing real part")
    re_part = _real_matrix(obj["re"], pointer + "/re")
    im_part = _real_matrix(obj["im"], pointer + "/im") if "im" in obj else np.zeros_like(re_part)
    if im_part.shape != re_part.shape:
        raise SchemaError(pointer + "/im", "must have the shape of re")
    mat = re_part + 1j * im_part
    if mat.shape != (m, m) and mat.shape != (2 * m, 2 * m):
        raise SchemaError(pointer, f"matrix shape {mat.shape} does not match m = {m}")
    return mat


def matrix_file_parse(path: str) -> lo.MatrixClass:
    obj = _load_json(path)
    tag_name = obj.get("tag")
    if not isinstance(tag_name, str) or tag_name not in _TAGS:
        raise SchemaError("/tag", f"unknown tag {tag_name!r}; expected one of {sorted(_TAGS)}")
    mat = _parse_complex_matrix(obj, "")
    return lo.MatrixClass(_TAGS[tag_name], mat)


def _parse_pattern(entries, m: int) -> tuple:
    if not isinstance(entries, list) or len(entries) != m:
        raise SchemaError("/pattern", f"pattern must list {m} entries")
    out = []
    for k, entry in enumerate(entries):
        if _is_int(entry, 0):
            out.append(photon(entry))
        elif entry == "click":
            out.append(CLICK)
        elif entry == "noclick":
            out.append(NOCLICK)
        elif entry == "marginal":
            out.append(MARGINAL)
        else:
            raise SchemaError(
                f"/pattern/{k}",
                "entries must be a nonnegative integer, 'click', 'noclick', or 'marginal'",
            )
    return tuple(out)


def circuit_file_parse(path: str) -> lo.CircuitSpec:
    obj = _load_json(path)
    modes_obj = obj.get("modes")
    if not isinstance(modes_obj, list) or not modes_obj:
        raise SchemaError("/modes", "must be a nonempty list")
    modes = []
    for k, mode in enumerate(modes_obj):
        if not isinstance(mode, dict):
            raise SchemaError(f"/modes/{k}", "must be an object")
        r, n = (
            _number(mode.get(key, 0.0), f"/modes/{k}/{key}", "must be a nonnegative number", _nonneg)
            for key in ("r", "n")
        )
        modes.append((r, n))
    m = len(modes)
    eta = _number(obj.get("eta", 1.0), "/eta", "must lie in (0, 1]", lambda x: 0.0 < x <= 1.0)
    n_th = _number(obj.get("n_th", 0.0), "/n_th", "must be a nonnegative number", _nonneg)
    uni = obj.get("unitary")
    if not isinstance(uni, dict):
        raise SchemaError("/unitary", "must give 'haar_seed' or a matrix")
    if "haar_seed" in uni:
        if not _is_int(uni["haar_seed"], 0):
            raise SchemaError("/unitary/haar_seed", "must be a nonnegative integer")
        interf = lo.haar_unitary(m, uni["haar_seed"])
    else:
        mat = _parse_complex_matrix(uni, "/unitary")
        if mat.shape != (m, m):
            raise SchemaError("/unitary", f"unitary must be {m}x{m}")
        try:
            interf = lo.Interferometer(m, mat)
        except ValueError as exc:
            raise SchemaError("/unitary", str(exc))
    pattern = _parse_pattern(obj.get("pattern"), m)
    return lo.CircuitSpec(tuple(modes), interf, pattern, eta, n_th)


# ---------------------------------------------------------------------------
# reporting helpers
# ---------------------------------------------------------------------------


def _strict(value):
    """Non-finite floats, such as the bound of an unbounded shifted factor,
    become null so that every report is strict JSON."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit(report: dict, output: Optional[str]) -> None:
    text = json.dumps(_strict(report), sort_keys=True, indent=2, default=float, allow_nan=False)
    text += "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_report(command: str, seed: int) -> dict:
    return {"command": command, "version": __version__, "seed": seed}


def _config_from_args(args) -> est.EstimatorConfig:
    if args.samples is not None and args.samples < 1:
        raise SchemaError("/samples", f"must be a positive integer, got {args.samples}")
    if args.threads is not None and args.threads < 1:
        raise SchemaError("/threads", f"must be a positive integer, got {args.threads}")
    if args.seed < 0:
        raise SchemaError("/seed", f"must be a nonnegative integer, got {args.seed}")
    for name in ("epsilon", "delta"):
        if not 0.0 < getattr(args, name) < 1.0:
            raise SchemaError(f"/{name}", f"must lie in (0, 1), got {getattr(args, name)}")
    gamma_mode = "auto"
    if args.gamma is not None:
        gamma_mode = (args.gamma, args.direction)
    return est.EstimatorConfig(
        s=args.s,
        gamma_mode=gamma_mode,
        epsilon=args.epsilon,
        delta=args.delta,
        n_samples=args.samples,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _hafnian_sq_oracle(data: np.ndarray) -> float:
    # odd-dimension hafnians vanish by parity; the brute-force oracle only
    # accepts even dimensions
    return 0.0 if data.shape[0] % 2 else abs(oracles.hafnian_exact(data)) ** 2


# estimate-* command -> (accepted tags, tag error, estimator, exact oracle)
_MATRIX_COMMANDS = {
    "estimate-haf": (
        {lo.MatrixTag.COMPLEX_SYMMETRIC_R},
        "estimate-haf needs tag 'R'",
        lambda mat, config, args: est.estimate_hafnian_sq(
            mat.data, config, a=args.a, threads=args.threads
        ),
        _hafnian_sq_oracle,
    ),
    "estimate-per": (
        {lo.MatrixTag.HPSD_B},
        "estimate-per needs tag 'B'",
        lambda mat, config, args: est.estimate_permanent_hpsd(
            mat.data, config, a=args.a, threads=args.threads
        ),
        lambda data: oracles.permanent_exact(data).real,
    ),
    "estimate-tor": (
        {lo.MatrixTag.BLOCK_R_PRIME, lo.MatrixTag.BLOCK_B_PRIME, lo.MatrixTag.BLOCK_A_PRIME},
        "estimate-tor needs tag R', B', or A'",
        lambda mat, config, args: est.estimate_torontonian(mat, config, threads=args.threads),
        oracles.torontonian_exact,
    ),
}


def _cmd_estimate_matrix(args) -> int:
    tags, tag_error, estimate, oracle = _MATRIX_COMMANDS[args.command]
    mat = matrix_file_parse(args.matrix)
    if mat.tag not in tags:
        raise SchemaError("/tag", tag_error)
    result = estimate(mat, _config_from_args(args), args)
    report = _base_report(args.command, args.seed)
    report["result"] = result.as_dict()
    if args.oracle_check:
        report["oracle"] = oracle(mat.data)
        report["within_budget"] = bool(abs(result.value - report["oracle"]) <= result.budget)
    _emit(report, args.output)
    return 0


def _cmd_estimate_prob(args) -> int:
    # the multiplicative estimator sets these itself
    for flag in ("samples", "s", "gamma"):
        if args.multiplicative and getattr(args, flag) is not None:
            raise SchemaError(f"/{flag}", "is not used by --multiplicative")
    circuit = circuit_file_parse(args.circuit)
    config = _config_from_args(args)
    report = _base_report("estimate-prob", args.seed)
    if args.multiplicative:
        result = fpras.estimate_multiplicative(
            circuit, args.epsilon, args.delta, config, threads=args.threads
        )
        report["mode"] = "multiplicative"
        report["result"] = result.as_dict()
    else:
        rep = est.estimate_probability(circuit, config, threads=args.threads)
        report["mode"] = "additive"
        report["result"] = rep.as_dict()
    if args.oracle_check:
        report["oracle"] = _oracle_probability(circuit)
    _emit(report, args.output)
    return 0


def _oracle_probability(circuit: lo.CircuitSpec) -> float:
    kinds = {out.kind for out in circuit.pattern}
    if kinds <= {"photon", "marginal"}:
        return oracles.exact_probability(circuit, circuit.pattern)
    if kinds <= {"click", "noclick", "marginal"}:
        return oracles.exact_threshold_probability(circuit, circuit.pattern)
    raise SchemaError("/pattern", "oracle needs an all-photon or all-threshold pattern")


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise SchemaError(flag, "must be a comma-separated list of numbers")
    if not all(math.isfinite(v) for v in values):
        raise SchemaError(flag, "numbers must be finite")
    if not values:
        raise SchemaError(flag, "needs at least one number")
    return values


# check-fpras family -> the flags of its parameters, in the order its
# condition and circuit (``fpras.CONDITION_CIRCUITS``) take them
_CONDITION_FLAGS = {
    "permanent": ("lambdas",),
    "hafnian": ("n", "r_max"),
    "tor-thermal": ("lambda_min", "lambda_max"),
    "tor-squeezed-thermal": ("n", "r_max"),
    "gbs-noise": ("eta", "r_max", "n_th"),
}
# flags each bounds family needs beyond its list flags
_BOUNDS_FLAGS = {"hafnian-block-a": ("n",), "tor-squeezed-thermal": ("n",)}


def _require_flags(args, names) -> None:
    for name in names:
        if getattr(args, name) is None:
            flag = name.replace("_", "-")
            raise SchemaError(f"/{flag}", f"--family {args.family} needs --{flag}")


def _cmd_check_fpras(args) -> int:
    report = _base_report("check-fpras", args.seed)
    flags = _CONDITION_FLAGS[args.family]
    if flags == ("lambdas",):
        values = [_parse_float_list(args.lambdas, "/lambdas")]
        if max(values[0]) >= 1.0:
            raise SchemaError("/lambdas", "eigenvalues must be rescaled into (0, 1)")
    else:
        _require_flags(args, flags)
        values = [getattr(args, name) for name in flags]
    holds, cert = fpras.check_condition(args.family, *values)
    if args.family == "gbs-noise":
        report["noise_threshold"] = fpras.gbs_noise_threshold(args.eta, args.r_max)
    report["family"] = args.family
    report["holds"] = bool(holds)
    report["certificate"] = {
        "holds": cert.holds,
        "family": cert.family,
        "margin": cert.margin,
        "witness_line": list(cert.witness_line) if cert.witness_line else None,
    }
    _emit(report, args.output)
    return 0 if holds else 2


def _cmd_bounds(args) -> int:
    """Sandwich bounds and the budget of a default estimate: the family's
    embedding of a diagonal matrix (block A: its squeezed thermal circuit)
    with the estimator's budget rule at s_max - S_MAX_MARGIN and the
    automatic shift.  Budget factors are listed in input order."""
    report = _base_report("bounds", args.seed)
    family = args.family
    _require_flags(args, _BOUNDS_FLAGS.get(family, ()))
    rep = None
    if family in ("hafnian-block-a", "tor-squeezed-thermal"):
        spectrum = _parse_float_list(args.r_list, "/r-list")
        if family == "hafnian-block-a":
            emb = lo.embed_hafnian_block_a(args.n, spectrum)
            sandwich = lambda: bounds.hafnian_bounds(args.n, spectrum)
        else:
            interf = lo.identity_interferometer(len(spectrum))
            emb = lo.embed_torontonian(lo.block_a_prime(args.n, spectrum, interf))
            sandwich = lambda: bounds.torontonian_bounds(
                "squeezed_thermal", n=args.n, r_list=spectrum
            )
        try:
            rep = sandwich()
        except PreconditionAminBelowOne:
            pass  # the sandwich is derived for a_min >= 1 only; the budget is not
    else:
        spectrum = _parse_float_list(args.lambdas, "/lambdas")
        diag = np.diag(spectrum)
        if family == "permanent":
            rep = bounds.permanent_bounds(spectrum)
            emb = lo.embed_permanent(diag)
        elif family == "tor-thermal":
            rep = bounds.torontonian_bounds("thermal", lambdas=spectrum)
            emb = lo.embed_torontonian(lo.block_b_prime(diag))
        else:  # hafnian-sq
            emb = lo.embed_hafnian(diag)
    setup = est.Setup(emb.circuit, emb.circuit.s_max - est.S_MAX_MARGIN)
    factors = est.budget_factors(emb, est.mode_sups(setup, *est.resolve_gamma(setup)))
    if family in ("permanent", "tor-thermal", "hafnian-sq"):
        # the decomposition sorts the spectrum by decreasing modulus
        order = np.argsort(-np.abs(spectrum), kind="stable")
        factors = factors[np.argsort(order, kind="stable")]
    if rep is not None:
        report["bounds"] = {
            "lower": rep.lower,
            "upper": rep.upper,
            "family": rep.family,
            "formula_id": rep.formula_id,
        }
    report["budget"] = {
        "factors": [float(x) for x in factors],
        "product": float(np.prod(factors)),
        "formula_id": f"budget.{emb.family}",
    }
    _emit(report, args.output)
    return 0


def _cmd_oracle(args) -> int:
    report = _base_report("oracle", args.seed)
    if args.circuit:
        circuit = circuit_file_parse(args.circuit)
        report["value"] = _oracle_probability(circuit)
    else:
        if not args.matrix:
            raise SchemaError("/matrix", "oracle needs --matrix or --circuit")
        mat = matrix_file_parse(args.matrix)
        if args.function in ("permanent", "hafnian"):
            exact = oracles.permanent_exact if args.function == "permanent" else oracles.hafnian_exact
            val = exact(mat.data)
            report["value"], report["value_imag"] = val.real, val.imag
        elif args.function == "hafnian-sq":
            report["value"] = _hafnian_sq_oracle(mat.data)
        elif args.function == "torontonian":
            report["value"] = oracles.torontonian_exact(mat.data)
        else:
            raise SchemaError("/function", "needs --function with --matrix")
    _emit(report, args.output)
    return 0


def _cmd_convergence(args) -> int:
    circuit = circuit_file_parse(args.circuit)
    config = _config_from_args(args)
    rep = est.estimate_probability(circuit, config, threads=args.threads)
    oracle = None
    if args.oracle_check:
        oracle = _oracle_probability(circuit)
    lines = ["n,running_mean,running_radius" + (",oracle_value" if oracle is not None else "")]
    for n, mean, radius in rep.trace:
        row = f"{n},{mean!r},{radius!r}"
        if oracle is not None:
            row += f",{oracle!r}"
        lines.append(row)
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_acceptance(args) -> int:
    from . import acceptance

    wanted = None
    if args.criteria:
        wanted = {int(tok) for tok in args.criteria.split(",") if tok}
    results = acceptance.run_all(criteria=wanted, seed=args.seed)
    if args.output:
        payload = _base_report("acceptance", args.seed)
        payload["results"] = [
            {"criterion": r.criterion, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        _emit(payload, args.output)
    return 0 if all(r.passed for r in results) else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_estimator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=0.05, help="target error")
    parser.add_argument("--delta", type=float, default=0.05, help="failure probability")
    parser.add_argument("--samples", type=int, default=None, help="override sample count")
    parser.add_argument("--s", type=float, default=None, help="ordering parameter")
    parser.add_argument("--gamma", type=float, default=None, help="fixed shift in [0,1)")
    parser.add_argument(
        "--direction", choices=["forward", "reverse"], default="forward"
    )
    parser.add_argument(
        "--threads", type=int, default=None, help="parallel chunk workers (default: usable CPUs)"
    )
    parser.add_argument("--oracle-check", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqdkit",
        description="Phase-space quasiprobability estimators for linear-optical circuits",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _MATRIX_COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--matrix", required=True, help="matrix JSON path")
        p.add_argument("--rescale-a", dest="a", type=float, default=1.001)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", default=None)
        _add_estimator_flags(p)
        p.set_defaults(func=_cmd_estimate_matrix)

    p = sub.add_parser("estimate-prob")
    p.add_argument("--circuit", required=True, help="circuit JSON path")
    p.add_argument("--multiplicative", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    _add_estimator_flags(p)
    p.set_defaults(func=_cmd_estimate_prob)

    p = sub.add_parser("check-fpras")
    p.add_argument(
        "--family",
        required=True,
        choices=list(_CONDITION_FLAGS),
    )
    p.add_argument("--lambdas", default="", help="comma-separated eigenvalues")
    p.add_argument("--lambda-min", type=float, default=None)
    p.add_argument("--lambda-max", type=float, default=None)
    p.add_argument("--n", type=float, default=None)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--n-th", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_check_fpras)

    p = sub.add_parser("bounds")
    p.add_argument(
        "--family",
        required=True,
        choices=[
            "permanent",
            "hafnian-block-a",
            "tor-thermal",
            "tor-squeezed-thermal",
            "hafnian-sq",
        ],
    )
    p.add_argument("--lambdas", default="")
    p.add_argument("--n", type=float, default=None)
    p.add_argument("--r-list", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("oracle")
    p.add_argument("--matrix", default=None)
    p.add_argument("--circuit", default=None)
    p.add_argument(
        "--function",
        choices=["permanent", "hafnian", "hafnian-sq", "torontonian"],
        default=None,
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("convergence")
    p.add_argument("--circuit", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    _add_estimator_flags(p)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("acceptance")
    p.add_argument("--criteria", default="", help="comma-separated criterion numbers")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_acceptance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotLogConcave, NonConvergent, BoundViolation) as exc:
        print(f"condition failure: {exc}", file=sys.stderr)
        return 2
    except OrderingOutOfRange as exc:
        # the one ordering a caller sets is --s (its default sits below s_max)
        print(f"input error: /s: {exc}", file=sys.stderr)
        return 1
    except (PqdkitError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # overflow or division by zero on extreme (but well-formed) inputs
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
