"""Batch command-line interface.

Subcommands cover matrix-function estimation, condition checking, bound
computation, oracle evaluation, convergence traces, and the acceptance
suite.  All randomness flows from --seed, so reports are byte-identical for
identical (input, flags, seed); wall-clock time is deliberately left out of
the serialized reports.

Exit codes: 0 success, 1 input error, 2 failed numerical condition.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import __version__, bounds, fpras, oracles
from . import estimator as est
from . import linear_optics as lo
from .errors import (
    NonConvergent,
    NotLogConcave,
    PqdkitError,
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
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError("/", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}")


def _parse_complex_matrix(obj: dict, pointer: str) -> np.ndarray:
    if "m" not in obj:
        raise SchemaError(pointer + "/m", "missing mode count")
    m = obj["m"]
    if not isinstance(m, int) or m < 1:
        raise SchemaError(pointer + "/m", "must be a positive integer")
    re_part = obj.get("re")
    if re_part is None:
        raise SchemaError(pointer + "/re", "missing real part")
    im_part = obj.get("im", [[0.0] * len(row) for row in re_part])
    try:
        mat = np.asarray(re_part, dtype=float) + 1j * np.asarray(im_part, dtype=float)
    except (ValueError, TypeError):
        raise SchemaError(pointer, "re/im must be numeric matrices")
    if mat.shape != (m, m) and mat.shape != (2 * m, 2 * m):
        raise SchemaError(pointer, f"matrix shape {mat.shape} does not match m = {m}")
    return mat


def matrix_file_parse(path: str) -> lo.MatrixClass:
    obj = _load_json(path)
    tag_name = obj.get("tag")
    if tag_name not in _TAGS:
        raise SchemaError("/tag", f"unknown tag {tag_name!r}; expected one of {sorted(_TAGS)}")
    mat = _parse_complex_matrix(obj, "")
    return lo.MatrixClass(_TAGS[tag_name], mat)


def _parse_pattern(entries, m: int) -> tuple:
    if not isinstance(entries, list) or len(entries) != m:
        raise SchemaError("/pattern", f"pattern must list {m} entries")
    out = []
    for k, entry in enumerate(entries):
        if isinstance(entry, int) and entry >= 0:
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
        r = mode.get("r", 0.0)
        n = mode.get("n", 0.0)
        if not isinstance(r, (int, float)) or r < 0:
            raise SchemaError(f"/modes/{k}/r", "must be a nonnegative number")
        if not isinstance(n, (int, float)) or n < 0:
            raise SchemaError(f"/modes/{k}/n", "must be a nonnegative number")
        modes.append((float(r), float(n)))
    m = len(modes)
    eta = obj.get("eta", 1.0)
    if not isinstance(eta, (int, float)) or not (0.0 < eta <= 1.0):
        raise SchemaError("/eta", "must lie in (0, 1]")
    n_th = obj.get("n_th", 0.0)
    if not isinstance(n_th, (int, float)) or n_th < 0:
        raise SchemaError("/n_th", "must be a nonnegative number")
    uni = obj.get("unitary")
    if not isinstance(uni, dict):
        raise SchemaError("/unitary", "must give 'haar_seed' or a matrix")
    if "haar_seed" in uni:
        if not isinstance(uni["haar_seed"], int):
            raise SchemaError("/unitary/haar_seed", "must be an integer")
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
    return lo.CircuitSpec(tuple(modes), interf, pattern, float(eta), float(n_th))


# ---------------------------------------------------------------------------
# reporting helpers
# ---------------------------------------------------------------------------


def _emit(report: dict, output: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, default=float) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_report(command: str, seed: int) -> dict:
    return {"command": command, "version": __version__, "seed": seed}


def _config_from_args(args) -> est.EstimatorConfig:
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
        chunks=args.chunks,
    )


def _matrix_result(result: est.MatrixEstimate) -> dict:
    return result.as_dict(include_wall_time=False)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_estimate_haf(args) -> int:
    mat = matrix_file_parse(args.matrix)
    if mat.tag is not lo.MatrixTag.COMPLEX_SYMMETRIC_R:
        raise SchemaError("/tag", "estimate-haf needs tag 'R'")
    config = _config_from_args(args)
    result = est.estimate_hafnian_sq(mat.data, config, a=args.rescale_a)
    report = _base_report("estimate-haf", args.seed)
    report["result"] = _matrix_result(result)
    if args.oracle_check:
        # odd-dimension hafnians vanish by parity; the brute-force oracle
        # only accepts even dimensions
        if mat.data.shape[0] % 2:
            oracle = 0.0
        else:
            oracle = abs(oracles.hafnian_exact(mat.data)) ** 2
        report["oracle"] = oracle
        report["within_budget"] = bool(abs(result.value - oracle) <= result.budget)
    _emit(report, args.output)
    return 0


def _cmd_estimate_per(args) -> int:
    mat = matrix_file_parse(args.matrix)
    if mat.tag is not lo.MatrixTag.HPSD_B:
        raise SchemaError("/tag", "estimate-per needs tag 'B'")
    config = _config_from_args(args)
    result = est.estimate_permanent_hpsd(mat.data, config, a=args.rescale_a)
    report = _base_report("estimate-per", args.seed)
    report["result"] = _matrix_result(result)
    if args.oracle_check:
        oracle = oracles.permanent_exact(mat.data).real
        report["oracle"] = oracle
        report["within_budget"] = bool(abs(result.value - oracle) <= result.budget)
    _emit(report, args.output)
    return 0


def _cmd_estimate_tor(args) -> int:
    mat = matrix_file_parse(args.matrix)
    if mat.tag not in (
        lo.MatrixTag.BLOCK_R_PRIME,
        lo.MatrixTag.BLOCK_B_PRIME,
        lo.MatrixTag.BLOCK_A_PRIME,
    ):
        raise SchemaError("/tag", "estimate-tor needs tag R', B', or A'")
    config = _config_from_args(args)
    result = est.estimate_torontonian(mat, config)
    report = _base_report("estimate-tor", args.seed)
    report["result"] = _matrix_result(result)
    if args.oracle_check:
        oracle = oracles.torontonian_exact(mat.data)
        report["oracle"] = oracle
        report["within_budget"] = bool(abs(result.value - oracle) <= result.budget)
    _emit(report, args.output)
    return 0


def _cmd_estimate_prob(args) -> int:
    circuit = circuit_file_parse(args.circuit)
    config = _config_from_args(args)
    if args.multiplicative:
        result = fpras.estimate_multiplicative(circuit, args.epsilon, args.delta, config)
        report = _base_report("estimate-prob", args.seed)
        report["mode"] = "multiplicative"
        report["result"] = result.as_dict()
    else:
        rep = est.estimate_probability(circuit, config, threads=args.threads)
        report = _base_report("estimate-prob", args.seed)
        report["mode"] = "additive"
        report["result"] = rep.as_dict(include_wall_time=False)
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
    if not values:
        raise SchemaError(flag, "needs at least one number")
    return values


# flags each family of check-fpras / bounds needs beyond its list flags
_CHECK_FPRAS_FLAGS = {
    "hafnian": ("n", "r_max"),
    "tor-thermal": ("lambda_min", "lambda_max"),
    "tor-squeezed-thermal": ("n", "r_max"),
    "gbs-noise": ("eta", "r_max", "n_th"),
}
_BOUNDS_FLAGS = {"hafnian-block-a": ("n",), "tor-squeezed-thermal": ("n",)}


def _require_flags(args, names) -> None:
    for name in names:
        if getattr(args, name) is None:
            flag = name.replace("_", "-")
            raise SchemaError(f"/{flag}", f"--family {args.family} needs --{flag}")


def _cmd_check_fpras(args) -> int:
    report = _base_report("check-fpras", args.seed)
    family = args.family
    _require_flags(args, _CHECK_FPRAS_FLAGS.get(family, ()))
    if family == "permanent":
        lams = _parse_float_list(args.lambdas, "/lambdas")
        holds = fpras.fpras_condition_permanent(lams)
        a, b, c = fpras.permanent_coefficients(min(lams), max(lams))
        cert = fpras.check_quadratic_factor(a, b, min(c, 1e300))
    elif family == "hafnian":
        holds = fpras.fpras_condition_hafnian(args.n, args.r_max)
        a, b, c = fpras.hafnian_st_coefficients(args.n, args.r_max)
        if a < 0.0:
            cert = fpras.LogConcavityCertificate(False, "QuadraticFactor", a)
        else:
            cert = fpras.check_quadratic_factor(a, b, min(c, 1e300))
    elif family == "tor-thermal":
        holds = fpras.fpras_condition_tor_thermal(args.lambda_min, args.lambda_max)
        a, b, c = fpras.tor_thermal_coefficients(args.lambda_min, args.lambda_max)
        cert = (
            fpras.check_threshold_factor(a, b, min(c, 1e300))
            if a > b
            else fpras.LogConcavityCertificate(False, "ThresholdFactor", a - b)
        )
    elif family == "tor-squeezed-thermal":
        holds = fpras.fpras_condition_tor_st(args.n, args.r_max)
        a, b, c = fpras.tor_st_coefficients(args.n, args.r_max)
        cert = (
            fpras.check_threshold_factor(a, b, min(c, 1e300))
            if a > b
            else fpras.LogConcavityCertificate(False, "ThresholdFactor", a - b)
        )
    else:  # gbs-noise
        holds = fpras.fpras_condition_gbs_noise(args.eta, args.r_max, args.n_th)
        a, b, c = fpras.gbs_noise_coefficients(args.eta, args.r_max, args.n_th)
        cert = (
            fpras.check_threshold_factor(a, b, min(c, 1e300))
            if a > b
            else fpras.LogConcavityCertificate(False, "ThresholdFactor", a - b)
        )
        report["noise_threshold"] = fpras.gbs_noise_threshold(args.eta, args.r_max)
    report["family"] = family
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
    report = _base_report("bounds", args.seed)
    family = args.family
    _require_flags(args, _BOUNDS_FLAGS.get(family, ()))
    if family == "permanent":
        lams = _parse_float_list(args.lambdas, "/lambdas")
        rep = bounds.permanent_bounds(lams)
        budget = bounds.budget_permanent(lams)
    elif family == "hafnian-block-a":
        r_list = _parse_float_list(args.r_list, "/r-list")
        rep = bounds.hafnian_bounds(args.n, r_list)
        budget = bounds.budget_hafnian_block_a(args.n, r_list)
    elif family == "tor-thermal":
        lams = _parse_float_list(args.lambdas, "/lambdas")
        rep = bounds.torontonian_bounds("thermal", lambdas=lams)
        budget = bounds.budget_torontonian("thermal", lambdas=lams)
    elif family == "tor-squeezed-thermal":
        r_list = _parse_float_list(args.r_list, "/r-list")
        rep = bounds.torontonian_bounds("squeezed_thermal", n=args.n, r_list=r_list)
        budget = bounds.budget_torontonian("squeezed_thermal", n=args.n, r_list=r_list)
    elif family == "hafnian-sq":
        lams = _parse_float_list(args.lambdas, "/lambdas")
        budget = bounds.budget_hafnian(lams)
        rep = None
    else:
        raise SchemaError("/family", f"unknown family {family!r}")
    if rep is not None:
        report["bounds"] = {
            "lower": rep.lower,
            "upper": rep.upper,
            "family": rep.family,
            "formula_id": rep.formula_id,
        }
    report["budget"] = {
        "factors": [float(x) for x in budget.factors],
        "product": budget.product,
        "formula_id": budget.formula_id,
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
        if args.function == "permanent":
            val = oracles.permanent_exact(mat.data)
            report["value"] = val.real
            report["value_imag"] = val.imag
        elif args.function == "hafnian":
            val = oracles.hafnian_exact(mat.data)
            report["value"] = val.real
            report["value_imag"] = val.imag
        elif args.function == "hafnian-sq":
            report["value"] = abs(oracles.hafnian_exact(mat.data)) ** 2
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
    parser.add_argument("--chunks", type=int, default=16, help="sample stream count")
    parser.add_argument("--threads", type=int, default=1, help="parallel chunk workers")
    parser.add_argument("--oracle-check", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqdkit",
        description="Phase-space quasiprobability estimators for linear-optical circuits",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("estimate-haf", _cmd_estimate_haf),
        ("estimate-per", _cmd_estimate_per),
        ("estimate-tor", _cmd_estimate_tor),
    ):
        p = sub.add_parser(name)
        p.add_argument("--matrix", required=True, help="matrix JSON path")
        p.add_argument("--rescale-a", type=float, default=1.001)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", default=None)
        _add_estimator_flags(p)
        p.set_defaults(func=fn)

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
        choices=["permanent", "hafnian", "tor-thermal", "tor-squeezed-thermal", "gbs-noise"],
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
    except (NotLogConcave, NonConvergent) as exc:
        print(f"condition failure: {exc}", file=sys.stderr)
        return 2
    except (PqdkitError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
