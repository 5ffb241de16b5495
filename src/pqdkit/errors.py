"""Exception hierarchy for pqdkit.

Every precondition violation maps to a dedicated class so that callers (and
the CLI exit-code logic) can distinguish bad inputs from failed numerical
conditions.
"""


class PqdkitError(Exception):
    """Base class for all pqdkit errors."""


class SingularOrdering(PqdkitError):
    """Ordering parameter hits or exceeds the classicality of a state."""


class OrderingOutOfRange(PqdkitError):
    """Ordering parameter outside the admissible range of a measurement PQD."""


class ShiftOutOfRange(PqdkitError):
    """Gaussian-factor shift drives an exponent out of the positive window."""


class DimensionMismatch(PqdkitError):
    """Incompatible vector/matrix dimensions."""


class NotSymmetric(PqdkitError):
    """Matrix fails the complex-symmetry tolerance."""


class NotHpsd(PqdkitError):
    """Matrix fails the Hermitian positive-semidefinite tolerance."""


class ZeroMatrix(PqdkitError):
    """Matrix is identically zero where a nonzero scale is required."""


class NotPositiveDefinite(PqdkitError):
    """Effective sampling covariance lost positive definiteness."""


class StructureMismatch(PqdkitError):
    """Block matrix does not match the required squeezed-thermal structure."""


class BudgetOverflow(PqdkitError):
    """Requested sample count exceeds the 2**63 budget."""


class TooLarge(PqdkitError):
    """Input exceeds the hard size limit of a brute-force oracle."""


class OddDimension(PqdkitError):
    """Hafnian requested for an odd-dimensional matrix."""


class SingularSubmatrix(PqdkitError):
    """A Torontonian subterm has a singular determinant."""


class NegativeCoefficient(PqdkitError):
    """Log-concavity check called with a negative coefficient."""


class ZeroEigenvalue(PqdkitError):
    """Spectrum touches zero where a strictly positive one is required."""


class NotLogConcave(PqdkitError):
    """Integrand fails the log-concavity condition for multiplicative runs."""


class BoundViolation(PqdkitError):
    """A sample weight exceeded the supremum its sample count relies on."""


class NonConvergent(PqdkitError):
    """Sampler hit its cap before meeting the stopping rule."""


class PreconditionAminBelowOne(PqdkitError):
    """Bound formulas require the smallest variance a_min >= 1."""


class UnsupportedBound(PqdkitError):
    """No closed-form bound is known for the requested matrix family."""


class SchemaError(PqdkitError):
    """Input file violates the JSON schema; carries a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")
