"""Exception taxonomy shared across the package.

Every error raised on a user-facing code path derives from CausalqError so the
CLI can map failures onto exit codes without pattern-matching messages.
"""


class CausalqError(Exception):
    """Base class for all package errors."""


# -- causal geometry ---------------------------------------------------------

class CycleError(CausalqError):
    """Transitive closure of region precedence violates antisymmetry."""


# -- operator kernel ---------------------------------------------------------

class DimensionMismatch(CausalqError):
    """Operator or state shape is incompatible with the declared space."""


class SpaceMismatch(CausalqError):
    """Objects built over different product spaces were combined."""


class UnknownLabel(CausalqError):
    """A factor label is not present in the product space."""


class NotHermitian(CausalqError):
    """A matrix required to be Hermitian is not, within tolerance."""


class NotUnitary(CausalqError, ValueError):
    """A matrix required to be unitary is not, within tolerance."""


class BinsNotCovering(CausalqError):
    """Supplied spectral bins do not cover every eigenvalue, or overlap."""


class ZeroProbability(CausalqError):
    """Selective update conditioned on an outcome of (numerically) zero weight."""


# -- scenarios ---------------------------------------------------------------

class OrderSensitivity(CausalqError):
    """Linear extensions of the causal order disagree on recorded values."""


class BasisEmpty(CausalqError):
    """Operator-algebra basis list supplied to a checker is empty."""


class UnknownParameter(CausalqError):
    """Sweep parameter does not match any operation parameter."""


# -- lattice field -----------------------------------------------------------

class OutOfWindow(CausalqError):
    """Lattice points outside the configured spacetime window."""


class TruncationTooLarge(CausalqError):
    """Fock-space cutoff edge carries non-negligible occupancy."""


# -- detector models ---------------------------------------------------------

class NotCausallyOrderable(CausalqError):
    """Coupling regions admit no causal ordering consistent with the request."""


class NotSorkinType(CausalqError):
    """Region triple is not in the kick / bridge / receiver configuration."""


# -- circuit measurement schemes ---------------------------------------------

class CouplingOutsideK(CausalqError):
    """Probe coupling gate placed outside the declared coupling region."""


class GeometryViolation(CausalqError):
    """Region layout violates a geometric precondition of the check."""


class NotEffect(CausalqError):
    """Probe observable is not an effect (needs 0 <= B <= 1)."""


# -- histories ---------------------------------------------------------------

class InvalidProjector(CausalqError):
    """An operator required to be an orthogonal projector is not, within tolerance."""


class NotExclusive(CausalqError):
    """Histories to be joined are not mutually exclusive at any step."""


class CommutationPrecondition(CausalqError):
    """Required commutation between step resolutions fails."""


# -- CLI ---------------------------------------------------------------------

class ParseError(CausalqError):
    """Input file is not syntactically valid."""


class ValidationError(CausalqError):
    """Input file is well-formed but violates the document schema."""
