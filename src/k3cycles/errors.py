"""Exception types shared across the package.

Everything subclasses ValueError so that casual callers who only catch
ValueError still see validation failures.
"""


class K3CyclesError(ValueError):
    """Base class for all package-specific errors."""


class DegenerateLattice(K3CyclesError):
    """Gram matrix has determinant zero where a nondegenerate one is required."""


class InvalidScale(K3CyclesError):
    """Rescaling factor must be a nonzero integer."""


class UnsupportedSignature(K3CyclesError):
    """Operation only applies to lattices of a restricted signature shape."""


class NotInDualLattice(K3CyclesError):
    """Coset vector does not pair integrally with the lattice."""


class IndefiniteLattice(K3CyclesError):
    """Enumeration requires a positive definite Gram matrix."""


class NegativeTarget(K3CyclesError):
    """A Gram target with a negative diagonal entry cannot be represented."""


class EnumerationLimitExceeded(K3CyclesError):
    """An exact enumeration would exceed the configured term budget."""


class UnsupportedWeight(K3CyclesError):
    """Eisenstein coefficients are only produced for even weight k >= 4."""


class InvalidTau(K3CyclesError):
    """Series evaluation requires a point in the upper half plane."""


class InvalidModulus(K3CyclesError):
    """Gauss sum modulus must be a positive integer."""


class OddLatticeUnsupported(K3CyclesError):
    """Discriminant-form sums, and Gauss sums with a*c odd, need an even lattice."""


class AmbientMismatch(K3CyclesError):
    """Clifford elements live over different lattices."""


class NotInvertible(K3CyclesError):
    """Element has no inverse in the Clifford algebra."""


class RankLimitExceeded(K3CyclesError):
    """Dense Clifford linear algebra refuses ranks above the supported cap."""


class NotNegativePlane(K3CyclesError):
    """Plane basis does not span a negative definite rank-2 subspace."""


class BadSplitting(K3CyclesError):
    """Claimed positive/negative splitting is not orthogonal or has wrong shape."""


class BadPolarizer(K3CyclesError):
    """Polarizing element a = a1*a2 does not satisfy the sign condition."""


class DegenerateTransfer(K3CyclesError):
    """Field lattice is degenerate, so no trace form exists."""


class NotAnOrder(K3CyclesError):
    """Claimed quaternion order basis is not closed under multiplication."""


class NotFreeModule(K3CyclesError):
    """A module arising in the computation has no free basis we can find."""
