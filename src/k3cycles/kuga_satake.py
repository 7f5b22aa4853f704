"""Complex structures, polarization forms, and special endomorphisms on C(L).

A negative 2-plane with orthogonal rational basis z1, z2 gives the even
Clifford element j = z1 z2 with j*j = c < 0 exact; j/sqrt(-c) would be the
usual complex structure, but every symmetry, commutation, and definiteness
statement below is invariant under that positive rescaling, so the whole
certification runs in exact rational arithmetic.  The polarization form is
<x, y> = trace(a x y^iota) for a = a1 a2 built from an orthogonal basis of
the negative definite rank-2 summand (van Geemen 2000).  ks_report
certifies <x j, y> in closed form, from the relative orientation of the
two negative planes, at every rank: it does no Clifford work.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from . import clifford, linalg
from ._record import record
from .clifford import CliffordElement
from .errors import (
    AmbientMismatch,
    BadPolarizer,
    BadSplitting,
    NotNegativePlane,
    UnsupportedSignature,
)
from .lattice import Lattice, Vector, as_vector, signature

Splitting = tuple[Sequence[Sequence], Sequence[Sequence]]


@record
class PeriodPlane:
    """A rational 2-plane in L (x) Q spanned by z1, z2."""

    ambient: Lattice
    z1: Vector
    z2: Vector

    @cached_property
    def gram2(self) -> tuple[tuple[Fraction, Fraction], ...]:
        lat = self.ambient
        return tuple(
            tuple(lat.inner(u, v) for v in (self.z1, self.z2))
            for u in (self.z1, self.z2)
        )


@record
class KSReport:
    """Certification data for the torus of a period plane.

    orientation is o = det(<a_i, z_k>), never 0; its sign alone fixes the
    inertia of <x j, y> on the 2^rank monomials (see ks_report).
    alternating_ok, symmetric_ok and definite are the identities that a
    valid splitting and plane guarantee, so they are always True.
    """

    j_square_scalar: Fraction
    orientation: Fraction
    alternating_ok: bool
    symmetric_ok: bool
    definite: bool
    inertia: tuple[int, int, int]
    torus_dim: int
    complex_dim: int


def period_plane(lat: Lattice, z1: Sequence, z2: Sequence) -> PeriodPlane:
    v1, v2 = as_vector(z1), as_vector(z2)
    if len(v1) != lat.rank or len(v2) != lat.rank:
        raise ValueError("plane vector length does not match lattice rank")
    z = PeriodPlane(lat, v1, v2)
    _require_negative(z)
    return z


def _require_negative(z: PeriodPlane) -> None:
    g = z.gram2
    if not (g[0][0] < 0 and g[0][0] * g[1][1] - g[0][1] * g[1][0] > 0):
        raise NotNegativePlane("the plane spanned by z1, z2 is not negative definite")


def _clear_denominators(v: Vector) -> Vector:
    scale = math.lcm(*(x.denominator for x in v)) if v else 1
    return tuple(x * scale for x in v)


def orthogonalize_plane(z: PeriodPlane) -> PeriodPlane:
    """One Gram-Schmidt step on z2, with denominators cleared afterwards.

    Only positive rescalings and shear by z1 are applied, so the
    orientation of (z1, z2) is preserved.
    """
    _require_negative(z)
    g = z.gram2
    if g[0][1] == 0:
        return z
    f = g[0][1] / g[0][0]
    z2 = _clear_denominators(tuple(b - f * a for a, b in zip(z.z1, z.z2)))
    return PeriodPlane(z.ambient, z.z1, z2)


def j_element(z: PeriodPlane) -> tuple[CliffordElement, Fraction]:
    """The product j = z1 z2 after orthogonalization, and c = j*j < 0.

    c = -(z1,z1)(z2,z2); the normalized complex structure j/sqrt(-c) is
    never materialized since all downstream checks are scale-invariant.
    """
    z = orthogonalize_plane(z)
    g = z.gram2
    j = clifford.multiply(
        clifford.vector_element(z.ambient, z.z1),
        clifford.vector_element(z.ambient, z.z2),
    )
    return j, -g[0][0] * g[1][1]


def _integral_vector(lat: Lattice, v: Sequence) -> Vector:
    vec = as_vector(v)
    if len(vec) != lat.rank:
        raise BadSplitting("splitting vector length does not match lattice rank")
    if any(x.denominator != 1 for x in vec):
        raise BadSplitting("splitting basis vectors must be integral")
    return vec


def _minus_pair(lat: Lattice, splitting: Splitting) -> tuple[Vector, Vector]:
    """The negative part (a1, a2) of a splitting: an orthogonal pair spanning a
    negative definite plane, completed to a basis by the orthogonal positive part."""
    plus_basis, minus_basis = splitting
    if len(minus_basis) != 2:
        raise BadSplitting("the negative part of the splitting must have rank 2")
    a1, a2 = (_integral_vector(lat, v) for v in minus_basis)
    g11, g12, g22 = lat.inner(a1, a1), lat.inner(a1, a2), lat.inner(a2, a2)
    if not (g11 < 0 and g11 * g22 - g12 * g12 > 0):
        raise BadSplitting("the negative part of the splitting is not negative definite")
    plus = [_integral_vector(lat, v) for v in plus_basis]
    if len(plus) != lat.rank - 2:
        raise BadSplitting("the positive part must have rank equal to rank(L) - 2")
    for v in plus:
        if lat.inner(v, a1) != 0 or lat.inner(v, a2) != 0:
            raise BadSplitting("the two parts of the splitting are not orthogonal")
    full = [list(v) for v in plus] + [list(a1), list(a2)]
    if linalg.rank(full) != lat.rank:
        raise BadSplitting("splitting vectors do not span L (x) Q")
    # rev(a1 a2) = a2 a1 = 2 (a1, a2) - a1 a2, so a^iota = -a iff g12 = 0
    if g12:
        raise BadPolarizer(
            "a1 a2 is not involution-antisymmetric; use an orthogonal basis "
            "of the negative part"
        )
    return a1, a2


def polarizer(lat: Lattice, splitting: Splitting) -> CliffordElement:
    """a = a1 a2 from the checked negative part of a splitting; a^iota = -a."""
    a1, a2 = _minus_pair(lat, splitting)
    return clifford.multiply(clifford.vector_element(lat, a1), clifford.vector_element(lat, a2))


def ks_report(lat: Lattice, splitting: Splitting, z: PeriodPlane) -> KSReport:
    """Certify the polarization package of a plane in closed form.

    a = a1 a2 comes from the splitting's negative part and j = z1 z2 from
    the plane, each pair in the order given; the answer is the inertia of
    <x j, y> = trace(a x j y^iota) on the 2^rank monomials, read off the
    sign of o = det(<a_i, z_k>):
    - The form is symmetric, since a^iota = -a and j^iota = -j, and
      nondegenerate, since a^2 and j^2 are nonzero scalars; <x, y> is
      alternating because a^iota = -a.  _minus_pair's checks and the
      plane's negativity give all of these.
    - o != 0: otherwise some nonzero z in the plane is orthogonal to a1
      and a2, so it lies in their positive definite complement.
    - Pairs of oriented negative planes form four contractible components,
      one per choice of orientation class for each plane; on each the form
      stays nondegenerate and o keeps its sign, so both are constant.  The
      two components with o > 0 differ by reversing both orientations,
      which negates a and j and leaves the form unchanged; likewise for
      o < 0.  So the inertia depends only on the sign of o.
    - At z = a, in an orthogonal basis ending with a1, a2, the form is
      diagonal on monomials with entry a^2 |prod_{i in S} Q(e_i)| < 0 at
      e_S: negative definite, with o > 0.  Reversing z negates j, o and
      the form.
    So the inertia is (0, 2^rank, 0) when o > 0 and (2^rank, 0, 0) when
    o < 0.  j^2 = -(z1, z1)(z2, z2) after orthogonalize_plane.
    """
    sig = signature(lat)
    if sig.neg != 2:
        raise UnsupportedSignature(
            f"polarization certification needs signature (n, 2), got {tuple(sig)}"
        )
    if z.ambient.gram != lat.gram:
        raise AmbientMismatch("the period plane lies in another lattice")
    a1, a2 = _minus_pair(lat, splitting)
    g = orthogonalize_plane(z).gram2
    o = lat.inner(a1, z.z1) * lat.inner(a2, z.z2) - lat.inner(a1, z.z2) * lat.inner(a2, z.z1)
    n = 1 << lat.rank
    return KSReport(
        j_square_scalar=-g[0][0] * g[1][1],
        orientation=o,
        alternating_ok=True,
        symmetric_ok=True,
        definite=True,
        inertia=(0, n, 0) if o > 0 else (n, 0, 0),
        torus_dim=n,
        complex_dim=n // 2,
    )


def special_endo_test(lat: Lattice, x: Sequence, z: PeriodPlane) -> bool:
    """Whether right multiplication by x commutes with the complex structure.

    Equivalent to x j = j x in C(L (x) Q), which holds exactly when x is
    orthogonal to both plane vectors.
    """
    j, _ = j_element(z)
    xe = clifford.vector_element(lat, x)
    return clifford.multiply(xe, j) == clifford.multiply(j, xe)


def special_endo_basis(lat: Lattice, z: PeriodPlane) -> tuple[Vector, ...]:
    """A saturated integral basis of the vectors orthogonal to the plane."""
    rows = []
    for zv in (z.z1, z.z2):
        gz = tuple(sum(g * x for g, x in zip(row, zv)) for row in lat.gram)
        rows.append([int(x) for x in _clear_denominators(gz)])
    kernel = linalg.integer_kernel(rows, cols=lat.rank)
    return tuple(as_vector(v) for v in kernel)


def special_endo_lattice(lat: Lattice, z: PeriodPlane) -> Lattice:
    """The sublattice of vectors orthogonal to the plane, with its Gram.

    The restriction of the form to the returned basis is an isometry onto
    its image; the result may have rank 0.
    """
    basis = special_endo_basis(lat, z)
    gram = tuple(
        tuple(int(lat.inner(u, v)) for v in basis) for u in basis
    )
    return Lattice(gram)


def default_splitting(lat: Lattice) -> Splitting:
    """An orthogonal plus/minus splitting found by diagonalizing the Gram.

    Needs exactly two negative directions; basis vectors are cleared to
    integer coordinates so they feed straight into polarizer.
    """
    basis, diag = linalg.congruence_diagonalize(lat.gram)
    rows = [(_clear_denominators(tuple(b)), d) for b, d in zip(basis, diag)]
    plus = tuple(v for v, d in rows if d > 0)
    minus = tuple(v for v, d in rows if d < 0)
    if len(minus) != 2:
        raise UnsupportedSignature(
            "a default splitting needs exactly two negative directions"
        )
    return (plus, minus)
