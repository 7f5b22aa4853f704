"""Complex structures, polarization forms, and special endomorphisms on C(L).

A negative 2-plane with orthogonal rational basis z1, z2 gives the even
Clifford element j = z1 z2 with j*j = c < 0 exact; j/sqrt(-c) would be the
usual complex structure, but every symmetry, commutation, and definiteness
statement below is invariant under that positive rescaling, so the whole
certification runs in exact rational arithmetic.  The polarization form is
<x, y> = trace(a x y^iota) for a = a1 a2 built from an orthogonal basis of
the negative definite rank-2 summand (van Geemen 2000).  ks_report builds
it and <x j, y> on the monomial basis, in integers, as parity blocks.
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
    RankLimitExceeded,
    UnsupportedSignature,
)
from .lattice import Lattice, Vector, as_vector, signature

Splitting = tuple[Sequence[Sequence], Sequence[Sequence]]

# On a 2-core x86 VM ks_report takes 0.1-0.4 s at rank 9; at rank 10 it takes
# 0.2 s (diagonal), 0.6 s (A8 + two <-2>), 0.3-3.1 s (sheared), at most 63 MB.
KS_RANK_CAP = 10


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
    """Certification data for the torus of a period plane; riemann_blocks[p]
    is <x j, y> times a.den * j.den on the monomials of parity p, in mask
    order, as tuple rows so that the report hashes.  symmetric_ok is
    always True: an asymmetric form raises instead."""

    j_square_scalar: Fraction
    riemann_blocks: tuple[tuple[tuple[int, ...], ...], ...]
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


def polarizer(lat: Lattice, splitting: Splitting) -> CliffordElement:
    """The element a = a1 a2 from the negative definite part of a splitting.

    The positive part must be orthogonal to it and complete a full-rank
    basis; a is required to satisfy a^iota = -a, which for a product of
    two vectors means exactly that the pair is orthogonal.
    """
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
    return clifford.multiply(
        clifford.vector_element(lat, a1), clifford.vector_element(lat, a2)
    )


def ks_report(lat: Lattice, splitting: Splitting, z: PeriodPlane) -> KSReport:
    """Assemble and certify the full polarization package for a plane.

    Builds <x,y> = trace(a x y^iota) and <x j, y> over the monomial basis
    on the integer numerators of a and j, then checks exactly: the first is
    antisymmetric, the second symmetric (linalg.inertia raises otherwise)
    with definite inertia, up to the global sign fixed by orientation.
    Entry (s, t) sums over u the coefficient of e_u in a e_s (or a e_s j)
    times tau(e_u rev(e_t)); a depth-first walk over t pushes that column,
    sparse, through transposed tables into both forms and into the column
    of t + 2^i.  a and j are even, so each form is written once, into its
    even and odd blocks; an entry joining them raises ValueError.
    """
    sig = signature(lat)
    if sig.neg != 2:
        raise UnsupportedSignature(
            f"polarization certification needs signature (n, 2), got {tuple(sig)}"
        )
    if lat.rank > KS_RANK_CAP:
        raise RankLimitExceeded(
            f"certification builds 2^{lat.rank} x 2^{lat.rank} forms; rank is "
            f"capped at {KS_RANK_CAP}"
        )
    if z.ambient.gram != lat.gram:
        raise AmbientMismatch("the period plane lies in another lattice")
    a_el, (j_el, j_square) = polarizer(lat, splitting), j_element(z)
    a, j = dict(a_el.nums), dict(j_el.nums)
    table = clifford._table(lat.gram)
    n = 1 << lat.rank

    def transposed(maps) -> list[list]:  # out[u]: (s, c) for c e_u in maps[s]
        out: list[list] = [[] for _ in range(n)]
        for s, terms in enumerate(maps):
            for u, c in terms.items():
                out[u].append((s, c))
        return out

    def push(col: dict, tr: list) -> dict:
        acc: dict = {}
        for m, v in col.items():
            for u, c in tr[m]:
                acc[u] = acc.get(u, 0) + c * v
        return {u: x for u, x in acc.items() if x}

    xs = [table.product(a, {s: 1}) for s in range(n)]
    ae, aej = transposed(xs), transposed(table.product(x, j) for x in xs)
    gens = [transposed(table.gen(u, i) for u in range(n)) for i in range(lat.rank)]
    # column t: row t >> 1 of block parity(t), entry s at s >> 1 (2k, 2k + 1 differ in parity)
    alt, sym = [[None] * (n // 2) for _ in (0, 1)], [[None] * (n // 2) for _ in (0, 1)]
    stack = [(0, {m: x for m in range(n) if (x := table.tau(m))})]
    while stack:
        t, col = stack.pop()
        for blocks, tr in ((alt, ae), (sym, aej)):
            row = [0] * (n // 2)
            for s, x in push(col, tr).items():
                if (s ^ t).bit_count() & 1:
                    raise ValueError("the symmetric form joins even and odd monomials")
                row[s >> 1] = x
            blocks[t.bit_count() & 1][t >> 1] = row
        stack += [(t | 1 << i, push(col, gens[i])) for i in range(t.bit_length(), lat.rank)]
    alternating_ok = all(row == [-x for x in col] for b in alt for row, col in zip(b, zip(*b)))
    inertia = tuple(map(sum, zip(*map(linalg.inertia, sym))))
    return KSReport(
        j_square_scalar=j_square,
        riemann_blocks=tuple(tuple(map(tuple, block)) for block in sym),
        alternating_ok=alternating_ok,
        symmetric_ok=True,
        definite=inertia in ((n, 0, 0), (0, n, 0)),
        inertia=inertia,
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
