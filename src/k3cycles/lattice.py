"""Integral quadratic lattices given by exact Gram matrices.

A lattice here is Z^n equipped with the symmetric integer matrix G of a
nondegenerate bilinear form (degeneracy is tolerated at construction and
rejected by the operations that cannot handle it).  All invariants are
computed exactly: signatures by rational congruence diagonalization,
discriminant groups by Smith normal form.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import linalg
from ._record import record
from .errors import (
    DegenerateLattice,
    EnumerationLimitExceeded,
    InvalidScale,
    NotInDualLattice,
    UnsupportedSignature,
)

Vector = tuple[Fraction, ...]

# Largest discriminant group whose cosets are enumerated (elements(),
# milgram_invariant).  At this order the slowest shape measured, the cyclic
# group of <10^6>, takes 1.4 s and 41 MB in a cold `k3cycles milgram` on a
# 2-core x86 VM; (Z/2)^19 takes 0.6 s.
DISC_ENUMERATION_CAP = 1_000_000


def as_vector(v: Sequence) -> Vector:
    return tuple(Fraction(x) for x in v)


Signature = namedtuple("Signature", "pos neg")


@record
class Lattice:
    """Free Z-module with an integer Gram matrix."""

    gram: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __post_init__(self):
        g = tuple(tuple(int(x) for x in row) for row in self.gram)
        n = len(g)
        for row in g:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        if g != tuple(map(tuple, self.gram)):
            raise ValueError("Gram entries must be integers")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", g)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def det(self) -> int:
        d = linalg.det(self.gram)
        assert d.denominator == 1
        return int(d)

    @property
    def even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def inner(self, x: Sequence, y: Sequence) -> Fraction:
        xv, yv = as_vector(x), as_vector(y)
        if len(xv) != self.rank or len(yv) != self.rank:
            raise ValueError("vector length does not match lattice rank")
        (xi, yi), (dx, dy) = linalg._integer_rows([xv, yv])
        return Fraction(sum(a * sum(map(mul, row, yi)) for a, row in zip(xi, self.gram)),
                        dx * dy)

    def norm(self, x: Sequence) -> Fraction:
        return self.inner(x, x)

    def in_dual(self, h: Sequence) -> bool:
        hv = as_vector(h)
        if len(hv) != self.rank:
            raise ValueError("vector length does not match lattice rank")
        for row in self.gram:
            if sum(Fraction(row[j]) * hv[j] for j in range(self.rank)).denominator != 1:
                return False
        return True

    def to_dict(self) -> dict:
        d = {"gram": [list(row) for row in self.gram]}
        if self.name is not None:
            d["name"] = self.name
        return d

    @classmethod
    def from_dict(cls, obj: dict) -> "Lattice":
        if not isinstance(obj, dict) or "gram" not in obj:
            raise ValueError("lattice object must contain a 'gram' matrix")
        gram = obj["gram"]
        if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
            raise ValueError("'gram' must be a list of integer rows")
        for row in gram:
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError("'gram' entries must be integers")
        name = obj.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError("'name' must be a string")
        return cls(gram=tuple(tuple(r) for r in gram), name=name)


@record
class DiscriminantGroup:
    """L^vee / L presented by cyclic invariant factors.

    generators[j] is a rational coordinate vector in [0, 1)^rank of order
    invariant_factors[j]; the group order is the product, which equals
    |det L|.
    """

    invariant_factors: tuple[int, ...]
    generators: tuple[Vector, ...]
    order: int
    rank: int

    def check_enumerable(self) -> None:
        """Raise EnumerationLimitExceeded when the order exceeds the cap."""
        if self.order > DISC_ENUMERATION_CAP:
            raise EnumerationLimitExceeded(
                f"discriminant group of order {self.order} has too many cosets "
                f"to enumerate (cap {DISC_ENUMERATION_CAP})")

    def elements(self) -> Iterator[Vector]:
        """All cosets, each reduced to coordinates in [0, 1).

        The cap is checked when this is called, before any coset is built.
        """
        self.check_enumerable()
        return self._cosets()

    def _cosets(self) -> Iterator[Vector]:
        if not self.invariant_factors:
            yield tuple(Fraction(0) for _ in range(self.rank))
            return
        # the generators as integers over their common denominator, by coordinate
        den = math.lcm(*(x.denominator for g in self.generators for x in g))
        cols = list(zip(*([int(x * den) for x in g] for g in self.generators)))
        for ks in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield tuple(Fraction(sum(map(mul, ks, col)) % den, den) for col in cols)


@record
class EmbeddingReport:
    """Tri-state answers; None means the rank criterion does not decide."""

    occurs: bool | None
    unique: bool | None


def signature(lat: Lattice) -> Signature:
    """Exact signature (p, q); raises DegenerateLattice when det = 0."""
    p, q, z = linalg.inertia(lat.gram)
    if z:
        raise DegenerateLattice("Gram matrix is degenerate")
    return Signature(p, q)


def discriminant_group(lat: Lattice) -> DiscriminantGroup:
    if lat.det == 0:
        raise DegenerateLattice("degenerate lattice has no discriminant group")
    d, v = linalg.smith_normal_form([list(row) for row in lat.gram])
    n = lat.rank
    factors = []
    gens = []
    for j in range(n):
        dj = d[j][j]
        if dj > 1:
            factors.append(dj)
            gens.append(tuple(Fraction(v[r][j] % dj, dj) for r in range(n)))
    order = 1
    for f in factors:
        order *= f
    assert order == abs(lat.det)
    return DiscriminantGroup(tuple(factors), tuple(gens), order, n)


def direct_sum(*lattices: Lattice) -> Lattice:
    n = sum(l.rank for l in lattices)
    gram = [[0] * n for _ in range(n)]
    off = 0
    for lat in lattices:
        for i in range(lat.rank):
            for j in range(lat.rank):
                gram[off + i][off + j] = lat.gram[i][j]
        off += lat.rank
    return Lattice(tuple(tuple(row) for row in gram))


def rescale(lat: Lattice, c: int) -> Lattice:
    """L(c): same module, form multiplied by the nonzero integer c."""
    if not isinstance(c, int) or isinstance(c, bool) or c == 0:
        raise InvalidScale("scale factor must be a nonzero integer")
    return Lattice(tuple(tuple(c * x for x in row) for row in lat.gram))


def coset_norm(lat: Lattice, h: Sequence) -> Fraction:
    """(h, h) reduced mod 2Z into [0, 2); h must lie in the dual lattice."""
    if not lat.in_dual(h):
        raise NotInDualLattice("vector does not pair integrally with the lattice")
    q = lat.norm(h)
    return q - 2 * ((q / 2).__floor__())


def nikulin_embeddable(lat: Lattice) -> EmbeddingReport:
    """Primitive-embedding rank criteria into the K3 lattice.

    Signature (2, n): occurs whenever n <= 9, uniquely when n < 9.
    Signature (1, n'): occurs whenever n' <= 10, uniquely when n' < 10.
    Outside those ranges it does not occur (occurs False, unique None)
    when n or n' exceeds 19, or when rank + l(A_L) > 22 for l the number of invariant
    factors of the discriminant group: a primitive T in the K3 lattice
    has A_T isomorphic to the discriminant group of its complement
    (Nikulin 1980, Prop. 1.6.1), so l(A_T) <= 22 - rank T.  It occurs
    (unique None) when rank + l(A_L) < 22 (Nikulin 1980, Cor. 1.12.3).
    Otherwise the criteria are silent and both answers are None.
    """
    if not lat.even:
        raise UnsupportedSignature("criterion applies to even lattices only")
    p, q = signature(lat)
    if p == 2:
        occurs = True if q <= 9 else None
        unique = True if q < 9 else None
    elif p == 1:
        occurs = True if q <= 10 else None
        unique = True if q < 10 else None
    else:
        raise UnsupportedSignature(
            "criterion applies to signatures (2, n) and (1, n') only")
    if occurs is None and q > 19:
        occurs = False
    elif occurs is None:
        length = lat.rank + len(discriminant_group(lat).invariant_factors)
        if length != 22:
            occurs = length < 22
    return EmbeddingReport(occurs=occurs, unique=unique)


def hyperbolic_plane() -> Lattice:
    return Lattice(((0, 1), (1, 0)), name="H")


def root_a1() -> Lattice:
    return Lattice(((2,),), name="A1")


_E8_GRAM = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)


def e8_lattice(sign: int = 1) -> Lattice:
    """E8 root lattice Gram (simple-root basis); sign=-1 gives E8(-1)."""
    if sign == 1:
        return Lattice(_E8_GRAM, name="E8")
    if sign == -1:
        return Lattice(
            tuple(tuple(-x for x in row) for row in _E8_GRAM), name="E8(-1)")
    raise InvalidScale("sign must be +1 or -1")


def k3_lattice() -> Lattice:
    """H^3 + E8(-1)^2: even unimodular of signature (3, 19)."""
    h = hyperbolic_plane()
    e8m = e8_lattice(-1)
    summed = direct_sum(h, h, h, e8m, e8m)
    return Lattice(summed.gram, name="K3")


_BUILTINS = {
    "H": hyperbolic_plane,
    "A1": root_a1,
    "E8": e8_lattice,
    "E8(-1)": lambda: e8_lattice(-1),
    "K3": k3_lattice,
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_lattice(name: str) -> Lattice:
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin lattice {name!r}; have {sorted(_BUILTINS)}")
    return _BUILTINS[name]()
