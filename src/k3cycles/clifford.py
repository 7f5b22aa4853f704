"""Exact Clifford algebra of an integral lattice.

Elements live in the 2^rank monomial basis e_S = e_{i_1}...e_{i_k} indexed
by sorted subsets S of the basis (bitmasks), as integer numerators over one
positive denominator.  Multiplication is generated by v.w + w.v = 2(v,w)
and v.v = (v,v), reduced to normal form one generator at a time.  An
integral Gram gives integer structure constants, memoized per Gram, so
products, involutions, sums and monomial traces run on ints; Fraction
appears only at the edges: element(), the coeffs view, element traces and
the solve inside invert (one 2^(rank-1) block for an even or odd element).
Everything is exact: no floating point enters this module.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

from . import linalg
from ._record import record
from .errors import AmbientMismatch, NotInvertible, RankLimitExceeded
from .lattice import Lattice

# invert solves a dense 2^rank system, one 2^(rank-1) block for an even or odd
# element.  On A_r on a 2-core x86 VM, a dense element (all 2^r coefficients
# in [-9, 9]) takes 2.1 s at rank 7 and 41 s at rank 8, a dense even one
# 2.3-2.5 s at rank 8; a scalar plus a vector takes 1.5 s at 8 and 16.5 s at 9.
INVERSION_RANK_CAP = 8


class GradedParity(Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


@record
class CliffordElement:
    """A finite rational combination of basis monomials of C(L).

    nums holds (mask, nonzero int) pairs, masks ascending (bit i set: e_{i+1}
    occurs), over den > 0 with gcd(den, *nums) == 1.  The form is canonical,
    so == and hash compare values; coeffs is the (mask, Fraction) view.
    """

    ambient: Lattice
    nums: tuple[tuple[int, int], ...]
    den: int

    def __post_init__(self):
        masks, cs = [m for m, _ in self.nums], [c for _, c in self.nums]
        if (self.den < 1 or math.gcd(self.den, *cs) > 1 or 0 in cs or masks != sorted(set(masks))
                or not all(0 <= m < 1 << self.ambient.rank for m in masks)):
            raise ValueError("not canonical: den > 0, gcd 1, nonzero nums, masks ascend < 2**rank")

    @cached_property
    def coeffs(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((m, Fraction(c, self.den)) for m, c in self.nums)

    @cached_property
    def _map(self) -> dict[int, int]:
        return dict(self.nums)

    @cached_property
    def _inverse(self) -> CliffordElement:
        """Solve N y = den for x = N/den by left multiplication.  x of parity p
        maps parity q to q + p, so an even or odd x solves only columns of
        parity p against the even rows: a right, hence two-sided, inverse."""
        if all(m == 0 for m, _ in self.nums):  # a scalar, zero included: no solve
            if not self.nums:
                raise NotInvertible("the zero element has no inverse")
            return scalar_element(self.ambient, 1 / self.coefficient(0))
        rank = self.ambient.rank
        if rank > INVERSION_RANK_CAP:
            raise RankLimitExceeded(f"inversion solves a dense 2^{rank} system; rank "
                                    f"is capped at {INVERSION_RANK_CAP}")
        rows = cols = range(1 << rank)
        if (p := parity(self)) is not GradedParity.MIXED:
            rows, cols = ([t for t in rows if bin(t).count("1") & 1 == q]
                          for q in (0, p is GradedParity.ODD))
        table = _table(self.ambient.gram)
        images = [table.apply(self._map, _bits(t)) for t in cols]
        sol = linalg.solve([[img.get(s, 0) for img in images] for s in rows],
                           [self.den * (s == 0) for s in rows])
        if sol is None:
            raise NotInvertible("left multiplication by this element is singular")
        return element(self.ambient, dict(zip(cols, sol)))

    def coefficient(self, mask: int) -> Fraction:
        return Fraction(self._map.get(mask, 0), self.den)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __add__(self, other: CliffordElement) -> CliffordElement:
        _same_ambient(self, other)
        d = math.lcm(self.den, other.den)
        return _reduced(self.ambient, _combine((d // x.den, x._map) for x in (self, other)), d)

    def __sub__(self, other: CliffordElement) -> CliffordElement:
        return self + (-other)

    def __neg__(self) -> CliffordElement:
        return CliffordElement(self.ambient, tuple((m, -c) for m, c in self.nums), self.den)

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other) -> CliffordElement:
        return self.scale(other)

    def scale(self, c) -> CliffordElement:
        c = Fraction(c)
        return _reduced(self.ambient, {m: c.numerator * v for m, v in self.nums},
                        c.denominator * self.den)


def _reduced(lat: Lattice, nums: Mapping[int, int], den: int) -> CliffordElement:
    """The element sum(nums[m] e_m) / den for den > 0, in lowest terms."""
    g = math.gcd(den, *nums.values())
    return CliffordElement(lat, tuple(sorted((m, c // g) for m, c in nums.items() if c)),
                           den // g)


def element(lat: Lattice, coeffs: Mapping[int, object]) -> CliffordElement:
    """Build a normalized element from a mask -> rational mapping."""
    for mask in coeffs:
        if not 0 <= mask < 1 << lat.rank:
            raise ValueError(f"monomial mask {mask} out of range for rank {lat.rank}")
    (nums,), (den,) = linalg._integer_rows([[Fraction(c) for c in coeffs.values()]])
    return _reduced(lat, dict(zip(coeffs, nums)), den)


def scalar_element(lat: Lattice, c) -> CliffordElement:
    return element(lat, {0: c})


def vector_element(lat: Lattice, coords: Sequence) -> CliffordElement:
    """The lattice (or rational) vector sum(coords[i] * e_{i+1}) inside C."""
    if len(coords) != lat.rank:
        raise ValueError("coordinate vector length does not match lattice rank")
    return element(lat, {1 << i: x for i, x in enumerate(coords)})


def basis_element(lat: Lattice, index: int) -> CliffordElement:
    """The single basis vector e_index (1-based)."""
    if not 1 <= index <= lat.rank:
        raise ValueError(f"basis index {index} out of range for rank {lat.rank}")
    return element(lat, {1 << (index - 1): 1})


def _same_ambient(x: CliffordElement, y: CliffordElement) -> None:
    if x.ambient.gram != y.ambient.gram:
        raise AmbientMismatch("elements live in Clifford algebras of different lattices")


def _combine(pairs: Iterable[tuple[int, Mapping[int, int]]]) -> dict[int, int]:
    """The sum of c * terms over (c, terms) pairs, zero coefficients dropped."""
    acc: dict[int, int] = {}
    for c, terms in pairs:
        for m, t in terms.items():
            acc[m] = acc.get(m, 0) + c * t
    return {m: v for m, v in acc.items() if v}


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class _GenTable:
    """Integer structure constants of C(L) for one integral Gram matrix."""

    def __init__(self, gram: tuple):
        self.gram = gram
        self._memo: dict[tuple[int, int], Mapping[int, int]] = {}
        self._tau: dict[int, int] = {}

    def gen(self, mask: int, j: int) -> Mapping[int, int]:
        """e_mask * e_j in normal form, as a memoized read-only mapping."""
        key = (mask, j)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top) if mask else 0
        if top < j:
            out = {mask | (1 << j): 1}
        elif top == j:
            g = self.gram[j][j]
            out = {rest: g} if g else {}
        else:
            # e_rest e_top e_j = 2(e_top,e_j) e_rest - (e_rest e_j) e_top,
            # and every monomial of e_rest e_j has top bit < top.
            bit = 1 << top
            moved = {m | bit: c for m, c in self.gen(rest, j).items()}
            out = _combine(((2 * self.gram[top][j], {rest: 1}), (-1, moved)))
        out = MappingProxyType(out)
        self._memo[key] = out
        return out

    def word(self, mask: int, gens: Iterable[int]) -> dict[int, int]:
        """Normal form of e_mask * e_{g_1} * e_{g_2} * ... for the given g_i."""
        return self.apply({mask: 1}, gens)

    def apply(self, x: Mapping[int, int], gens: Iterable[int]) -> Mapping[int, int]:
        """x * e_{g_1} * e_{g_2} * ..., one generator step on all of x at a time."""
        for j in gens:
            x = _combine((c, self.gen(m, j)) for m, c in x.items())
        return x

    def product(self, x: Mapping[int, int], y: Mapping[int, int]) -> dict[int, int]:
        """x * y for mask -> coefficient mappings."""
        return _combine((cy, self.apply(x, _bits(my))) for my, cy in y.items())

    def tau(self, mask: int) -> int:
        """Matrix trace of left multiplication by the monomial e_mask.

        By Wick's theorem (Chevalley 1954) it is 2^rank times the Pfaffian of
        G[i_a][i_b], a < b, over the indices i_0 < i_1 < ... of e_mask:
        tau(w) = sum_{k>=1} (-1)^(k-1) G[i_0][i_k] tau(w - {i_0, i_k}), 0 on
        odd words and 2^rank on the empty one, so O(rank) per memoized word.
        """
        hit = self._tau.get(mask)
        if hit is None:
            bits = _bits(mask)
            if len(bits) & 1:
                hit = 0
            elif not bits:
                hit = 1 << len(self.gram)
            else:
                row, rest = self.gram[bits[0]], mask ^ (1 << bits[0])
                hit = sum((-1) ** k * row[i] * self.tau(rest ^ (1 << i))
                          for k, i in enumerate(bits[1:]) if row[i])
            self._tau[mask] = hit
        return hit


@lru_cache(maxsize=32)
def _table(gram: tuple) -> _GenTable:
    return _GenTable(gram)


def multiply(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """The associative Clifford product in normal form."""
    _same_ambient(x, y)
    return _reduced(x.ambient, _table(x.ambient.gram).product(x._map, y._map), x.den * y.den)


def main_involution(x: CliffordElement) -> CliffordElement:
    """The anti-automorphism fixing every lattice vector.

    On a monomial it reverses the factor order; the reversed word is then
    remultiplied back into normal form, which is what makes this correct
    for non-orthogonal Gram matrices.
    """
    table = _table(x.ambient.gram)
    return _reduced(x.ambient, _combine((c, table.word(0, _bits(mask)[::-1]))
                                        for mask, c in x.nums), x.den)


def parity(x: CliffordElement) -> GradedParity:
    """Grading of x under C = C+ (+) C-; the zero element counts as even."""
    seen = {bin(mask).count("1") & 1 for mask, _ in x.nums}
    if len(seen) == 2:
        return GradedParity.MIXED
    if seen == {1}:
        return GradedParity.ODD
    return GradedParity.EVEN


def scalar_part(x: CliffordElement) -> Fraction:
    return x.coefficient(0)


def trace(x: CliffordElement) -> Fraction:
    """Matrix trace of left multiplication by x.

    For an orthogonal Gram matrix every nonempty monomial has traceless
    left multiplication and this reduces to 2^rank times the coefficient
    of the empty monomial.  For a non-orthogonal Gram the two differ
    (on [[2,1],[1,2]] the monomial e1e2 has trace 4, not 0); the honest
    matrix trace is the basis-independent choice and is what makes
    trace(xy) = trace(yx) hold unconditionally.  A monomial's trace is
    2^rank times a Pfaffian of Gram entries (Wick; see _GenTable.tau).
    """
    table = _table(x.ambient.gram)
    return Fraction(sum(c * table.tau(mask) for mask, c in x.nums), x.den)


def invert(x: CliffordElement) -> CliffordElement:
    """Two-sided inverse, solved once per element and memoized on it."""
    return x._inverse


def spinor_norm(g: CliffordElement) -> CliffordElement:
    """g times its main involution; a scalar when g lies in GSpin."""
    return multiply(g, main_involution(g))


def is_gspin(g: CliffordElement) -> bool:
    """Whether conjugation by g maps every basis vector back into V.

    Requires g even and invertible; odd or mixed parity fails the test
    outright, a genuinely singular g raises NotInvertible.
    """
    if parity(g) is not GradedParity.EVEN:
        return False
    g_inv = invert(g)
    lat = g.ambient
    singletons = {1 << i for i in range(lat.rank)}
    for i in range(lat.rank):
        conj = multiply(multiply(g, basis_element(lat, i + 1)), g_inv)
        if any(mask not in singletons for mask, _ in conj.nums):
            return False
    return True


_TERM_RE = re.compile(r" *(?P<sign>(?:[+-] *)+)?(?P<coeff>\d+(?:/\d+)?)? *(?P<star>\*)? *"
                      r"(?P<mono>e\{[\d, ]*\})? *")


def format_element(x: CliffordElement) -> str:
    """Render as a sum of coeff*e{i,j,...} terms, masks ascending."""
    if not x.coeffs:
        return "0*e{}"
    out = ""
    for mask, c in x.coeffs:
        idx = [str(i + 1) for i in _bits(mask)]
        term = f"{abs(c)}*e{{{','.join(idx)}}}"
        if not out:
            out = ("-" if c < 0 else "") + term
        else:
            out += (" - " if c < 0 else " + ") + term
    return out


def parse_element(lat: Lattice, text: str) -> CliffordElement:
    """Parse the format produced by format_element.

    Accepts spaces around terms, signs and factors (never inside a number
    or an index), +- separators, bare rationals (scalar terms), and bare
    monomials (coefficient 1).
    """
    if not text.strip(" "):
        raise ValueError("empty Clifford element")
    acc: dict[int, Fraction] = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m.group("coeff") is None and m.group("mono") is None:
            raise ValueError(f"bad Clifford element syntax near {text[pos:pos + 12]!r}")
        if pos > 0 and m.group("sign") is None:
            raise ValueError("Clifford element terms must be joined by + or -")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("sign") and m.group("sign").count("-") % 2:
            coeff = -coeff
        mask = 0
        if m.group("mono"):
            body = m.group("mono")[2:-1]
            for part in body.split(",") if body.strip(" ") else ():
                if not part.strip(" ").isdigit():
                    raise ValueError(f"empty or split basis index in {m.group('mono')!r}")
                i = int(part)
                if not 1 <= i <= lat.rank:
                    raise ValueError(f"basis index {i} out of range for rank {lat.rank}")
                bit = 1 << (i - 1)
                if mask & bit:
                    raise ValueError(f"repeated basis index {i} in monomial")
                mask |= bit
        acc[mask] = acc.get(mask, 0) + coeff
        pos = m.end()
    return element(lat, acc)
