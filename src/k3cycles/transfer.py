"""Trace-form transfer of quadratic lattices over totally real fields.

An O_F-lattice with Gram entries in F becomes a Z-lattice on the basis
{omega_k m_i} via (x, y) = tr_{F/Q} (x, y)_M; signatures add over the real
embeddings.  Twisting the trace by theta - r, for r between two roots,
flips the sign of the embeddings below r, so the per-embedding
signatures, and with them the admissibility shape (one embedding of
signature (2, m), the rest (0, m+2)), come exactly from the inertia of d
trace forms built from the entries' integer numerators.  Also here: the
(d, m, N) feasibility rows for 2 <= d(m+2) <= 21 and the trace-zero
lattice of a quaternion order, found in the integer coordinates of the
order's Z-basis: one inverse decides membership, the field's structure
constants give the O_F-action, each candidate O_F-basis costs one integer
Gram determinant, and quaternions multiply in the closed form of (a, b / F).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from . import linalg
from .errors import DegenerateTransfer, NotAnOrder, NotFreeModule
from .lattice import Lattice, Signature, signature
from .numberfield import FieldElement, TotallyRealField

SignatureProfile = tuple[Signature, ...]


class FeasibilityRow(NamedTuple):
    d: int
    m: int
    n: int


@dataclass(frozen=True)
class NumberFieldLattice:
    """A free O_F-lattice with symmetric Gram entries in F, given as field
    elements or integral-basis coordinate vectors and held as elements (an
    element of another field raises ValueError)."""

    field: TotallyRealField
    gram: tuple[tuple[FieldElement, ...], ...]

    def __post_init__(self):
        gram = tuple(tuple(self.field._as_element(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", gram)
        r = len(gram)
        if any(len(row) != r for row in gram):
            raise ValueError("Gram matrix must be square")
        if any(gram[i][j] != gram[j][i] for i in range(r) for j in range(i)):
            raise ValueError("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def to_dict(self) -> dict:
        rows = [[self.field._to_integral(x) for x in row] for row in self.gram]
        if any(None in row for row in rows):
            raise ValueError("Gram entries must be O_F-integral to serialize")
        return {"field": self.field.to_dict(), "gram": [list(map(list, row)) for row in rows]}

    @classmethod
    def from_dict(cls, data: dict) -> "NumberFieldLattice":
        if not isinstance(data, dict) or "field" not in data or "gram" not in data:
            raise ValueError(
                "field lattice JSON must contain 'field' and 'gram'"
            )
        field = TotallyRealField.from_dict(data["field"])
        gram = data["gram"]
        if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
            raise ValueError("'gram' must be a matrix of coordinate vectors")
        if not all(isinstance(entry, list) and len(entry) == field.degree and all(
                isinstance(c, int) and not isinstance(c, bool) for c in entry)
                for row in gram for entry in row):
            raise ValueError(
                "Gram entries must be integer coordinate vectors of "
                "length equal to the field degree"
            )
        return cls(field, tuple(map(tuple, gram)))


def number_field_lattice(field: TotallyRealField, entries) -> NumberFieldLattice:
    """Build from a matrix of integral-basis coordinate vectors or elements."""
    return NumberFieldLattice(field, tuple(map(tuple, entries)))


def diagonal_lattice(field: TotallyRealField, elems: Sequence) -> NumberFieldLattice:
    z = field.zero()
    return number_field_lattice(field, [[x if i == j else z for j in range(len(elems))]
                                        for i, x in enumerate(elems)])


def _trace_gram(m: NumberFieldLattice, shift: int) -> tuple[list[list[int]], int]:
    """Integer rows N and a scale S > 0 with N / S the Gram
    tr_{F/Q}(theta^shift omega_k omega_l (m_i, m_j)_M).

    Basis order: lattice index outer, field basis index inner, so N has
    size d * rank_F.  A nonzero Gram entry e = sum e_c theta^c gives the
    d x d block B H_e B^T: B is the integral basis times its denominator
    den, e_c = E_c / eden for the lcm eden of all entry denominators, and
    H_e[a][b] = sum_c E_c s_(a+b+c+shift) is a Hankel matrix in the Newton
    power sums s_n = tr(theta^n).  S = den^2 * eden depends on the entries
    only, so both shifts share it.
    """
    field = m.field
    d = field.degree
    sums = field._power_sums[shift:]
    den = math.lcm(*(w.den for w in field.omegas))
    basis = [[c * (den // w.den) for c in w.num] for w in field.omegas]
    entries = {(i, j): m.gram[i][j] for i in range(m.rank)
               for j in range(i, m.rank) if not m.gram[i][j].is_zero}
    eden = math.lcm(1, *(x.den for x in entries.values()))
    size = m.rank * d
    gram = [[0] * size for _ in range(size)]
    for (i, j), x in entries.items():
        coeffs = [c * (eden // x.den) for c in x.num]
        hankel = [sum(c * s for c, s in zip(coeffs, sums[n:])) for n in range(2 * d - 1)]
        for k in range(d):
            row = [sum(basis[k][a] * hankel[a + b] for a in range(d)) for b in range(d)]
            for l in range(d):
                gram[i * d + k][j * d + l] = gram[j * d + l][i * d + k] = sum(
                    x * y for x, y in zip(row, basis[l]))
    return gram, den * den * eden


def trace_lattice(m: NumberFieldLattice) -> Lattice:
    """The Z-lattice tr_{F/Q}(omega_k omega_l (m_i, m_j)_M), lattice index
    outer and field basis index inner, so of rank d * rank_F.  Entries
    must come out integral (true whenever the Gram entries lie in the
    order spanned by the basis)."""
    gram, scale = _trace_gram(m, 0)
    if any(x % scale for row in gram for x in row):
        raise ValueError(
            "trace form is not integral; Gram entries must "
            "lie in the order spanned by the integral basis"
        )
    lat = Lattice(tuple(tuple(x // scale for x in row) for row in gram))
    if lat.det == 0:
        raise DegenerateTransfer("the form is degenerate at some real embedding")
    return lat


def signature_profile(m: NumberFieldLattice) -> SignatureProfile:
    """Per-embedding signatures (p_i, q_i), embeddings in ascending root
    order, from d integer trace forms.

    For c in F nonzero at every embedding, tr_{F/Q}(c M) has signature
    sum_i sign sigma_i(c) (p_i - q_i) (Scharlau, Quadratic and Hermitian
    Forms, on transfers).  T_1 = tr(M) is degenerate exactly when M is at
    some embedding.  For a rational r_k between roots k and k+1 (the
    midpoint of the gap between their isolating intervals), theta - r_k is
    positive at the embeddings above r_k and negative below, so
    sum_(i>k) (p_i - q_i) = (sig T_1 + sig T_(theta-r_k)) / 2, and
    p_i + q_i = rank.  Each signature is one linalg.inertia call, on
    den(r_k) T_theta - num(r_k) T_1 for the twisted forms; the positive
    common scale of the integer Grams leaves inertia unchanged.
    """
    one, _scale = _trace_gram(m, 0)
    pos, neg, zero = linalg.inertia(one)
    if zero:
        raise DegenerateTransfer("the form is degenerate at some real embedding")
    theta, _scale = _trace_gram(m, 1)
    roots = m.field.embeddings()
    tails = [pos - neg]  # tails[k] = sum over embeddings i >= k of p_i - q_i
    for (_lo, hi), (lo, _hi) in zip(roots, roots[1:]):
        r = (hi + lo) / 2
        twisted = [[r.denominator * x - r.numerator * y for x, y in zip(rt, r1)]
                   for rt, r1 in zip(theta, one)]
        p, q, _z = linalg.inertia(twisted)
        tails.append((pos - neg + p - q) // 2)
    tails.append(0)
    return tuple(Signature((m.rank + a - b) // 2, (m.rank - a + b) // 2)
                 for a, b in zip(tails, tails[1:]))


def _has_ks_shape(profile: SignatureProfile) -> bool:
    r = profile[0].pos + profile[0].neg
    head, rest = Signature(2, r - 2), Signature(0, r)
    return r >= 2 and profile.count(head) == 1 and profile.count(rest) == len(profile) - 1


def ks_shape(profile: SignatureProfile, total: Signature) -> bool:
    """Whether the profile is (2, r-2) at one embedding and (0, r) at the
    others, for rank r >= 2; the distinguished embedding may sit at any
    position.  total is the trace lattice signature.  Signatures add over
    the real embeddings, so total must be the sum of the profile, which is
    (2, d*r - 2) when the shape matches; anything else raises."""
    expected = Signature(sum(p.pos for p in profile), sum(p.neg for p in profile))
    if total != expected:
        raise AssertionError(f"trace signature {total} is not the profile sum {expected}")
    return _has_ks_shape(profile)


def ks_admissible(m: NumberFieldLattice) -> bool:
    """ks_shape of the signature profile of m.  The trace lattice is only
    built, to check its signature, when the profile has the shape."""
    if m.rank < 2:
        return False
    profile = signature_profile(m)
    return _has_ks_shape(profile) and ks_shape(profile, signature(trace_lattice(m)))


def feasibility_table() -> tuple[FeasibilityRow, ...]:
    """All (d, m) with d >= 2, m >= 0, 2 <= d(m+2) <= 21; N = d(m+2) - 2."""
    rows = []
    for d in itertools.count(2):
        if 2 * d > 21:
            break
        for m in itertools.count(0):
            total = d * (m + 2)
            if total > 21:
                break
            rows.append(FeasibilityRow(d, m, total - 2))
    return tuple(rows)


def feasibility_csv() -> str:
    lines = ["d,m,N"]
    lines.extend(f"{r.d},{r.m},{r.n}" for r in feasibility_table())
    return "\n".join(lines) + "\n"


Quaternion = tuple[FieldElement, FieldElement, FieldElement, FieldElement]


@dataclass(frozen=True)
class QuaternionAlgebra:
    """(a, b / F): i^2 = a, j^2 = b, ij = -ji = k, so k^2 = -ab, jk = -bi and
    ki = -aj, in the basis 1,i,j,k; a and b go through field._as_element."""

    field: TotallyRealField
    a: FieldElement
    b: FieldElement

    def __post_init__(self):
        for name in ("a", "b"):
            object.__setattr__(self, name, self.field._as_element(getattr(self, name)))
        if self.a.is_zero or self.b.is_zero:
            raise ValueError("quaternion parameters a, b must be nonzero")

    def element(self, coords: Sequence[FieldElement]) -> Quaternion:
        if len(coords) != 4:
            raise ValueError("a quaternion needs 4 components")
        return tuple(coords)

    def multiply(self, x: Quaternion, y: Quaternion) -> Quaternion:
        (x0, x1, x2, x3), (y0, y1, y2, y3), a, b = x, y, self.a, self.b
        return (x0 * y0 + a * (x1 * y1 - b * (x3 * y3)) + b * (x2 * y2),
                x0 * y1 + x1 * y0 + b * (x3 * y2 - x2 * y3),
                x0 * y2 + x2 * y0 + a * (x1 * y3 - x3 * y1),
                x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1)

    def conjugate(self, x: Quaternion) -> Quaternion:
        return (x[0], -x[1], -x[2], -x[3])

    def reduced_trace(self, x: Quaternion) -> FieldElement:
        return x[0] + x[0]

    def pairing(self, x: Quaternion, y: Quaternion) -> FieldElement:
        """(x, y) = tr_red(x * conj(y))."""
        return self.reduced_trace(self.multiply(x, self.conjugate(y)))


def quaternion_trace_zero(
    field: TotallyRealField,
    a,
    b,
    order_basis: Sequence[Sequence[Sequence]],
) -> NumberFieldLattice:
    """Trace-zero part of a quaternion order, with (x,y) = tr_red(x conj(y)).

    order_basis holds 4 quaternions e_s, each as 4 integral-basis coordinate
    vectors against 1, i, j, k.  The order is their O_F-span, with Z-basis
    z_(s d + k) = omega_k e_s; it must contain 1 and be closed under
    multiplication.  The rest is integer linear algebra on z-coordinates:
    a quaternion lies in the order exactly when its power coordinates
    times the inverse of the z rows are integers, the trace-zero module K
    is the integer kernel of the 1-component, and omega_k acts by the
    integer structure constants of the integral basis.  The O_F-span of
    three kernel vectors v lies in K, so it is all of K exactly when its
    3d generators omega_k v have the Gram determinant of the kernel basis
    (index 1).  The first such triple is returned as a free rank-3
    O_F-lattice (NotFreeModule when no triple of kernel vectors spans K).
    """
    alg = QuaternionAlgebra(field, a, b)
    d = field.degree
    basis = []
    for q in order_basis:
        if len(q) != 4:
            raise ValueError("each order basis element needs 4 coordinate vectors")
        basis.append(tuple(field.element(c) for c in q))
    if len(basis) != 4:
        raise NotAnOrder("an order basis must have 4 elements")
    # row s d + k: the power coordinates of omega_k e_s, component outer
    rows = [[c for comp in e for c in (w * comp).power] for e in basis for w in field.omegas]
    inv = linalg.inverse(rows)
    if inv is None:
        raise NotAnOrder("order basis does not span the algebra over F")
    den = math.lcm(*(x.denominator for row in inv for x in row))
    inv_cols = [[int(x * den) for x in col] for col in zip(*inv)]

    def in_order(q: Quaternion) -> bool:
        scale = math.lcm(*(x.den for x in q))
        flat = [c * (scale // x.den) for x in q for c in x.num]
        return all(sum(map(mul, flat, col)) % (scale * den) == 0 for col in inv_cols)

    if not in_order(alg.element([field.one(), field.zero(), field.zero(), field.zero()])):
        raise NotAnOrder("the order does not contain 1")
    if not all(in_order(alg.multiply(x, y)) for x in basis for y in basis):
        raise NotAnOrder("the order basis is not closed under multiplication")

    # tr_red(x) = 2 x_0, so trace zero means the first d columns of rows vanish
    trace_rows, _scales = linalg._integer_rows(list(zip(*rows))[:d])
    kernel = linalg.integer_kernel(trace_rows, cols=4 * d)
    if len(kernel) != 3 * d:
        raise NotFreeModule(
            f"trace-zero kernel has Z-rank {len(kernel)}, expected {3 * d}"
        )
    orbits = [[[sum(ck[l][m] * v[s * d + l] for l in range(d))
                for s in range(4) for m in range(d)] for ck in field._structure] for v in kernel]

    def gram_det(vs: Sequence[Sequence[int]]) -> Fraction:
        return linalg.det([[sum(map(mul, x, y)) for y in vs] for x in vs])

    full = gram_det(kernel)
    for triple in itertools.combinations(zip(kernel, orbits), 3):
        if gram_det([u for _v, orbit in triple for u in orbit]) == full:
            flats = linalg.mat_mul([v for v, _orbit in triple], rows)
            chosen = [tuple(field.from_power(f[t * d:(t + 1) * d]) for t in range(4))
                      for f in flats]
            gram = tuple(tuple(alg.pairing(x, y) for y in chosen) for x in chosen)
            return NumberFieldLattice(field, gram)
    raise NotFreeModule(
        "the trace-zero module admits no free O_F-basis among kernel generators"
    )
