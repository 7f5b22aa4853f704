"""Exact lattice point enumeration for positive definite Gram matrices.

The engine is a rational Fincke-Pohst recursion: the form is split as
Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2 by an exact LDL
decomposition, coordinates are chosen from the last to the first, and the
admissible integer window at each level is derived from exact rational
square-root floors, never from floating point.  Coset shifts are allowed,
so norms and targets may be non-integral rationals.

Counting paths exploit the x -> -x symmetry when the coset is trivial.

Tuple counts (genus r) enumerate each slot's norm shell once, scale it to
integer vectors X and precompute G X; a backtracking search then keeps a
candidate for a later slot only if its integer dot product with every
chosen G X matches the target, so no partial tuple needs linear algebra.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from operator import mul
from typing import Callable, Optional, Sequence

from . import linalg
from .errors import (
    EnumerationLimitExceeded,
    IndefiniteLattice,
    NegativeTarget,
)
from .lattice import Lattice, Vector, as_vector

ENUM_LIMIT_ENV = "K3CYCLES_ENUM_LIMIT"
_DEFAULT_LIMIT = 10_000_000


def _enum_limit() -> int:
    raw = os.environ.get(ENUM_LIMIT_ENV, "")
    try:
        v = int(raw)
    except ValueError:
        return _DEFAULT_LIMIT
    return v if v > 0 else _DEFAULT_LIMIT


def _ldl(gram) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Split Q(x) = sum d_i (x_i + sum_{j>i} u_ij x_j)^2; needs Q > 0."""
    m, _ = linalg._symmetric_pass(gram)
    n = len(m)
    d = [m[i][i] for i in range(n)]
    if any(x <= 0 for x in d):
        raise IndefiniteLattice("Gram matrix is not positive definite")
    u = [[Fraction(0)] * (i + 1) + [m[i][j] / d[i] for j in range(i + 1, n)]
         for i in range(n)]
    return d, u


def _sqrt_floor(q: Fraction) -> int:
    return math.isqrt(q.numerator * q.denominator) // q.denominator


def _floor_plus_sqrt(beta: Fraction, rad: Fraction) -> int:
    """floor(beta + sqrt(rad)), exact."""
    s = beta.__floor__() + _sqrt_floor(rad)
    for m in (s + 1, s):
        diff = m - beta
        if diff <= 0 or diff * diff <= rad:
            return m
    return s  # s always qualifies; kept for clarity


def _ceil_minus_sqrt(beta: Fraction, rad: Fraction) -> int:
    """ceil(beta - sqrt(rad)), exact."""
    t = beta.__ceil__() - _sqrt_floor(rad) - 1
    for m in (t, t + 1):
        diff = beta - m
        if diff <= 0 or diff * diff <= rad:
            return m
    return t + 1


def _window(alpha: Fraction, rad: Fraction) -> tuple[int, int]:
    """Integers m with (m + alpha)^2 <= rad, as an inclusive range."""
    if rad < 0:
        return 1, 0
    beta = -alpha
    return _ceil_minus_sqrt(beta, rad), _floor_plus_sqrt(beta, rad)


def _frac_part(v: Sequence[Fraction]) -> list[Fraction]:
    return [x - x.__floor__() for x in v]


def _sqrt_exact(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self, k: int = 1):
        self.left -= k
        if self.left < 0:
            raise EnumerationLimitExceeded(
                f"enumeration exceeded the {ENUM_LIMIT_ENV} budget")


def _sweep(
    gram,
    shift: Sequence[Fraction],
    bound: Fraction,
    visit: Callable[[list[Fraction], Fraction, int], None],
    symmetric: bool,
    budget: Optional[_Budget] = None,
) -> None:
    """Call visit(coords, norm, weight) for x in Z^n + shift, Q(x) <= bound.

    With symmetric=True (only valid for a trivial coset) each x is visited
    once per +-pair with weight 2, and the zero vector with weight 1.
    """
    n = len(gram)
    if n == 0:
        if bound >= 0:
            visit([], Fraction(0), 1)
        return
    d, u = _ldl(gram)
    shift = [Fraction(s) for s in shift]
    if budget is None:
        budget = _Budget(_enum_limit())
    xs: list[Fraction] = [Fraction(0)] * n

    def rec(i: int, used: Fraction, zero_prefix: bool):
        if i < 0:
            budget.spend()
            visit(xs, used, 2 if (symmetric and not zero_prefix) else 1)
            return
        c = Fraction(0)
        ui = u[i]
        for j in range(i + 1, n):
            if ui[j] != 0 and xs[j] != 0:
                c += ui[j] * xs[j]
        alpha = shift[i] + c
        lo, hi = _window(alpha, (bound - used) / d[i])
        if symmetric and zero_prefix and lo < 0:
            lo = 0
        for m in range(lo, hi + 1):
            x = m + shift[i]
            xs[i] = x
            term = d[i] * (x + c) * (x + c)
            rec(i - 1, used + term, zero_prefix and x == 0)
        xs[i] = Fraction(0)

    rec(n - 1, Fraction(0), True)


def _sweep_eq(
    gram,
    shift: Sequence[Fraction],
    target: Fraction,
    visit: Callable[[list[Fraction], int], None],
    symmetric: bool,
    budget: Optional[_Budget] = None,
) -> None:
    """Like _sweep but with Q(x) = target exactly; the innermost level is
    solved as a quadratic equation instead of scanned."""
    n = len(gram)
    if n == 0:
        if target == 0:
            visit([], 1)
        return
    if target < 0:
        return
    d, u = _ldl(gram)
    shift = [Fraction(s) for s in shift]
    if budget is None:
        budget = _Budget(_enum_limit())
    xs: list[Fraction] = [Fraction(0)] * n

    def base(c: Fraction, remaining: Fraction, zero_prefix: bool):
        # d0 (x0 + c)^2 = remaining with x0 in Z + shift0
        root = _sqrt_exact(remaining / d[0])
        if root is None:
            return
        vals = (root,) if root == 0 else (root, -root)
        for r in vals:
            x = r - c
            if (x - shift[0]).denominator != 1:
                continue
            if symmetric and zero_prefix and x < 0:
                continue
            budget.spend()
            xs[0] = x
            visit(xs, 2 if (symmetric and not (zero_prefix and x == 0)) else 1)
        xs[0] = Fraction(0)

    def rec(i: int, used: Fraction, zero_prefix: bool):
        c = Fraction(0)
        ui = u[i]
        for j in range(i + 1, n):
            if ui[j] != 0 and xs[j] != 0:
                c += ui[j] * xs[j]
        if i == 0:
            base(c, target - used, zero_prefix)
            return
        alpha = shift[i] + c
        lo, hi = _window(alpha, (target - used) / d[i])
        if symmetric and zero_prefix and lo < 0:
            lo = 0
        for m in range(lo, hi + 1):
            x = m + shift[i]
            xs[i] = x
            term = d[i] * (x + c) * (x + c)
            rec(i - 1, used + term, zero_prefix and x == 0)
        xs[i] = Fraction(0)

    rec(n - 1, Fraction(0), True)


def _normalized_shift(lat: Lattice, h: Optional[Sequence]) -> list[Fraction]:
    if h is None:
        return [Fraction(0)] * lat.rank
    hv = as_vector(h)
    if len(hv) != lat.rank:
        raise ValueError("coset vector length does not match lattice rank")
    return _frac_part(hv)


def _check_posdef(lat: Lattice) -> None:
    _ldl(lat.gram)


def enumerate_vectors(lat: Lattice, t, h: Optional[Sequence] = None) -> list[Vector]:
    """All x in L + h with (x, x) = t, in lexicographic coordinate order."""
    t = Fraction(t)
    shift = _normalized_shift(lat, h)
    _check_posdef(lat)
    if t < 0:
        return []
    out: list[Vector] = []
    _sweep_eq(lat.gram, shift, t, lambda xs, w: out.append(tuple(xs)), False)
    out.sort()
    return out


def rep_count(lat: Lattice, t, h: Optional[Sequence] = None) -> int:
    """Number of x in L + h with (x, x) = t; zero for negative t."""
    t = Fraction(t)
    shift = _normalized_shift(lat, h)
    _check_posdef(lat)
    if t < 0:
        return 0
    symmetric = all(s == 0 for s in shift)
    total = 0

    def visit(_xs, w):
        nonlocal total
        total += w

    _sweep_eq(lat.gram, shift, t, visit, symmetric)
    return total


def norm_histogram(lat: Lattice, h: Optional[Sequence], bound) -> dict[Fraction, int]:
    """Counts of every norm value <= bound in L + h, keyed exactly."""
    bound = Fraction(bound)
    shift = _normalized_shift(lat, h)
    _check_posdef(lat)
    symmetric = all(s == 0 for s in shift)
    counts: dict[Fraction, int] = {}

    def visit(_xs, norm, w):
        counts[norm] = counts.get(norm, 0) + w

    _sweep(lat.gram, shift, bound, visit, symmetric)
    return counts


def _validate_target(target) -> tuple[tuple[int, ...], ...]:
    rows = tuple(tuple(int(x) for x in row) for row in target)
    r = len(rows)
    for row in rows:
        if len(row) != r:
            raise ValueError("Gram target must be square")
    for i in range(r):
        for j in range(r):
            if rows[i][j] != rows[j][i]:
                raise ValueError("Gram target must be symmetric")
    for i in range(r):
        if rows[i][i] < 0:
            raise NegativeTarget("Gram target has a negative diagonal entry")
    return rows


def _target_is_psd(rows) -> bool:
    _p, q, _z = linalg.inertia(rows)
    return q == 0


def _tuple_cosets(lat: Lattice, r: int, cosets: Optional[Sequence]) -> list[list[Fraction]]:
    if cosets is None:
        return [[Fraction(0)] * lat.rank for _ in range(r)]
    if len(cosets) != r:
        raise ValueError("need one coset vector per tuple slot")
    return [_normalized_shift(lat, h) for h in cosets]


def _signed(xs: Sequence[Fraction], w: int, scale: int = 1) -> list[list[int]]:
    """scale * xs as integers, with its negative when a symmetric sweep
    visited the +-pair once (w == 2)."""
    x = [int(v * scale) for v in xs]
    return [x, [-v for v in x]] if w == 2 else [x]


def _shell(gram, vectors: list[list[int]]) -> list[tuple[list[int], list[int]]]:
    """Pair every integer vector X with its image G X."""
    return [(x, [sum(map(mul, row, x)) for row in gram]) for x in vectors]


def _tuple_search(rows, shells: Sequence[list], unit: int, budget: _Budget) -> int:
    """Number of tuples (x_1..x_r), x_k from shells[k], with Gram matrix rows.

    Shell entries are (X, G X) with X = s*x integral for one common scale
    s, and unit = s^2, so (x_i, x_k) = T_ik iff X_k . (G X_i) = T_ik * unit.
    Each chosen vector filters the candidates of every later slot by that
    integer dot product; the last slot is counted, not visited.  Every
    candidate check spends one unit of the budget.
    """
    r = len(rows)

    def rec(k: int, cands: list[list]) -> int:
        if len(cands) <= 1:
            return len(cands[0]) if cands else 1
        rest = cands[1:]
        wants = [rows[k][j] * unit for j in range(k + 1, r)]
        total = 0
        for _x, gx in cands[0]:
            budget.spend(sum(map(len, rest)))
            kept = [[e for e in c if sum(map(mul, e[0], gx)) == w]
                    for c, w in zip(rest, wants)]
            if all(kept):
                total += rec(k + 1, kept)
        return total

    return rec(0, list(shells))


def tuple_rep_count(lat: Lattice, target, cosets: Optional[Sequence] = None) -> int:
    """Number of r-tuples in the prescribed cosets with Gram matrix = target.

    Each slot's shell {x in L + h_k : Q(x) = T_kk} is enumerated once
    (slots with the same norm and coset share it) and filtered by
    _tuple_search.
    """
    rows = _validate_target(target)
    if not _target_is_psd(rows):
        return 0
    _check_posdef(lat)
    shifts = _tuple_cosets(lat, len(rows), cosets)
    scale = math.lcm(1, *(x.denominator for h in shifts for x in h))
    budget = _Budget(_enum_limit())
    shells: dict[tuple, list] = {}
    keys = [(rows[k][k], tuple(h)) for k, h in enumerate(shifts)]
    for t, h in keys:
        if (t, h) not in shells:
            found: list[list[int]] = []
            _sweep_eq(lat.gram, h, Fraction(t),
                      lambda xs, w: found.extend(_signed(xs, w, scale)),
                      not any(h), budget)
            shells[t, h] = _shell(lat.gram, found)
    return _tuple_search(rows, [shells[key] for key in keys], scale * scale, budget)


def _zero_coset_tuple_counts(lat: Lattice, targets: Sequence, bound: int) -> list[int]:
    """tuple_rep_count(lat, T) for validated targets T with diagonal <= bound,
    from one bound scan whose vectors are grouped into shells by norm."""
    budget = _Budget(_enum_limit())
    by_norm: dict[Fraction, list[list[int]]] = {}
    _sweep(lat.gram, [Fraction(0)] * lat.rank, Fraction(bound),
           lambda xs, norm, w: by_norm.setdefault(norm, []).extend(_signed(xs, w)),
           True, budget)
    shells = {t: _shell(lat.gram, vs) for t, vs in by_norm.items()}
    return [_tuple_search(t, [shells.get(t[k][k], []) for k in range(len(t))], 1, budget)
            for t in targets]
