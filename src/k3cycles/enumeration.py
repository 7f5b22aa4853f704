"""Exact lattice point enumeration for positive definite Gram matrices.

The engine is one integer Fincke-Pohst recursion.  The integer pivot
rows of linalg's symmetric pass give, once per call, rows a_ij and
weights W_i of the LDL split K Q(x) = sum_i W_i (a_i . x)^2, and
coordinates are scaled by the denominator D of the coset shift, so every
norm is an integer N = K D^2 Q(x).  Coordinates are chosen from the last
to the first, each level's window is an exact math.isqrt, and no floating
point or Fraction arithmetic happens inside the recursion.  The recursion
either scans Q(x) <= bound or, in exact mode, visits only Q(x) = target,
solving W_0 y^2 = remainder at the last level instead of scanning it.
Every node visited spends one unit of the K3CYCLES_ENUM_LIMIT budget.
Coset shifts are allowed, so norms and targets may be non-integral
rationals; Fraction appears only when converting at the public edge.

On a trivial coset the recursion visits each +-pair once, with weight 2,
and the zero vector once; it reads this off the coset itself, so callers
that need both vectors expand the pair.

Tuple counts (genus r) go through one routine for single targets and
Siegel tables alike: each coset's slots get their norm shells from one
sweep (exact for a single norm, otherwise a bound scan grouped by norm),
scaled to integer vectors X with G X precomputed; a backtracking search
then keeps a candidate for a later slot only if its integer dot product
with every chosen G X matches the target, so no partial tuple needs
linear algebra.
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
    """The node budget: 10^7 if K3CYCLES_ENUM_LIMIT is unset or empty, else its
    value, which must be a positive integer (ValueError otherwise)."""
    raw = os.environ.get(ENUM_LIMIT_ENV, "")
    if not raw:
        return _DEFAULT_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit <= 0:
        raise ValueError(f"{ENUM_LIMIT_ENV} must be a positive integer, got {raw!r}")
    return limit


def _integer_form(gram) -> tuple[list[list[int]], list[int], int]:
    """Integer data (a, W, K) of the LDL split, with
    K Q(x) = sum_i W_i (sum_{j>=i} a_ij x_j)^2.

    Row i of linalg's symmetric pass is M_i / s_i with d_i = M_ii / s_i;
    a_i is M_i from column i on, divided by its content g_i, so
    W_i = K g_i^2 / (s_i M_ii), and K is the lcm of the denominators of
    g_i^2 / (s_i M_ii).  Raises IndefiniteLattice unless Q > 0.
    """
    m, s = linalg._symmetric_pass(gram)
    n = len(m)
    if any(m[i][i] <= 0 for i in range(n)):
        raise IndefiniteLattice("Gram matrix is not positive definite")
    rows, ratios = [], []
    for i, (row, si) in enumerate(zip(m, s)):
        g = math.gcd(*row[i:])
        rows.append([0] * i + [x // g for x in row[i:]])
        num, den = g * g, si * row[i]
        h = math.gcd(num, den)
        ratios.append((num // h, den // h))
    k = math.lcm(1, *(den for _num, den in ratios))
    return rows, [k // den * num for num, den in ratios], k


def _denominator(shift: Sequence[Fraction]) -> int:
    return math.lcm(1, *(x.denominator for x in shift))


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
    form,
    shift: Sequence[Fraction],
    bound: Fraction,
    visit: Callable[[list[int], int, int], None],
    budget: Optional[_Budget] = None,
    exact: bool = False,
) -> int:
    """Call visit(X, N, weight) for x in Z^n + shift with Q(x) <= bound
    (Q(x) == bound if exact), where X = D x is integral for the denominator
    D of shift and N = K D^2 Q(x) is the integer norm; return K D^2.

    Every window is an exact isqrt; in exact mode the last level solves
    W_0 y^2 = left instead of scanning.  Each node spends one unit of the
    budget.  On the trivial coset each x is visited once per +-pair with
    weight 2, and the zero vector with weight 1.
    """
    rows, weights, k = form
    n = len(weights)
    symmetric = not any(shift)
    den = _denominator(shift)
    unit = k * den * den
    cap = bound * unit
    if cap < 0 or (exact and cap.denominator != 1):
        return unit
    top = cap.__floor__()
    lift = [int(h * den) for h in shift]
    if budget is None:
        budget = _Budget(_enum_limit())
    xs = [0] * n

    def rec(i: int, left: int, zero_prefix: bool):
        budget.spend()
        if i < 0:
            if not (exact and left):
                visit(xs, top - left, 2 if (symmetric and not zero_prefix) else 1)
            return
        row, w, h = rows[i], weights[i], lift[i]
        # y = e_i X_i + sum_{j>i} a_ij X_j = step * m + b for X_i = h + den * m
        step = row[i] * den
        b = row[i] * h + sum(map(mul, row[i + 1:], xs[i + 1:]))
        if exact and i == 0:
            q, rest = divmod(left, w)
            r = math.isqrt(q)
            roots = () if rest or r * r != q else (-r, r) if r else (0,)
            ms = [(y - b) // step for y in roots if (y - b) % step == 0]
        else:
            r = math.isqrt(left // w)
            ms = range(-((r + b) // step), (r - b) // step + 1)
        for m in ms:
            if symmetric and zero_prefix and m < 0:
                continue
            y = step * m + b
            xs[i] = h + den * m
            rec(i - 1, left - w * y * y, zero_prefix and xs[i] == 0)

    rec(n - 1, top, True)
    return unit


def _normalized_shift(lat: Lattice, h: Optional[Sequence]) -> list[Fraction]:
    if h is None:
        return [Fraction(0)] * lat.rank
    hv = as_vector(h)
    if len(hv) != lat.rank:
        raise ValueError("coset vector length does not match lattice rank")
    return [x - x.__floor__() for x in hv]


def _signed(xs: Sequence[int], w: int, scale: int = 1) -> list[list[int]]:
    """scale * xs, with its negative when a symmetric sweep visited the
    +-pair once (w == 2)."""
    x = [v * scale for v in xs]
    return [x, [-v for v in x]] if w == 2 else [x]


def enumerate_vectors(lat: Lattice, t, h: Optional[Sequence] = None) -> list[Vector]:
    """All x in L + h with (x, x) = t, in lexicographic coordinate order."""
    t = Fraction(t)
    shift = _normalized_shift(lat, h)
    out: list[tuple[int, ...]] = []
    _sweep(_integer_form(lat.gram), shift, t,
           lambda xs, _n, w: out.extend(map(tuple, _signed(xs, w))), exact=True)
    out.sort()
    den = _denominator(shift)
    return [tuple(Fraction(v, den) for v in xs) for xs in out]


def rep_count(lat: Lattice, t, h: Optional[Sequence] = None) -> int:
    """Number of x in L + h with (x, x) = t; zero for negative t."""
    t = Fraction(t)
    shift = _normalized_shift(lat, h)
    total = 0

    def visit(_xs, _n, w):
        nonlocal total
        total += w

    _sweep(_integer_form(lat.gram), shift, t, visit, exact=True)
    return total


def norm_histogram(lat: Lattice, h: Optional[Sequence], bound) -> dict[Fraction, int]:
    """Counts of every norm value <= bound in L + h, keyed exactly."""
    bound = Fraction(bound)
    shift = _normalized_shift(lat, h)
    counts: dict[int, int] = {}

    def visit(_xs, norm, w):
        counts[norm] = counts.get(norm, 0) + w

    unit = _sweep(_integer_form(lat.gram), shift, bound, visit)
    return {Fraction(norm, unit): c for norm, c in counts.items()}


def _shell(gram, vectors: list[list[int]]) -> list[tuple[list[int], list[int]]]:
    """Pair every integer vector X with its image G X."""
    return [(x, [sum(map(mul, row, x)) for row in gram]) for x in vectors]


def _tuple_search(rows, shells: Sequence[list], budget: _Budget) -> int:
    """Number of tuples (x_1..x_r), x_k from shells[k], with Gram rows / s^2.

    Shell entries are (X, G X) with X = s*x integral for one common scale
    s, and rows = s^2 T is integral, so (x_i, x_k) = T_ik iff
    X_k . (G X_i) = rows[i][k].  Each chosen vector filters the candidates
    of every later slot by that integer dot product; the last slot is
    counted, not visited.  Every candidate check spends one unit of the
    budget.
    """
    def rec(k: int, cands: list[list]) -> int:
        if len(cands) <= 1:
            return len(cands[0]) if cands else 1
        rest = cands[1:]
        wants = rows[k][k + 1:]
        total = 0
        for _x, gx in cands[0]:
            budget.spend(sum(map(len, rest)))
            kept = [[e for e in c if sum(map(mul, e[0], gx)) == w]
                    for c, w in zip(rest, wants)]
            if all(kept):
                total += rec(k + 1, kept)
        return total

    return rec(0, list(shells))


def _tuple_counts(lat: Lattice, targets: Sequence, shifts: Sequence[list[Fraction]]) -> list[int]:
    """Tuple counts in the slot cosets L + shifts[k] for integer targets
    s^2 T, s the common denominator of the shifts.

    Each distinct coset is swept once for the norms its slots need: an
    exact sweep for a single norm, else one bound scan to the largest,
    grouped by integer norm.  One budget covers the sweeps and searches.
    """
    form = _integer_form(lat.gram)
    scale = math.lcm(1, *map(_denominator, shifts))
    keys = [tuple(h) for h in shifts]
    budget = _Budget(_enum_limit())
    shells: dict[tuple, list] = {}
    for h in dict.fromkeys(keys):
        norms = {t[k][k] for t in targets for k, hk in enumerate(keys) if hk == h}
        factor = scale // _denominator(h)
        # slot norm t / s^2 is the sweep's integer norm K D^2 t / s^2
        sq = factor * factor
        wanted = {t * form[2] // sq: t for t in norms if t * form[2] % sq == 0}
        found: dict[int, list[list[int]]] = {t: [] for t in norms}

        def visit(xs, n, w):
            if n in wanted:
                found[wanted[n]].extend(_signed(xs, w, factor))

        _sweep(form, h, Fraction(max(norms), scale * scale), visit, budget,
               exact=len(norms) == 1)
        for t, vs in found.items():
            shells[h, t] = _shell(lat.gram, vs)
    return [_tuple_search(t, [shells[h, t[k][k]] for k, h in enumerate(keys)], budget)
            for t in targets]


def tuple_rep_count(lat: Lattice, target, cosets: Optional[Sequence] = None) -> int:
    """Number of r-tuples in the prescribed cosets with Gram matrix = target.

    With s the common denominator of the cosets, the count is 0 unless
    every s^2 T_ik is an integer; otherwise it comes from _tuple_counts.
    """
    rows = [[Fraction(x) for x in row] for row in target]
    r = len(rows)
    if not linalg.is_symmetric(rows):
        raise ValueError("Gram target must be square" if any(len(row) != r for row in rows)
                         else "Gram target must be symmetric")
    if any(rows[i][i] < 0 for i in range(r)):
        raise NegativeTarget("Gram target has a negative diagonal entry")
    if linalg.inertia(rows)[1]:
        return 0
    if cosets is None:
        shifts = [[Fraction(0)] * lat.rank for _ in range(r)]
    elif len(cosets) != r:
        raise ValueError("need one coset vector per tuple slot")
    else:
        shifts = [_normalized_shift(lat, h) for h in cosets]
    scale = math.lcm(1, *map(_denominator, shifts))
    scaled = [[x * scale * scale for x in row] for row in rows]
    if any(x.denominator != 1 for row in scaled for x in row):
        return 0
    return _tuple_counts(lat, [[[x.numerator for x in row] for row in scaled]], shifts)[0]
