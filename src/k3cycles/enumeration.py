"""Exact lattice point enumeration for positive definite Gram matrices.

The engine is one integer Fincke-Pohst sweep.  The integer pivot rows of
linalg's symmetric pass give, once per call, rows a_ij and weights W_i of
the LDL split K Q(x) = sum_i W_i (a_i . x)^2, and coordinates are scaled
by the denominator D of the coset shift, so every norm is an integer
N = K D^2 Q(x).  Coordinates are chosen from the last to the first, each
level's window is an exact math.isqrt, and no floating point or Fraction
arithmetic happens inside the sweep.  It either scans Q(x) <= bound or,
in exact mode, visits only Q(x) = target, solving W_0 y^2 = remainder at
the last level instead of scanning it.

A node's subtree depends only on the norm left to spend and on the
linear terms of the levels below it, each taken modulo its level's step
(a shift by the step re-indexes that level), so the sweep is one
recursion over batches of these reduced states, equal ones merged into a
multiplicity: the children of a batch wait, reduced, in the next one.
Once a batch holds MERGE_STATE_CAP states, and whenever vectors are kept,
the same recursion goes on with merging off, each state's children a
batch of their own and, when vectors are kept, each state carrying its
chosen coordinates.  The last level is a loop that fills the result, a
histogram of the integer norms plus the vectors of the norms the caller
asked to keep.  The K3CYCLES_ENUM_LIMIT budget is charged one unit per
node of the unmerged tree, a merged state paying its multiplicity, so a
charge can far exceed the work done.  Coset shifts are allowed, so norms
and targets may be non-integral rationals; Fraction appears only when
converting at the public edge.

On a trivial coset the sweep visits each +-pair once and counts it
twice (kept shells get both vectors), and the zero vector once; it reads
this off the coset itself.

Tuple counts (genus r) go through one routine for single targets and
Siegel tables alike: each coset's slots get their norm shells from one
sweep (exact for a single norm, otherwise a bound scan grouped by norm),
scaled to integer vectors X.  Each shell is packed once into lanes, one
per vector: for each coordinate j, one big integer holds (G X)_j of every
vector at its lane's offset.  By Cauchy-Schwarz no dot product a search
meets exceeds the largest slot norm N of the call in absolute value, so
lanes of 8 ceil((bitlen(2N + 1) + 1) / 8) bits hold it biased to a
nonnegative value with the top bit free.  A chosen vector then filters a
whole later shell with one big-integer expression: its coordinates times
the packs give every candidate's dot product in its lane, and an exact
SWAR zero-lane test against the biased target marks the lanes that
match.  Candidate sets are these lane masks, ANDed level by level, and
the last slot is counted by popcount, so no partial tuple needs linear
algebra and no candidate is visited on its own.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from fractions import Fraction
from itertools import compress
from operator import mul

from . import linalg
from .errors import (
    EnumerationLimitExceeded,
    IndefiniteLattice,
    NegativeTarget,
)
from .lattice import Lattice, Vector, as_vector

ENUM_LIMIT_ENV = "K3CYCLES_ENUM_LIMIT"
_DEFAULT_LIMIT = 10_000_000
MERGE_STATE_CAP = 1 << 10  # states in one merged batch


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
    budget: _Budget | None = None,
    exact: bool = False,
    keep: Sequence[int] = (),
) -> tuple[int, dict[int, int], dict[int, list[list[int]]]]:
    """Sweep x in Z^n + shift with Q(x) <= bound (Q(x) == bound if exact)
    and return (K D^2, hist, kept) for the denominator D of shift: hist
    maps each integer norm N = K D^2 Q(x) to its number of vectors, and
    kept maps each N in keep to its integral vectors X = D x.

    With X_i = h_i + D m_i, level i scans y_i = step_i m_i + b_i for
    step_i = a_ii D and b_i = a_ii h_i + sum_{j>i} a_ij X_j.  A subtree
    depends only on the norm left and b_0..b_i, and replacing b_i by
    b_i - q step_i and each b_j, j < i, by b_j - q a_ji D only re-indexes
    m_i by q.  walk(i, states, merge) expands a batch of states
    (left, b_0..b_i, zero, chosen X) -> multiplicity at level i; each
    state charges the budget its children times its multiplicity.  With
    merge on, every child waits in the next batch, its terms reduced
    into [0, step_j) from the top down so that equal subtrees merge; once
    that batch holds MERGE_STATE_CAP states, it and the rest of the level
    are walked at once with merge off, each state's children as a batch
    of their own.  A sweep that keeps vectors walks with merge off from
    the root, each state carrying its chosen coordinates.  Level 0 is a
    plain loop, never merged, that adds a pair times the multiplicity to
    hist.  Every window is an exact isqrt; in exact mode level 0 solves
    W_0 y^2 = left instead of scanning.

    On the trivial coset each +-pair is visited once and counted twice
    (kept gets both vectors), and the zero vector once: the all-zero
    prefix is a state of its own, never reduced, that keeps m >= 0.
    """
    rows, weights, k = form
    n = len(weights)
    symmetric = not any(shift)
    den = _denominator(shift)
    unit = k * den * den
    cap = bound * unit
    hist: dict[int, int] = {}
    kept: dict[int, list[list[int]]] = {t: [] for t in keep}
    if cap < 0 or (exact and cap.denominator != 1):
        return unit, hist, kept
    top = cap.__floor__()
    lift = [int(h * den) for h in shift]
    if budget is None:
        budget = _Budget(_enum_limit())
    budget.spend()
    pair = 2 if symmetric else 1
    steps = [row[i] * den for i, row in enumerate(rows)]
    cols = [[row[i] for row in rows[:i]] for i in range(n)]

    def walk(i: int, states, merge: bool):
        # y = step * m + b for X_i = h + den * m
        w, step, h, col = weights[i], steps[i], lift[i], cols[i]
        batch: dict = {}
        for (left, bs, zero, xs), mult in states:
            b = bs[i]
            if exact and not i:
                q, rest = divmod(left, w)
                r = math.isqrt(q)
                roots = () if rest or r * r != q else (-r, r) if r else (0,)
                ms = [(y - b) // step for y in roots
                      if (y - b) % step == 0 and (y >= b or not zero)]
            else:
                r = math.isqrt(left // w)
                lo = -((r + b) // step)
                ms = range(max(lo, 0) if zero else lo, (r - b) // step + 1)
            if not ms:
                continue
            budget.spend(len(ms) * mult)
            if not i:
                spent, add = top - left, pair * mult
                for m in ms:
                    y = step * m + b
                    t = spent + w * y * y
                    hist[t] = hist.get(t, 0) + add
                    if t in kept:
                        x = [h + den * m, *xs]
                        kept[t] += [x, [-v for v in x]] if symmetric and t else [x]
                continue
            kids = []
            for m in ms:
                x, y = h + den * m, step * m + b
                terms = [v + a * x for v, a in zip(bs, col)]
                if not merge:
                    kids.append(((left - w * y * y, terms, zero and not x,
                                  (x, *xs) if keep else ()), mult))
                    continue
                for j in range(i - 1, -1, -1):  # reduced, so that equal subtrees share a key
                    q = terms[j] // steps[j]
                    if q:
                        terms[:j + 1] = [v - q * den * r[j] for v, r in zip(terms, rows[:j + 1])]
                key = (left - w * y * y, tuple(terms), zero and not x, ())
                batch[key] = batch.get(key, 0) + mult
            if not merge:
                walk(i - 1, kids, False)
            elif len(batch) >= MERGE_STATE_CAP:
                walk(i - 1, batch.items(), False)
                batch, merge = {}, False
        if batch:
            walk(i - 1, batch.items(), i > 2)

    if n:
        base = [row[i] * h for i, (row, h) in enumerate(zip(rows, lift))]
        walk(n - 1, [((top, base, symmetric, ()), 1)], n > 2 and not keep)
    elif not (exact and top):
        hist[0] = 1
        kept.get(0, []).append([])
    if symmetric and 0 in hist:  # the zero vector, counted as a pair
        hist[0] = 1
    return unit, hist, kept


def _normalized_shift(lat: Lattice, h: Sequence | None) -> list[Fraction]:
    if h is None:
        return [Fraction(0)] * lat.rank
    hv = as_vector(h)
    if len(hv) != lat.rank:
        raise ValueError("coset vector length does not match lattice rank")
    return [x - x.__floor__() for x in hv]


def enumerate_vectors(lat: Lattice, t, h: Sequence | None = None) -> list[Vector]:
    """All x in L + h with (x, x) = t, in lexicographic coordinate order."""
    t = Fraction(t)
    shift = _normalized_shift(lat, h)
    form = _integer_form(lat.gram)
    den = _denominator(shift)
    norm = t * form[2] * den * den
    keep = (norm.numerator,) if norm.denominator == 1 else ()
    _unit, _hist, kept = _sweep(form, shift, t, exact=True, keep=keep)
    out = sorted(tuple(xs) for vs in kept.values() for xs in vs)
    return [tuple(Fraction(v, den) for v in xs) for xs in out]


def rep_count(lat: Lattice, t, h: Sequence | None = None) -> int:
    """Number of x in L + h with (x, x) = t; zero for negative t."""
    t = Fraction(t)
    _unit, hist, _kept = _sweep(_integer_form(lat.gram), _normalized_shift(lat, h), t, exact=True)
    return sum(hist.values())


def norm_histogram(lat: Lattice, h: Sequence | None, bound) -> dict[Fraction, int]:
    """Counts of every norm value <= bound in L + h, keyed exactly."""
    return _norm_histograms(lat, [_normalized_shift(lat, h)], bound)[0]


def _norm_histograms(lat: Lattice, shifts: Sequence, bound) -> list[dict[Fraction, int]]:
    """norm_histogram of each coset L + h for the reduced shifts h, from one
    integer form under one budget."""
    bound = Fraction(bound)
    form = _integer_form(lat.gram)
    budget = _Budget(_enum_limit())
    out = []
    for h in shifts:
        unit, hist, _kept = _sweep(form, h, bound, budget)
        out.append({Fraction(norm, unit): c for norm, c in hist.items()})
    return out


def _lane_width(bound: int) -> int:
    """Bits per lane for dot products of absolute value at most bound: the
    biased lanes and the zero-lane test need 2 bound + 1 plus one spare top
    bit, rounded up to whole bytes so that a mask reads as bytes."""
    return 8 * -(-((2 * bound + 1).bit_length() + 1) // 8)


def _pack(values: Sequence[int], width: int) -> int:
    """sum_c values[c] 2^(c width), by pairwise halving (near-linear)."""
    vals, shift = list(values), width
    while len(vals) > 1:
        if len(vals) % 2:
            vals.append(0)
        vals = [a + (b << shift) for a, b in zip(vals[::2], vals[1::2])]
        shift *= 2
    return vals[0] if vals else 0


def _shell(gram, vectors: list[list[int]], width: int) -> tuple[list, list[int], int]:
    """A shell of integer vectors X_c packed into lanes of `width` bits:
    (vectors, packs, ones), where packs[j] = sum_c (G X_c)_j 2^(c width),
    formed from the packed coordinates with no product per vector, and
    ones has a 1 in every lane."""
    cols = [_pack(col, width) for col in zip(*vectors)]
    packs = [sum(map(mul, row, cols)) for row in gram]
    ones = ((1 << len(vectors) * width) - 1) // ((1 << width) - 1)
    return vectors, packs, ones


def _tuple_search(rows, shells: Sequence[tuple], width: int, budget: _Budget) -> int:
    """Number of tuples (x_1..x_r), x_k from shells[k], with Gram rows / s^2.

    Shells come from _shell: X = s*x integral for one common scale s, and
    rows = s^2 T is integral, so (x_i, x_k) = T_ik iff
    X_i . (G X_k) = rows[i][k].  For a chosen X_i, sum_j X_ij packs[j]
    holds X_i . G X_c in lane c of slot k's shell, for every candidate c
    at once.  By Cauchy-Schwarz each such dot has absolute value at most
    the largest slot norm N <= 2^(width-2) - 1, so biased by
    B = 2^(width-2) every lane lies in [1, 2B - 1] with its top bit free,
    and one exact SWAR zero-lane test against rows[i][k] + B marks the
    lanes that match.  Candidate sets are masks of lane top bits: each
    level ANDs in the chosen vector's masks, and the last slot is counted
    by popcount.  The last two slots are symmetric, so the smaller side is
    the one iterated.  Each level spends, per vector it chooses, the later
    slots' popcounts, the candidate checks of a scalar filter, so the
    budget totals do not depend on the packing.
    """
    r = len(shells)
    if r < 2:
        return len(shells[0][0]) if shells else 1
    lane = width // 8
    half = 1 << (width - 2)
    # per slot: the bias B and B' = 2B - 1 in every lane, and every lane's top bit
    biases = [half * ones for _v, _p, ones in shells]
    lows = [(2 * half - 1) * ones for _v, _p, ones in shells]
    full = [2 * half * ones for _v, _p, ones in shells]
    # lane pattern of rows[k][l] + B; 0 matches no lane, so it stands for a
    # target out of reach of every dot
    wants = [[(t + half if -half < t < half else 0) * ones
              for t, (_v, _p, ones) in zip(row, shells)] for row in rows]

    def match(x, k: int, l: int, mask: int) -> int:
        # the lanes of mask whose candidate X_c in slot l has X . G X_c == rows[k][l]
        y = sum(map(mul, x, shells[l][1]), biases[l]) ^ wants[k][l]
        return mask ^ (mask & (y + lows[l]))

    def chosen(k: int, mask: int):
        # the vectors of slot k in mask: all of them for a full mask, as at the
        # root, else those whose lane has its top byte set
        vectors = shells[k][0]
        if mask == full[k]:
            return vectors
        return compress(vectors, mask.to_bytes(len(vectors) * lane, "little")[lane - 1::lane])

    def rec(k: int, masks: list[int]) -> int:
        counts = [m.bit_count() for m in masks]
        budget.spend(counts[0] * sum(counts[1:]))
        if k == r - 2:
            a, b = (k, k + 1) if counts[0] <= counts[1] else (k + 1, k)
            other = masks[b - k]
            return sum(match(x, a, b, other).bit_count() for x in chosen(a, masks[a - k]))
        total = 0
        for x in chosen(k, masks[0]):
            kept = [match(x, k, l, m) for l, m in enumerate(masks[1:], k + 1)]
            if all(kept):
                total += rec(k + 1, kept)
        return total

    return rec(0, full)


def _tuple_counts(lat: Lattice, targets: Sequence, shifts: Sequence[list[Fraction]]) -> list[int]:
    """Tuple counts in the slot cosets L + shifts[k] for integer targets
    s^2 T, s the common denominator of the shifts.

    Each distinct coset is swept once for the norms its slots need: an
    exact sweep for a single norm, else one bound scan to the largest,
    grouped by integer norm.  Each shell is packed once, in lanes wide
    enough for the largest slot norm of the call.  One budget covers the
    sweeps and searches.
    """
    form = _integer_form(lat.gram)
    scale = math.lcm(1, *map(_denominator, shifts))
    keys = [tuple(h) for h in shifts]
    width = _lane_width(max((t[k][k] for t in targets for k in range(len(t))), default=0))
    budget = _Budget(_enum_limit())
    shells: dict[tuple, tuple] = {}
    for h in dict.fromkeys(keys):
        norms = {t[k][k] for t in targets for k, hk in enumerate(keys) if hk == h}
        factor = scale // _denominator(h)
        # slot norm t / s^2 is the sweep's integer norm K D^2 t / s^2
        sq = factor * factor
        wanted = {t * form[2] // sq: t for t in norms if t * form[2] % sq == 0}
        _unit, _hist, kept = _sweep(form, h, Fraction(max(norms), scale * scale), budget,
                                    exact=len(norms) == 1, keep=wanted)
        found = {t: kept[n] for n, t in wanted.items()}
        for t in norms:
            shells[h, t] = _shell(lat.gram, [[v * factor for v in x] for x in found.get(t, ())],
                                  width)
    return [_tuple_search(t, [shells[h, t[k][k]] for k, h in enumerate(keys)], width, budget)
            for t in targets]


def tuple_rep_count(lat: Lattice, target, cosets: Sequence | None = None) -> int:
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
