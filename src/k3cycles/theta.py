"""Theta expansions and related q-series with exact coefficients.

Series use the convention q = exp(pi*i*tau), so a positive definite
lattice of rank m has theta expansion sum_x q^((x,x)) whose exponents are
the exact norm values (integers for integral lattices, rationals for
dual cosets).  Numerical evaluation is the only place floating point
enters, and it always carries an explicit truncation tail bound.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg
from ._record import record
from .enumeration import _norm_histograms, _tuple_counts, norm_histogram
from .errors import InvalidTau, UnsupportedWeight
from .lattice import Lattice, discriminant_group


@record
class QExpansion:
    """Finitely many exact coefficients of a q-series, indexed by exponent."""

    weight: Fraction
    bound: Fraction
    coeffs: tuple[tuple[Fraction, Fraction], ...]

    def coefficient(self, t) -> Fraction:
        t = Fraction(t)
        for idx, c in self.coeffs:
            if idx == t:
                return c
        return Fraction(0)

    def as_dict(self) -> dict[Fraction, Fraction]:
        return dict(self.coeffs)


def _expansion(weight: Fraction, bound: Fraction, coeffs: Mapping) -> QExpansion:
    items = tuple(sorted((Fraction(k), Fraction(v)) for k, v in coeffs.items()))
    return QExpansion(weight=weight, bound=Fraction(bound), coeffs=items)


def theta_coeffs(lat: Lattice, h: Sequence | None = None, bound=10) -> QExpansion:
    """Norm-counting q-expansion of L + h up to the exponent bound."""
    hist = norm_histogram(lat, h, bound)
    return _expansion(Fraction(lat.rank, 2), Fraction(bound), hist)


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m with B_1 = -1/2."""
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * bernoulli(j)
    return -acc / (m + 1)


def _sigma(power: int, n: int) -> int:
    return sum(d ** power for d in range(1, n + 1) if n % d == 0)


def eisenstein_sigma_coeffs(k: int, bound: int) -> QExpansion:
    """1 + (-2k/B_k) * sum sigma_{k-1}(n) q^n up to q^bound, exact."""
    if not isinstance(k, int) or k % 2 != 0 or k < 4:
        raise UnsupportedWeight("weight must be an even integer >= 4")
    const = Fraction(-2 * k) / bernoulli(k)
    coeffs = {Fraction(0): Fraction(1)}
    for n in range(1, int(bound) + 1):
        coeffs[Fraction(n)] = const * _sigma(k - 1, n)
    return _expansion(Fraction(k), Fraction(bound), coeffs)


@record
class ThetaValue:
    value: complex
    tail_bound: float
    bound: Fraction


def _require_upper_half(tau: complex) -> complex:
    tau = complex(tau)
    if not cmath.isfinite(tau):
        raise InvalidTau("tau must be finite")
    if not (tau.imag > 0):
        raise InvalidTau("tau must lie in the upper half plane")
    return tau


def _theta_sum(hist: Mapping[Fraction, int], tau: complex) -> complex:
    re = []
    im = []
    for t in sorted(hist):
        z = hist[t] * cmath.exp(1j * math.pi * float(t) * tau)
        re.append(z.real)
        im.append(z.imag)
    return complex(math.fsum(re), math.fsum(im))


def _tail_bound(lat: Lattice, bound: Fraction, tau: complex) -> float:
    """Crude but valid bound on the dropped terms, from coordinate boxes.

    Any x with Q(x) = t has |x_i|^2 <= (G^-1)_ii * t, so the number of
    norms in (t-1, t] is at most the full box count at t.  When 200000
    terms do not reach the stopping rule, the rest is bounded by a
    geometric series: the ratio r of consecutive terms only falls as t
    grows (log(2 sqrt(g t) + 1) is concave), so the rest is at most
    term r / (1 - r) once r < 1 at the last t.  Otherwise (Im tau below
    about 1e-6 for A1) the bound is inf.
    """
    v = tau.imag
    if lat.rank == 0:
        return 0.0
    inv = linalg.inverse(lat.gram)
    assert inv is not None
    g = max(float(inv[i][i]) for i in range(lat.rank))
    total = 0.0
    b = float(bound)
    for k in range(1, 200_000):
        t = b + k
        count = 1.0
        for _ in range(lat.rank):
            count *= 2.0 * math.sqrt(max(g * t, 0.0)) + 1.0
        term = count * math.exp(-math.pi * v * (t - 1.0))
        total += term
        if term < 1e-300 or (total > 0 and term / total < 1e-18 and k > 8):
            return total
    ratio = ((2.0 * math.sqrt(g * (t + 1)) + 1.0) / (2.0 * math.sqrt(g * t) + 1.0)) ** lat.rank
    ratio *= math.exp(-math.pi * v)
    return total + term * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf


def theta_value(lat: Lattice, h: Sequence | None, tau: complex, bound) -> ThetaValue:
    """Truncated numerical theta value with a tail bound report."""
    tau = _require_upper_half(tau)
    bound = Fraction(bound)
    hist = norm_histogram(lat, h, bound)
    return ThetaValue(
        value=_theta_sum(hist, tau),
        tail_bound=_tail_bound(lat, bound, tau),
        bound=bound,
    )


def theta_transform_check(lat: Lattice, tau: complex, bound) -> float:
    """Residual of the inversion identity

        theta_L(-1/tau) = (tau/i)^(m/2) |D|^(-1/2) sum_h theta_{L,h}(tau)

    computed from truncated series on both sides; small residuals certify
    the modular transformation numerically.
    """
    tau = _require_upper_half(tau)
    bound = Fraction(bound)
    disc = discriminant_group(lat)
    cosets = list(disc.elements())  # the zero coset first
    # x -> -x maps L + h onto L - h with the same norms, so each +-h pair
    # of reduced cosets is swept once
    rep: dict = {}
    for h in cosets:
        rep[h] = rep.get(tuple(-x % 1 for x in h), h)
    swept = list(dict.fromkeys(rep.values()))
    hists = dict(zip(swept, _norm_histograms(lat, swept, bound)))
    lhs = _theta_sum(hists[cosets[0]], -1.0 / tau)
    coset_sum = complex(0.0)
    for h in cosets:
        coset_sum += _theta_sum(hists[rep[h]], tau)
    factor = (tau / 1j) ** (lat.rank / 2.0)
    rhs = factor * coset_sum / math.sqrt(disc.order)
    return abs(lhs - rhs)


@record
class FourierTable:
    """Genus-r counting table over all psd integer targets with trace <= bound.

    Every entry records the tuple count at the zero coset together with
    the rank of the target, which is the stratum label used when weighting
    rank-deficient targets.
    """

    genus: int
    bound: int
    entries: tuple[tuple[tuple[tuple[int, ...], ...], int, int], ...]

    @cached_property
    def _index(self) -> dict:
        """target -> (rank, count), first entry winning as in a scan."""
        index = {}
        for t, rank, c in self.entries:
            index.setdefault(t, (rank, c))
        return index

    def _lookup(self, target) -> tuple[int, int]:
        key = tuple(tuple(int(x) for x in row) for row in target)
        found = self._index.get(key) if key == tuple(map(tuple, target)) else None
        if found is None:
            raise KeyError("target outside the tabulated range")
        return found

    def count(self, target) -> int:
        return self._lookup(target)[1]

    def rank_of(self, target) -> int:
        return self._lookup(target)[0]


def _psd_targets(r: int, bound: int):
    """All psd symmetric integer r x r matrices with trace <= bound, with
    their ranks, in deterministic lexicographic order."""
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    for diag in itertools.product(range(bound + 1), repeat=r):
        if sum(diag) > bound:
            continue
        limits = [math.isqrt(diag[i] * diag[j]) for i, j in pairs]
        for off in itertools.product(*(range(-s, s + 1) for s in limits)):
            t = [[diag[i] if i == j else 0 for j in range(r)] for i in range(r)]
            for (i, j), x in zip(pairs, off):
                t[i][j] = t[j][i] = x
            p, q, _z = linalg.inertia(t)
            if q == 0:
                yield tuple(tuple(row) for row in t), p


def siegel_theta_table(lat: Lattice, r: int, bound: int) -> FourierTable:
    """Tuple counts for every psd Gram target of trace <= bound (zero coset).

    The lattice vectors of norm <= bound are enumerated once and shared by
    every target's count.
    """
    if r < 1:
        raise ValueError("genus must be at least 1")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    targets = list(_psd_targets(r, int(bound)))
    counts = _tuple_counts(lat, [t for t, _rk in targets], [[Fraction(0)] * lat.rank] * r)
    entries = [(t, rk, c) for (t, rk), c in zip(targets, counts)]
    return FourierTable(genus=r, bound=int(bound), entries=tuple(entries))
