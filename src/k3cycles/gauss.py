"""Generalized Gauss sums over residue classes and discriminant forms.

Both sums take their phases from integer quadratic forms reduced exactly
modulo an even integer, and exponentiate each distinct phase once; the only
float error is the rounding of those exponentials and of the final sum.

`gauss_sum` walks x in (Z/c)^n in `itertools.product` order.  For each
prefix x_1..x_{n-2} it carries a*Q mod 2c and the linear coefficients of
x_{n-1} and x_n mod 2c.  Per such triple it memoizes the c blocks of the
last coordinate, one per x_{n-1}: references to blocks memoized per pair
(Q, coefficient of x_n), never copies.  That memo stops growing at
MEMO_REFERENCE_CAP references, which only large c reaches (rank 4 near the
residue cap); triples past it rebuild their c references on each visit.
The terms are added by a Kahan sum in product order, which fixes every bit
of the result.

`milgram_invariant` scales the discriminant-group generators by their
common denominator den to integer vectors, so the norm of every coset is an
integer mod 2*den^2 (well defined because the lattice is even).  It counts
the cosets per phase from the same prefix walk, folding in the last two
invariant factors one at a time, exponentiates each phase once and feeds
every value to math.fsum as often as its phase occurs.  fsum rounds the
exact sum once, so the total does not depend on the order of the cosets.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter

from ._record import record
from .errors import (
    EnumerationLimitExceeded,
    InvalidModulus,
    OddLatticeUnsupported,
)
from .lattice import Lattice, discriminant_group, signature

RESIDUE_TERM_CAP = 10_000_000
MEMO_REFERENCE_CAP = 1 << 14  # about 0.2 MB of prefix memo at any c
MILGRAM_TOLERANCE = 1e-9


def _prefix_phases(diag, cross, sizes, mod):
    """Yield (Q(x), l(x)_{n-2}, l(x)_{n-1}), each mod `mod`, for every prefix
    x in product(*(range(s) for s in sizes[:-2])), in itertools.product order.

    Q(x) = sum_i diag[i]*x_i^2 + sum_{i<j} cross[i][j]*x_i*x_j with the
    last two coordinates zero, and l(x)_j = sum_i cross[i][j]*x_i is the
    coefficient of x_j.  An odometer recomputes only the levels below the
    coordinate that moved.
    """
    m = len(sizes) - 2
    x = [0] * m
    q = [0] * (m + 1)  # q[k]: Q of the coordinates before k
    # lin[k][j], j >= k: coefficient of x_j from the coordinates before k;
    # rows are replaced, never mutated, so levels may share one list
    lin = [[0] * (m + 2)] * (m + 1)
    while True:
        yield q[m], lin[m][m], lin[m][m + 1]
        k = m - 1
        while k >= 0 and x[k] == sizes[k] - 1:
            x[k] = 0
            k -= 1
        if k < 0:
            return
        t = x[k] = x[k] + 1
        src, row = lin[k], cross[k]
        qk = (q[k] + src[k] * t + diag[k] * t * t) % mod
        nxt = src[:]
        for j in range(k + 1, m + 2):
            nxt[j] = (src[j] + row[j] * t) % mod
        for level in range(k + 1, m + 1):
            q[level] = qk
            lin[level] = nxt


def _fsum_repeated(pairs) -> float:
    """math.fsum of each value repeated its count of times, without building
    the list; fsum rounds the exact sum once, so order does not matter."""
    return math.fsum(itertools.chain.from_iterable(
        itertools.repeat(x, cnt) for x, cnt in pairs))


def _phase_form(gram, sizes, mod):
    """Diagonal and doubled off-diagonal coefficients of x -> x^T gram x
    mod `mod`, and the coordinate sizes.  Ranks below 2 get leading
    coordinates of size 1, which change neither the terms nor their order."""
    pad = max(0, 2 - len(gram))
    n = pad + len(gram)
    gram = [[0] * n] * pad + [[0] * pad + list(row) for row in gram]
    diag = [gram[i][i] % mod for i in range(n)]
    cross = [[2 * gram[i][j] % mod for j in range(n)] for i in range(n)]
    return diag, cross, [1] * pad + list(sizes)


@record
class GaussSumValue:
    value: complex
    a: int
    c: int
    rank: int
    normalization: float


def gauss_sum(lat: Lattice, a: int, c: int) -> GaussSumValue:
    """c^(-rank/2) * sum over x in (Z/c)^rank of exp(pi*i*a*(x,x)/c).

    The phase a*(x,x) is reduced mod 2c exactly before exponentiation.
    Refuses when c^rank exceeds the residue term cap.
    """
    if not isinstance(c, int) or isinstance(c, bool) or c < 1:
        raise InvalidModulus("modulus c must be a positive integer")
    if not isinstance(a, int) or isinstance(a, bool):
        raise InvalidModulus("parameter a must be an integer")
    n = lat.rank
    if c ** n > RESIDUE_TERM_CAP:
        raise EnumerationLimitExceeded(
            f"residue enumeration would need {c ** n} terms (cap {RESIDUE_TERM_CAP})")
    two_c = 2 * c
    table = []
    for phase in range(two_c):
        z = cmath.exp(1j * math.pi * phase / c)
        table.append((z.real, z.imag))
    diag, cross, sizes = _phase_form([[a * x for x in row] for row in lat.gram],
                                     [c] * n, two_c)
    (s1, last), (d1, d), e = sizes[-2:], diag[-2:], cross[-2][-1]
    blocks = {}  # (Q, coefficient of x_n) -> the c terms of the last coordinate
    memo = {}  # prefix key -> the blocks for x_{n-1} = 0..s1-1, by reference
    re = im = 0.0
    cr = ci = 0.0  # Kahan compensation
    for key in _prefix_phases(diag, cross, sizes, two_c):
        zs = memo.get(key)
        if zs is None:
            q, l1, l2 = key
            zs = []
            for x in range(s1):
                ql = ((q + l1 * x + d1 * x * x) % two_c, (l2 + e * x) % two_c)
                b = blocks.get(ql)
                if b is None:
                    b = blocks[ql] = [table[(ql[0] + ql[1] * y + d * y * y) % two_c]
                                      for y in range(last)]
                zs.append(b)
            if len(memo) * s1 < MEMO_REFERENCE_CAP:
                memo[key] = zs
        for zr, zi in itertools.chain.from_iterable(zs):
            y = zr - cr
            t = re + y
            cr = (t - re) - y
            re = t
            y = zi - ci
            t = im + y
            ci = (t - im) - y
            im = t
    norm = c ** (-n / 2.0)
    return GaussSumValue(value=complex(re, im) * norm, a=a, c=c, rank=n,
                         normalization=norm)


@record
class MilgramResult:
    total: complex
    predicted: complex
    signature_mod8: int
    error: float
    agrees: bool


def milgram_invariant(lat: Lattice) -> MilgramResult:
    """sum over the discriminant group of exp(pi*i*(h,h)) against the
    signature prediction sqrt(|D|) * exp(2*pi*i*sig/8)."""
    if not lat.even:
        raise OddLatticeUnsupported("discriminant-form sum needs an even lattice")
    disc = discriminant_group(lat)  # raises DegenerateLattice when det = 0
    disc.check_enumerable()
    p, q = signature(lat)
    den = math.lcm(*(x.denominator for g in disc.generators for x in g))
    gens = [[int(x * den) for x in g] for g in disc.generators]
    images = [[sum(r * y for r, y in zip(row, g)) for row in lat.gram] for g in gens]
    den2 = den * den
    mod = 2 * den2
    diag, cross, sizes = _phase_form(
        [[sum(u * v for u, v in zip(g, h)) for h in images] for g in gens],
        disc.invariant_factors, mod)
    (s1, last), (d1, d), e = sizes[-2:], diag[-2:], cross[-2][-1]
    pairs = Counter()
    for (q0, l1, l2), cnt in Counter(_prefix_phases(diag, cross, sizes, mod)).items():
        for x in range(s1):
            pairs[(q0 + l1 * x + d1 * x * x) % mod, (l2 + e * x) % mod] += cnt
    hist = Counter()
    for (q0, l), cnt in pairs.items():
        for y in range(last):
            hist[(q0 + l * y + d * y * y) % mod] += cnt
    terms = [(cmath.exp(1j * math.pi * (phase / den2)), cnt)
             for phase, cnt in hist.items()]
    total = complex(_fsum_repeated((z.real, cnt) for z, cnt in terms),
                    _fsum_repeated((z.imag, cnt) for z, cnt in terms))
    sig = (p - q) % 8
    predicted = math.sqrt(disc.order) * cmath.exp(2j * math.pi * sig / 8)
    err = abs(total - predicted)
    return MilgramResult(total=total, predicted=predicted, signature_mod8=sig,
                         error=err, agrees=err < MILGRAM_TOLERANCE)
