"""Generalized Gauss sums over residue classes and discriminant forms.

`gauss_sum` is in closed form.  By CRT over c = prod p^k it is a product of
sums over y mod p^k of e(b y^T G y / 2p^k), b = a c / p^k and e(t) =
exp(2 pi i t).  `linalg.jordan` splits G over Z_(p) into blocks whose sums
are eighth roots of unity times powers of sqrt(p) (Berndt-Evans-Williams,
Gauss and Jacobi Sums, 1.5; Conway-Sloane, SPLAG ch. 15).  The product is
kept exactly, as e(j/8) sqrt(rational), and each float component is
rounded once.

`milgram_invariant` scales the discriminant-group generators by their
common denominator den to integer vectors, so the norm of every coset is an
integer mod 2*den^2 (well defined because the lattice is even).  It counts
the cosets per phase from a prefix walk, folding in the last two
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
from .linalg import jordan

TRIAL_DIVISION_CAP = 10 ** 6
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


def _split(t: int, p: int) -> tuple[int, int]:
    """(w, t / p^w) with p^w exactly dividing t != 0."""
    w = 0
    while t % p == 0:
        t, w = t // p, w + 1
    return w, t


def _prime_powers(c: int) -> list[tuple[int, int]]:
    """(p, k) per p^k exactly dividing c, by trial division up to the cap."""
    out, d = [], 2
    while d * d <= c:
        if d > TRIAL_DIVISION_CAP:
            raise EnumerationLimitExceeded(f"cannot factor c: cofactor {c} has no prime <= 10^6")
        if c % d == 0:
            k, c = _split(c, d)
            out.append((d, k))
        d += 1 + (d > 2)
    return out + [(c, 1)] * (c > 1)


@record
class GaussSumValue:
    value: complex
    a: int
    c: int
    rank: int
    normalization: float


def gauss_sum(lat: Lattice, a: int, c: int) -> GaussSumValue:
    """c^(-rank/2) * sum over x in (Z/c)^rank of exp(pi*i*a*(x,x)/c).

    Refuses an odd lattice when a*c is odd (the sum is then not defined), a c
    that trial division cannot factor and a value beyond the float range.
    """
    if not isinstance(c, int) or isinstance(c, bool) or not 0 < c < 2 ** 1024:
        raise InvalidModulus("modulus c must be a positive integer below 2^1024")
    if not isinstance(a, int) or isinstance(a, bool):
        raise InvalidModulus("parameter a must be an integer")
    n = lat.rank
    if a * c % 2 and not lat.even:
        raise OddLatticeUnsupported(
            "the Gauss sum of an odd lattice needs a*c even: otherwise the term of x "
            "changes sign under x_j -> x_j + c, so the sum over (Z/c)^n is not defined")
    turn, num, den = 0, 1, 1  # the value is e(turn/8) sqrt(num/den)
    for p, k in _prime_powers(c):
        pk, two = p ** k, p == 2
        # b (y,y) is even, so at odd p e(b (y,y) / 2p^k) = e(b (p^k+1)/2 (y,y) / p^k)
        b = a * c // pk % (2 * pk) if two else a * c // pk * (pk + 1) // 2 % pk
        # The terms see G mod 2p^k (diag(1, .., 1, det) at odd p prime to det).
        # (x,) has the term e(b x y^2 / P), P = 2p^k at p = 2 and p^k otherwise,
        # (x, y, z) e(b q / 2^k), q = x/2 y1^2 + y y1 y2 + z/2 y2^2 ~ 2^v y1 y2 or
        # 2^v (y1^2 + y1 y2 + y2^2); each adds its sum's e(j/8) p^(e/2) to turn, e.
        e = -n * k
        for x, *yz in ([(1,)] * (n - 1) + [(lat.det,)] if n and not two and lat.det % p
                       else jordan(lat.gram, p, k + 1)[0]):
            if yz:
                y, z = yz
                w = _split(b * y, 2)[0] if b * y % 2 ** k else k
                e += 2 * (k + w)
                turn += 4 * ((k - w) & ((y * y - x * z) // (y & -y) ** 2 % 8 == 5))
            elif t := b * x % (pk << two):
                w, t = _split(t, p)
                m = k + two - w  # the sum is p^(k-m) times the classical one mod p^m
                num *= not two or m > 1  # the classical sum mod 2 is 1 - 1
                e += 2 * k - m + two
                if two:
                    turn += (1 if t % 4 == 1 else 7) + 4 * (m & 1 and t % 8 in (3, 5))
                elif m & 1:  # the Legendre symbol (t/p), and epsilon_p = 1 or i
                    turn += 4 * (pow(t, p // 2, p) != 1) + 2 * (p % 4 == 3)
            else:
                e += 2 * k
        num, den = num * p ** max(0, e), den * p ** max(0, -e)
    # sqrt(num/den) rounded once: a root of at least 56 bits and a sticky bit
    den <<= turn & 1
    shift = max(0, 112 + den.bit_length() - num.bit_length()) // 2
    root = math.isqrt((num << 2 * shift) // den)
    try:
        r = (2 * root + (root * root * den != num << 2 * shift)) / (1 << shift + 1)
    except OverflowError:
        raise InvalidModulus(f"at c = {c} the value is beyond the float range") from None
    cos = (1, 1, 0, -1, -1, -1, 0, 1)
    value = complex(cos[turn % 8] * r, cos[(turn - 2) % 8] * r) if num else 0j
    return GaussSumValue(value=value, a=a, c=c, rank=n, normalization=c ** (-n / 2.0))


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
