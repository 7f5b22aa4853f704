"""Independent brute-force oracles the fast kernels are checked against.

Everything here favors obviousness over speed: rectangular boxes from
the inverse Gram diagonal, itertools.product sweeps, divisor sums by
trial division, a plain Fraction Gauss-Jordan elimination as the
reference for linalg, the Schur pass of linalg's congruence
diagonalization in Fraction, Smith invariant factors from determinantal
divisors, kernel saturation from the gcd of maximal minors, tuple
counts by one scalar dot product per candidate check, Clifford
words normalized by adjacent rewriting, Clifford inverses from one solve
of the full left-multiplication system on those words, the Gauss and
Milgram sums term by term in floating point, the sign of a + b sqrt(n)
in closed form, number field products as polynomial products reduced
mod f, quaternion products over a number field from the 16-entry table
of basis products, the trace form over a number field entry by entry
through companion-matrix traces, and per-embedding signatures of a Gram
over a number field from its entries evaluated at sympy's rational root
approximations.  Nothing imports from the enumeration, theta, linalg,
clifford, gauss, numberfield or transfer modules, except the Kuga-Satake
forms: ks_forms is the entry-by-entry product-and-trace loop, on
clifford's products (checked against the rewriting oracle) with monomial
traces summed word by word instead of in closed form.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from operator import mul

from k3cycles.lattice import Lattice, discriminant_group, signature


def gauss_jordan(a) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Reduced row echelon form of a over Q, its pivot columns, and the
    signed product of the pivots (det a when a is square and nonsingular)."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    det = Fraction(1)
    for col in range(cols):
        rk = len(pivots)
        piv = next((r for r in range(rk, rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rk:
            m[rk], m[piv] = m[piv], m[rk]
            det = -det
        p = m[rk][col]
        det *= p
        m[rk] = [x / p for x in m[rk]]
        for r in range(rows):
            if r != rk and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rk])]
        pivots.append(col)
    return m, pivots, det


def det(a) -> Fraction:
    _m, pivots, d = gauss_jordan(a)
    return d if len(pivots) == len(a) else Fraction(0)


def rank(a) -> int:
    return len(gauss_jordan(a)[1])


def solve(a, b):
    """One solution of a*x = b with free coordinates zero, or None."""
    cols = len(a[0]) if a else 0
    m, pivots, _d = gauss_jordan([list(row) + [rhs] for row, rhs in zip(a, b)])
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        x[col] = m[r][cols]
    return x


def inverse(a):
    n = len(a)
    m, pivots, _d = gauss_jordan([list(a[i]) + [int(i == j) for j in range(n)]
                                  for i in range(n)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in m]


def symmetric_pass(a, basis: bool = False):
    """Congruence diagonalization of a symmetric matrix by Schur steps in
    Fraction, with linalg's pivot rule.

    Returns (m, b): d is the diagonal of m.  A zero pivot is swapped with a
    later nonzero diagonal entry, or else becomes 2*m[i][j] by adding row
    and column j; with no such j, d_i = 0.  b, built only when asked, has
    rows with b[i] . a . b[j] = d_i if i = j and 0 otherwise.
    """
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    b = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)] if basis else None
    for i in range(n):
        if m[i][i] == 0:
            j = next((k for k in range(i + 1, n) if m[k][k] != 0), None)
            if j is not None:
                m[i], m[j] = m[j], m[i]
                for row in m:
                    row[i], row[j] = row[j], row[i]
                if b is not None:
                    b[i], b[j] = b[j], b[i]
            else:
                j = next((k for k in range(i + 1, n) if m[i][k] != 0), None)
                if j is None:
                    continue
                m[i] = [x + y for x, y in zip(m[i], m[j])]
                for row in m:
                    row[i] += row[j]
                if b is not None:
                    b[i] = [x + y for x, y in zip(b[i], b[j])]
        top = m[i]
        piv = top[i]
        nonzero = [c for c in range(i + 1, n) if top[c] != 0]
        for r in range(i + 1, n):
            row = m[r]
            if row[i] != 0:
                f = row[i] / piv
                for c in nonzero:
                    row[c] -= f * top[c]
                if b is not None:
                    b[r] = [x - f * y for x, y in zip(b[r], b[i])]
    return m, b


def inertia(a) -> tuple[int, int, int]:
    """Sign counts (positive, negative, zero) of symmetric_pass's diagonal."""
    m, _ = symmetric_pass(a)
    d = [m[i][i] for i in range(len(m))]
    return sum(x > 0 for x in d), sum(x < 0 for x in d), sum(x == 0 for x in d)


def invariant_factors(a) -> list[int]:
    """Smith invariant factors s_k = D_k / D_(k-1), where D_k is the gcd of
    all k x k minors (0 once D_k = 0); one per diagonal position."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    factors, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                g = math.gcd(g, int(det([[a[r][c] for c in cs] for r in rs])))
        factors.append(g // prev if prev else 0)
        prev = g
    return factors


def maximal_minor_gcd(rows) -> int:
    """gcd of the k x k minors of a k x n integer matrix, stopped once it
    reaches 1.  Independent rows span a saturated sublattice of Z^n (one
    equal to its rational span intersected with Z^n) exactly when it is 1."""
    g = 0
    for cs in itertools.combinations(range(len(rows[0]) if rows else 0), len(rows)):
        g = math.gcd(g, int(det([[row[c] for c in cs] for row in rows])))
        if g == 1:
            break
    return g


def quadratic_sign(a, b, n: int) -> int:
    """Sign of a + b sqrt(n) for rational a, b and a positive nonsquare n:
    the sign of the larger of a^2 and n b^2 decides when a, b differ."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    return sa if a * a > n * b * b else sb


def _mulmod(p, q, poly) -> list[Fraction]:
    """p * q mod the monic poly, in Fraction power coordinates."""
    d = len(poly) - 1
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += Fraction(a) * b
    for top in range(len(out) - 1, d - 1, -1):
        c = out[top]
        for i, f in enumerate(poly):
            out[top - d + i] -= c * f
    return (out + [Fraction(0)] * d)[:d]


def companion_trace(poly, x) -> Fraction:
    """Trace of multiplication by x on Q[t]/(poly): the sum over k of the
    t^k coordinate of x t^k."""
    d = len(poly) - 1
    return sum((_mulmod(x, [0] * k + [1], poly)[k] for k in range(d)), Fraction(0))


def _neg(p) -> list[Fraction]:
    return [-c for c in p]


def quaternion_product(poly, a, b, x, y) -> list[list[Fraction]]:
    """x y in (a, b / Q[t]/(poly)), quaternions as four power-coordinate
    vectors against 1, i, j, k: the sum over all 16 pairs of components of
    x_m y_n times the table's factor, placed at the table's basis index."""
    d = len(poly) - 1
    one = [1]
    ab = _mulmod(a, b, poly)
    # (m, n) -> (basis index, field factor)
    table = {
        (0, 0): (0, one), (0, 1): (1, one), (0, 2): (2, one), (0, 3): (3, one),
        (1, 0): (1, one), (1, 1): (0, a), (1, 2): (3, one), (1, 3): (2, a),
        (2, 0): (2, one), (2, 1): (3, _neg(one)), (2, 2): (0, b), (2, 3): (1, _neg(b)),
        (3, 0): (3, one), (3, 1): (2, _neg(a)), (3, 2): (1, b), (3, 3): (0, _neg(ab)),
    }
    out = [[Fraction(0)] * d for _ in range(4)]
    for (m, n), (idx, factor) in table.items():
        term = _mulmod(_mulmod(x[m], y[n], poly), factor, poly)
        out[idx] = [u + v for u, v in zip(out[idx], term)]
    return out


def quaternion_pairing(poly, a, b, x, y) -> list[Fraction]:
    """tr_red(x conj(y)) = 2 (x conj(y))_0 in power coordinates."""
    conj = [y[0]] + [_neg(comp) for comp in y[1:]]
    return [2 * c for c in quaternion_product(poly, a, b, x, conj)[0]]


def trace_form(poly, basis, gram) -> list[list[int]]:
    """The Z-Gram tr(omega_k omega_l g_ij), lattice index outer and basis
    index inner, one product per entry, traced by linearity from the
    companion traces of the powers t^c; basis rows and Gram entries are
    power coordinates.  ValueError on a non-integral trace."""
    d, r = len(poly) - 1, len(gram)
    traces = [companion_trace(poly, [0] * c + [1]) for c in range(d)]
    pairs = {(k, l): _mulmod(basis[k], basis[l], poly)
             for k, l in itertools.product(range(d), repeat=2)}
    out = [[0] * (r * d) for _ in range(r * d)]
    for i, j, k, l in itertools.product(range(r), range(r), range(d), range(d)):
        t = sum(c * tc for c, tc in zip(_mulmod(pairs[k, l], gram[i][j], poly), traces))
        if t.denominator != 1:
            raise ValueError("trace form is not integral")
        out[i * d + k][j * d + l] = int(t)
    return out


def embedding_profile(poly, gram, bits: int) -> list[tuple[int, int]]:
    """(p, q) at each real root of the monic poly, ascending, of the
    symmetric matrix whose entries are power coordinates in the root:
    every entry is evaluated at the midpoint of sympy's isolating interval
    refined to width 2^-bits, and the Fraction matrix goes to inertia.
    Rational roots come out exact; otherwise the answer is only as good as
    the approximation, so callers compare two precisions."""
    import sympy

    x = sympy.Symbol("x")
    eps = sympy.Rational(1, 2**bits)
    out = []
    for a, b in sorted(sympy.Poly(list(reversed(poly)), x).intervals(eps=eps, sqf=True)):
        t = (Fraction(int(a.p), int(a.q)) + Fraction(int(b.p), int(b.q))) / 2
        values = [[sum(Fraction(c) * t**k for k, c in enumerate(e)) for e in row]
                  for row in gram]
        p, q, _z = inertia(values)
        out.append((p, q))
    return out


def _box_radii(lat: Lattice, bound: Fraction) -> list[int]:
    """Per-coordinate |x_i| cap: x_i^2 <= (G^-1)_ii * bound for x'Gx <= bound."""
    inv = inverse([[Fraction(v) for v in row] for row in lat.gram])
    radii = []
    for i in range(lat.rank):
        cap = inv[i][i] * bound
        radii.append(math.isqrt(cap.numerator // cap.denominator) + 1)
    return radii


def box_histogram(lat: Lattice, bound, h=None) -> dict[Fraction, int]:
    """Counts of (x+h, x+h) <= bound over integer x, by raw box sweep.

    The sweep runs over the integer coordinates X = q(x + h), q the common
    denominator of h, so every norm N = X'GX is an integer compared with
    q^2 * bound; N / q^2 becomes the key only at the end."""
    bound = Fraction(bound)
    shift = tuple(Fraction(v) for v in (h or [0] * lat.rank))
    q = math.lcm(1, *(s.denominator for s in shift))
    cap = bound * q * q
    radii = _box_radii(lat, bound + Fraction(1))
    counts: dict[int, int] = {}
    ranges = []
    for r, s in zip(radii, shift):
        pad = int(math.ceil(abs(s))) + 2
        lift = int(q * s)
        ranges.append(range(q * (-r - pad) + lift, q * (r + pad) + lift + 1, q))
    n = lat.rank
    for v in itertools.product(*ranges):
        norm = sum(v[i] * lat.gram[i][j] * v[j] for i in range(n) for j in range(n))
        if norm <= cap:
            counts[norm] = counts.get(norm, 0) + 1
    return {Fraction(norm, q * q): c for norm, c in counts.items()}


def box_count(lat: Lattice, t, h=None) -> int:
    return box_histogram(lat, t, h).get(Fraction(t), 0)


def sigma(k: int, n: int) -> int:
    """Divisor power sum by trial division."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += d**k
    return total


def box_tuple_count(lat: Lattice, target, cosets=None) -> int:
    """Number of r-tuples (x_1..x_r), x_k in L + cosets[k] (L by default),
    with the given mutual Gram, by a box sweep per slot."""
    target = [[Fraction(v) for v in row] for row in target]
    r = len(target)
    slots = []
    for k in range(r):
        h = cosets[k] if cosets else None
        shift = [Fraction(v) for v in (h or [0] * lat.rank)]
        # integer coordinates q*(x + shift), so norms are checked in integers
        q = math.lcm(*(s.denominator for s in shift))
        radii = _box_radii(lat, target[k][k])
        ranges = [range(-c - math.ceil(abs(s)), c + math.ceil(abs(s)) + 1)
                  for c, s in zip(radii, shift)]
        slot = []
        for x in itertools.product(*ranges):
            v = [int(q * (a + s)) for a, s in zip(x, shift)]
            if sum(v[i] * lat.gram[i][j] * v[j] for i in range(lat.rank)
                   for j in range(lat.rank)) == target[k][k] * q * q:
                slot.append(tuple(Fraction(a, q) for a in v))
        slots.append(slot)
    count = 0
    for combo in itertools.product(*slots):
        if all(
            lat.inner(combo[i], combo[j]) == target[i][j]
            for i in range(r)
            for j in range(i + 1, r)
        ):
            count += 1
    return count


def scalar_tuple_search(rows, shells, budget) -> int:
    """Number of tuples (x_1..x_r), x_k from shells[k], with Gram rows / s^2,
    by one integer dot product per candidate check.

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


def _word(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def clifford_word(gram, word) -> dict[int, Fraction]:
    """Normal form (mask -> coefficient) of e_{w1} e_{w2} ... in C(gram),
    by rewriting the leftmost adjacent pair that is out of order:
    e_i e_j -> 2 G_ij - e_j e_i for i > j, and e_i e_i -> G_ii."""
    out: dict[int, Fraction] = {}
    stack = [(tuple(word), Fraction(1))]
    while stack:
        w, c = stack.pop()
        k = next((k for k in range(len(w) - 1) if w[k] >= w[k + 1]), None)
        if k is None:
            mask = sum(1 << i for i in w)
            out[mask] = out.get(mask, Fraction(0)) + c
            continue
        i, j = w[k], w[k + 1]
        rest = w[:k] + w[k + 2:]
        if i == j:
            stack.append((rest, c * gram[i][i]))
        else:
            stack.append((rest, 2 * c * gram[i][j]))
            stack.append((w[:k] + (j, i) + w[k + 2:], -c))
    return {m: c for m, c in out.items() if c}


def _clifford_sum(gram, terms) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for c, word in terms:
        for m, v in clifford_word(gram, word).items():
            out[m] = out.get(m, Fraction(0)) + c * v
    return {m: c for m, c in out.items() if c}


def clifford_product(gram, x, y) -> dict[int, Fraction]:
    """x * y for elements given as mask -> coefficient mappings."""
    return _clifford_sum(gram, [(cx * cy, _word(mx) + _word(my))
                                for mx, cx in x.items() for my, cy in y.items()])


def clifford_reverse(gram, x) -> dict[int, Fraction]:
    """The main involution: every monomial's word read backwards."""
    return _clifford_sum(gram, [(c, _word(m)[::-1]) for m, c in x.items()])


def clifford_trace(gram, x) -> Fraction:
    """Trace of the 2^rank x 2^rank matrix of left multiplication by x."""
    return sum((clifford_product(gram, x, {t: 1}).get(t, Fraction(0))
                for t in range(1 << len(gram))), Fraction(0))


def clifford_inverse(gram, x):
    """The y with x y = 1 (mask -> coefficient), or None: one solve of the
    full 2^rank system whose column t is x e_t."""
    n = 1 << len(gram)
    cols = [clifford_product(gram, x, {t: 1}) for t in range(n)]
    y = solve([[col.get(s, 0) for col in cols] for s in range(n)],
              [int(s == 0) for s in range(n)])
    return None if y is None else {m: c for m, c in enumerate(y) if c}


def summed_tau(table, mask: int) -> int:
    """Matrix trace of left multiplication by e_mask in a clifford._GenTable:
    the coefficient of e_t in e_mask e_t, summed over all 2^rank words t."""
    return sum(table.word(mask, _word(t)).get(t, 0) for t in range(1 << len(table.gram)))


def ks_forms(lat: Lattice, a, j):
    """The 2^rank x 2^rank matrices of tr(a e_s rev(e_t)) and
    tr(a e_s j rev(e_t)) for Clifford elements a and j: one multiply,
    main_involution and trace per entry, with every monomial trace summed
    word by word by summed_tau."""
    from k3cycles import clifford

    table = clifford._GenTable(lat.gram)
    taus: dict[int, int] = {}

    def trace(x) -> Fraction:
        for m, _ in x.coeffs:
            if m not in taus:
                taus[m] = summed_tau(table, m)
        return Fraction(sum(c * taus[m] for m, c in x.coeffs))

    n = 1 << lat.rank
    monos = [clifford.element(lat, {m: 1}) for m in range(n)]
    rev = [clifford.main_involution(e) for e in monos]

    def form(right):
        left = [clifford.multiply(clifford.multiply(a, e), right) for e in monos]
        return [[trace(clifford.multiply(x, y)) for y in rev] for x in left]

    return form(clifford.scalar_element(lat, 1)), form(j)


def gauss_sum_terms(lat: Lattice, a: int, c: int) -> tuple[complex, float]:
    """(value, normalization) of c^(-n/2) sum_x exp(pi*i*a*(x,x)/c): every
    residue's form and exponential computed afresh, Kahan-summed in
    itertools.product order."""
    n = lat.rank
    gram = lat.gram
    two_c = 2 * c
    re = im = 0.0
    cr = ci = 0.0  # Kahan compensation
    for x in itertools.product(range(c), repeat=n):
        q = 0
        for i in range(n):
            xi = x[i]
            if xi:
                row = gram[i]
                q += row[i] * xi * xi
                for j in range(i + 1, n):
                    if x[j]:
                        q += 2 * row[j] * xi * x[j]
        phase = (a * q) % two_c
        z = cmath.exp(1j * math.pi * phase / c)
        y = z.real - cr
        t = re + y
        cr = (t - re) - y
        re = t
        y = z.imag - ci
        t = im + y
        ci = (t - im) - y
        im = t
    norm = c ** (-n / 2.0)
    return complex(re, im) * norm, norm


def milgram_terms(lat: Lattice) -> tuple[complex, complex, int, float, bool]:
    """(total, predicted, signature mod 8, error, agrees within 1e-9) of the
    Milgram sum, with every coset's Fraction norm from elements() and fsum."""
    disc = discriminant_group(lat)
    p, q = signature(lat)
    re = []
    im = []
    for h in disc.elements():
        norm = lat.norm(h)
        phase = norm - 2 * ((norm / 2).__floor__())  # exact value in [0, 2)
        z = cmath.exp(1j * math.pi * float(phase))
        re.append(z.real)
        im.append(z.imag)
    total = complex(math.fsum(re), math.fsum(im))
    sig = (p - q) % 8
    predicted = math.sqrt(disc.order) * cmath.exp(2j * math.pi * sig / 8)
    err = abs(total - predicted)
    return total, predicted, sig, err, err < 1e-9
