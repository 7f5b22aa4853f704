"""Exact rational and integer matrix kernels."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from k3cycles import enumeration, linalg
from k3cycles.errors import IndefiniteLattice


def int_matrices(n, lo=-5, hi=5):
    entry = st.integers(lo, hi)
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    )


def symmetric_matrices(n, lo=-4, hi=4):
    return int_matrices(n, lo, hi).map(
        lambda rows: [
            [rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)
        ]
    )


class TestDetRankSolve:
    def test_det_known(self):
        assert linalg.det([[2, 1], [1, 2]]) == 3
        assert linalg.det([[0, 1], [1, 0]]) == -1

    def test_rank(self):
        assert linalg.rank([[1, 2], [2, 4]]) == 1
        assert linalg.rank([[1, 0], [0, 1]]) == 2

    def test_solve_and_inverse(self):
        a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
        x = linalg.solve(a, [Fraction(1), Fraction(0)])
        assert x == [Fraction(2, 3), Fraction(-1, 3)]
        inv = linalg.inverse(a)
        assert linalg.mat_mul(a, inv) == [[1, 0], [0, 1]]

    def test_singular_solve(self):
        a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
        assert linalg.solve(a, [Fraction(0), Fraction(1)]) is None
        assert linalg.inverse(a) is None

    def test_det_rejects_non_square(self):
        for a in ([[1, 2, 3]], [[1], [2]], [[1, 2], [3]]):
            with pytest.raises(ValueError):
                linalg.det(a)

    def test_inverse_rejects_non_square(self):
        for a in ([[1, 2]], [[1], [2]], [[1, 2], [3]]):
            with pytest.raises(ValueError):
                linalg.inverse(a)


@settings(max_examples=50, deadline=None)
@given(int_matrices(3))
def test_det_multiplies(a):
    b = [[1, 1, 0], [0, 1, 0], [0, 2, 1]]
    prod = linalg.mat_mul(a, b)
    assert linalg.det(prod) == linalg.det(a) * linalg.det(b)


@settings(max_examples=50, deadline=None)
@given(symmetric_matrices(3))
def test_inertia_sums_to_rank(a):
    p, n, z = linalg.inertia(a)
    assert p + n + z == 3
    assert z == 3 - linalg.rank(a)


@settings(max_examples=50, deadline=None)
@given(symmetric_matrices(3))
def test_inertia_det_sign(a):
    p, n, z = linalg.inertia(a)
    d = linalg.det(a)
    if z > 0:
        assert d == 0
    else:
        assert (d > 0) == (n % 2 == 0)


@settings(max_examples=50, deadline=None)
@given(symmetric_matrices(4, -3, 3))
def test_congruence_diagonalize(a):
    basis, diag = linalg.congruence_diagonalize(a)
    fa = [[Fraction(x) for x in row] for row in a]
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            val = sum(
                bi[s] * fa[s][t] * bj[t] for s in range(4) for t in range(4)
            )
            assert val == (diag[i] if i == j else 0)
    p, n, z = linalg.inertia(a)
    assert sum(1 for d in diag if d > 0) == p
    assert sum(1 for d in diag if d < 0) == n


def _check_smith(a) -> list[int]:
    """The smith_normal_form contract on a nonsingular square a; returns the
    diagonal of d.

    d is diagonal with d1 | d2 | ... and prod d_j = |det a|, d_j divides
    column j of a*v, and det v = +-1 mod |det a|.
    """
    n = len(a)
    d, v = linalg.smith_normal_form(a)
    assert all(d[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    divs = [d[i][i] for i in range(n)]
    assert all(x > 0 for x in divs)
    assert all(y % x == 0 for x, y in zip(divs, divs[1:]))
    av = linalg.mat_mul(a, v)
    assert all(row[j] % divs[j] == 0 for row in av for j in range(n))
    m = abs(linalg.det(a))
    assert math.prod(divs) == m
    dv = linalg.det(v)
    assert (dv - 1) % m == 0 or (dv + 1) % m == 0
    return divs


@settings(max_examples=50, deadline=None)
@given(int_matrices(3))
def test_smith_normal_form(a):
    assume(oracles.det(a) != 0)
    assert _check_smith(a) == oracles.invariant_factors(a)


def _kernel_input(seed):
    """A singular square, wide or tall matrix with 5-12 rows and entries up
    to 100.  Beyond the first k, its rows (columns, if tall) are sums or
    differences of one or two of the first k, which have entries up to 50."""
    rng = random.Random(seed)
    shape = ("square", "wide", "tall")[seed % 3]
    if shape == "square":
        r = c = rng.randint(5, 12)
        k = rng.randint(1, r - 1)
    elif shape == "wide":
        r = rng.randint(5, 11)
        c = rng.randint(r + 1, 12)
        k = rng.randint(1, r)
    else:
        c = rng.randint(6, 12)
        r = rng.randint(5, c - 1)
        k = rng.randint(1, r - 1)
    base = [[rng.randint(-50, 50) for _ in range(c)] for _ in range(k)]
    a = base[:]
    while len(a) < r:
        x, y = rng.choice(base), rng.choice(base)
        s, t = rng.choice((-1, 1)), rng.choice((-1, 0, 1))
        a.append([s * u + t * w for u, w in zip(x, y)])
    rng.shuffle(a)
    return [list(col) for col in zip(*a)] if shape == "tall" else a


def test_integer_kernel_annihilates():
    for seed in range(48):
        a = _kernel_input(seed)
        cols = len(a[0])
        kernel = linalg.integer_kernel(a)
        assert len(kernel) == cols - oracles.rank(a)
        for v in kernel:
            assert all(sum(row[j] * v[j] for j in range(cols)) == 0 for row in a)
        assert oracles.maximal_minor_gcd(kernel) == 1


def test_integer_kernel_saturated():
    # row 2x + 4y = 0 has primitive kernel generator (2, -1)
    kernel = linalg.integer_kernel([[2, 4]], cols=2)
    assert len(kernel) == 1
    x, y = kernel[0]
    assert 2 * x + 4 * y == 0
    from math import gcd

    assert gcd(x, y) == 1


# Ranks 8-20 with entries up to 100: the sizes where elimination bugs show.
# Matrices come from a drawn seed so that hypothesis never holds 400 entries.

seeds = st.integers(0, 2**32 - 1)


def _entry(rng, rational, hi=100):
    v = rng.randint(-hi, hi)
    return Fraction(v, rng.randint(1, 12)) if rational else v


def _general_system(seed):
    """A rows x cols matrix (dense, sparse enough to force row swaps, or
    rank deficient; integral or rational) and a right-hand side that is
    consistent or random."""
    rng = random.Random(seed)
    rows, cols = rng.randint(8, 20), rng.randint(8, 20)
    rational = rng.random() < 0.5
    shape = rng.choice(("dense", "sparse", "low_rank"))
    if shape != "low_rank":
        a = [[_entry(rng, rational) if shape == "dense" or rng.random() < 0.3 else 0
              for _ in range(cols)] for _ in range(rows)]
    else:
        k = rng.randint(0, min(rows, cols) - 1)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
        right = [[_entry(rng, rational) for _ in range(cols)] for _ in range(k)]
        a = linalg.mat_mul(left, right) or [[0] * cols for _ in range(rows)]
    if rng.random() < 0.5:
        x = [_entry(rng, rational, 5) for _ in range(cols)]
        b = [sum(row[j] * x[j] for j in range(cols)) for row in a]
    else:
        b = [_entry(rng, rational) for _ in range(rows)]
    return a, b


def _symmetric_form(seed):
    """A symmetric matrix of rank 8-20, with zero-diagonal cases that force
    both the swap and the add pivot of the symmetric pass."""
    rng = random.Random(seed)
    n = rng.randint(8, 20)
    mode = rng.choice(["dense", "zero_first", "zero_diagonal", "sparse_zero_diagonal",
                       "low_rank", "positive"])
    if mode in ("low_rank", "positive"):
        k = rng.randint(1, n - 1) if mode == "low_rank" else n
        v = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        w = [rng.choice((-3, -1, 1, 2)) if mode == "low_rank" else 1 for _ in range(k)]
        a = [[sum(v[t][i] * w[t] * v[t][j] for t in range(k)) + (mode == "positive" and i == j)
              for j in range(n)] for i in range(n)]
    else:
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if mode != "sparse_zero_diagonal" or rng.random() < 0.2:
                    a[i][j] = a[j][i] = rng.randint(-100, 100)
        if mode == "zero_first":
            a[0][0] = 0
            a[1][1] = a[1][1] or 1
        elif mode != "dense":
            for i in range(n):
                a[i][i] = 0
    if rng.random() < 0.3:
        den = rng.randint(2, 12)
        a = [[Fraction(x, den) for x in row] for row in a]
    return a


def _smith_input(seed, top=12):
    """A dense or symmetric nonsingular square matrix of rank 5..top, entries
    up to 100; a singular draw is drawn again from the same rng."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(5, top)
        a = [[rng.randint(-100, 100) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            a = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if oracles.det(a) != 0:
            return a


def test_smith_rejects_singular_and_rectangular():
    a = _smith_input(0)
    singular = a[:-1] + [[x - y for x, y in zip(a[0], a[1])]]
    for bad in (singular, a[:-1], [row[:-1] for row in a], [[0]]):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            linalg.smith_normal_form(bad)
        assert time.perf_counter() - start < 1.0


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_smith_contract_at_scale(seed):
    _check_smith(_smith_input(seed))


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_smith_matches_determinantal_divisors(seed):
    a = _smith_input(seed, top=5)
    assert _check_smith(a) == oracles.invariant_factors(a)


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_smith_matches_sympy(seed):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    a = _smith_input(seed)
    d, _v = linalg.smith_normal_form(a)
    want = invariant_factors(sympy.Matrix(a), domain=sympy.ZZ)
    assert [d[i][i] for i in range(len(want))] == [int(x) for x in want]


def test_smith_seeded_16x16_is_fast():
    rng = random.Random(16)
    a = [[0] * 16 for _ in range(16)]
    for i in range(16):
        for j in range(i, 16):
            a[i][j] = a[j][i] = rng.randint(-100, 100)
    start = time.perf_counter()
    linalg.smith_normal_form(a)
    assert time.perf_counter() - start < 1.0
    _check_smith(a)


def _lagging_system(seed):
    """A square, wide or tall matrix with 8-20 rows that is dense, sparse or
    a staircase (integral or rational), and a right-hand side.  In a
    staircase the first k >= 3 columns are zero below the first `top` rows,
    which are dense, so the lower rows skip k pivots before they are
    touched; the rows are then shuffled."""
    rng = random.Random(seed)
    rows = rng.randint(8, 20)
    cols = (rows, rng.randint(rows + 1, 24), rng.randint(4, rows - 1))[seed % 3]
    rational = rng.random() < 0.5
    shape = ("dense", "sparse", "staircase")[seed // 3 % 3]
    density = 0.25 if shape == "sparse" else 1
    a = [[_entry(rng, rational) if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)]
    if shape == "staircase":
        k = rng.randint(3, min(rows, cols) - 1)
        top = rng.randint(k, rows - 1)
        for row in a[top:]:
            row[:k] = [0] * k
        rng.shuffle(a)
    return a, [_entry(rng, rational) for _ in range(rows)]


@pytest.mark.parametrize("seed", range(36))
def test_gauss_jordan_matches_fraction_oracle(seed):
    a, b = _lagging_system(seed)
    m = linalg._integer_rows(a)[0]
    pivots, p, sign = linalg._gauss_jordan(m)
    ref, ref_pivots, ref_det = oracles.gauss_jordan(a)
    assert pivots == ref_pivots
    assert [[Fraction(x, p) for x in row] for row in m[:len(pivots)]] == ref[:len(pivots)]
    assert all(not any(row) for row in m[len(pivots):])
    assert linalg.rank(a) == oracles.rank(a)
    assert linalg.solve(a, b) == oracles.solve(a, b)
    if len(a) == len(a[0]):
        assert linalg.det(a) == oracles.det(a) == (ref_det if len(pivots) == len(a) else 0)
        assert linalg.inverse(a) == oracles.inverse(a)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_general_core_matches_oracle(seed):
    a, b = _general_system(seed)
    assert linalg.rank(a) == oracles.rank(a)
    assert linalg.solve(a, b) == oracles.solve(a, b)
    k = min(len(a), len(a[0]))
    square = [row[:k] for row in a[:k]]
    assert linalg.det(square) == oracles.det(square)
    assert linalg.inverse(square) == oracles.inverse(square)
    assert linalg.solve(square, b[:k]) == oracles.solve(square, b[:k])


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_symmetric_pass_diagonalizes(seed):
    a = _symmetric_form(seed)
    n = len(a)
    basis, diag = linalg.congruence_diagonalize(a)
    m, b = oracles.symmetric_pass(a, basis=True)
    assert basis == b
    assert diag == [m[i][i] for i in range(n)]
    assert linalg.inertia(a) == oracles.inertia(a)
    assert oracles.det(basis) != 0
    product = linalg.mat_mul(linalg.mat_mul(basis, a), [list(c) for c in zip(*basis)])
    assert product == [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_ldl_splits_positive_forms(seed):
    a = _symmetric_form(seed)
    n = len(a)
    p, _q, _z = oracles.inertia(a)
    if p < n:
        with pytest.raises(IndefiniteLattice):
            enumeration._integer_form(a)
        return
    rows, weights, k = enumeration._integer_form(a)
    assert all(row[:i] == [0] * i and row[i] > 0 for i, row in enumerate(rows))
    assert all(w > 0 for w in weights)
    assert [[sum(w * row[i] * row[j] for row, w in zip(rows, weights)) for j in range(n)]
            for i in range(n)] == [[k * x for x in row] for row in a]


@settings(max_examples=6, deadline=None)
@given(seeds)
def test_linalg_matches_sympy(seed):
    # DomainMatrix over QQ: sympy's Matrix.rank/inv take minutes on some draws
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    def qq(rows):
        return DomainMatrix([[QQ(Fraction(x).numerator, Fraction(x).denominator) for x in row]
                             for row in rows], (len(rows), len(rows[0])), QQ)

    def frac(q):
        return Fraction(int(q.numerator), int(q.denominator))

    a, b = _general_system(seed)
    m = qq(a)
    assert linalg.rank(a) == m.rank()
    k = min(len(a), len(a[0]))
    square = [row[:k] for row in a[:k]]
    s = qq(square)
    assert linalg.det(square) == frac(s.det())
    inv = linalg.inverse(square)
    if inv is None:
        assert s.rank() < k
    else:
        assert inv == [[frac(q) for q in row] for row in s.inv().to_list()]
    x = linalg.solve(a, b)
    column = qq([[c] for c in b])
    consistent = m.rank() == m.hstack(column).rank()
    assert (x is not None) == consistent
    if x is not None:
        assert m.matmul(qq([[c] for c in x])) == column
    form = _symmetric_form(seed)
    coeffs = qq(form).charpoly()
    # all roots are real, so Descartes' rule of signs counts them exactly
    nonzero = [c for c in coeffs if c != 0]
    changes = sum(1 for u, v in zip(nonzero, nonzero[1:]) if u * v < 0)
    zeros = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c != 0)
    assert linalg.inertia(form) == (changes, len(form) - zeros - changes, zeros)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: linalg.congruence_diagonalize([[1, 2], [0, 1]]), ValueError,
     "requires a symmetric matrix"),
    (lambda: linalg.congruence_diagonalize([[1, 2]]), ValueError, "requires a symmetric matrix"),
])
def test_error_paths(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
