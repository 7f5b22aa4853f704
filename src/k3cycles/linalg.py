"""Exact linear algebra over the rationals and the integers.

Matrices are lists of lists, row major.  Two loops do all the rational
elimination, both on integer rows after clearing row denominators, and
Fraction appears only in the results.  _gauss_jordan is a fraction-free
(Bareiss) Gauss-Jordan, every entry an integer minor; det, rank, solve
and inverse divide by its pivot only to build their results.
_symmetric_pass, the Schur pass behind inertia, congruence_diagonalize
and the enumeration LDL, keeps each row over its own denominator in
lowest terms instead of a common Bareiss scale, so a step touches only
the rows with a nonzero multiplier, which keeps the nearly diagonal
Clifford forms cheap.  The Smith loop behind discriminant groups takes
square nonsingular input only and works modulo |det|
(Domich-Kannan-Trotter), so its entries stay below |det|.  Integer
kernels need only its column half: a unimodular column reduction.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import compress

Matrix = list[list[Fraction]]
IntMatrix = list[list[int]]


def int_identity(n: int) -> IntMatrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def is_symmetric(a) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and all(
        list(row) == list(col) for row, col in zip(a, zip(*a)))


def _integer_rows(a) -> tuple[IntMatrix, list[int]]:
    """Rows of an int/Fraction matrix times the lcm of their denominators
    (same row space), and those lcms."""
    rows, scales = [], []
    for row in a:
        s = math.lcm(*[x.denominator for x in row])
        rows.append([x.numerator * (s // x.denominator) for x in row] if s > 1
                    else [x.numerator for x in row])
        scales.append(s)
    return rows, scales


def _gauss_jordan(m: IntMatrix) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Returns (pivots, p, sign): row r ends with p in column pivots[r] and
    zeros in the other pivot columns, so m / p is the reduced row echelon
    form; p is the leading pivot minor and sign the parity of the row
    swaps.  The division by the previous pivot is exact (Bareiss).
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    p, sign = 1, 1
    level = [1] * rows  # row r is m[r] * p / level[r]: rescaled only when used
    for col in range(cols):
        rk = len(pivots)
        if rk == rows:
            break
        piv = next((r for r in range(rk, rows) if m[r][col]), None)
        if piv is None:
            continue
        if piv != rk:
            m[rk], m[piv] = m[piv], m[rk]
            level[rk], level[piv] = level[piv], level[rk]
            sign = -sign
        if level[rk] != p:
            m[rk] = [x * p // level[rk] for x in m[rk]]
        top = m[rk]
        q = level[rk] = top[col]
        for r, row in enumerate(m):
            f, lv = row[col], level[r]
            if f and r != rk:  # (q * row * p / lv - f * p / lv * top) / p
                m[r] = [(q * x - f * y) // lv for x, y in zip(row, top)]
                level[r] = q
        pivots.append(col)
        p = q
    m[:] = [row if lv == p else [x * p // lv for x in row] for row, lv in zip(m, level)]
    return pivots, p, sign


def _require_square(a, what: str) -> None:
    if any(len(row) != len(a) for row in a):
        raise ValueError(f"{what} requires a square matrix")


def det(a) -> Fraction:
    """Exact determinant of a square int/Fraction matrix."""
    _require_square(a, "det")
    m, scales = _integer_rows(a)
    pivots, p, sign = _gauss_jordan(m)
    return Fraction(sign * p, math.prod(scales)) if len(pivots) == len(m) else Fraction(0)


def rank(a) -> int:
    return len(_gauss_jordan(_integer_rows(a)[0])[0])


def solve(a: Matrix, b: Sequence[Fraction]) -> list[Fraction] | None:
    """One solution of a*x = b over Q, or None if inconsistent.

    For singular square systems the free coordinates are set to zero.
    """
    cols = len(a[0]) if a else 0
    m, _ = _integer_rows([list(row) + [rhs] for row, rhs in zip(a, b)])
    pivots, p, _ = _gauss_jordan(m)
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for row, col in zip(m, pivots):
        x[col] = Fraction(row[cols], p)
    return x


def inverse(a: Matrix) -> Matrix | None:
    _require_square(a, "inverse")
    n = len(a)
    m, _ = _integer_rows([list(a[i]) + [int(i == j) for j in range(n)]
                          for i in range(n)])
    pivots, p, _ = _gauss_jordan(m)
    if pivots[:n] != list(range(n)):
        return None
    return [[Fraction(x, p) for x in row[n:]] for row in m]


def _symmetric_pass(a, basis: bool = False) -> tuple[IntMatrix, list[int]]:
    """Congruence diagonalization of a symmetric matrix by Schur steps, on
    integer rows over positive row denominators.

    Returns (m, s): d_i = m[i][i] / s[i], and from column i on, row i over
    s[i] is the pivot row of step i (the LDL rows when a is positive
    definite, as then no pivoting happens).  A zero pivot is swapped with a
    later nonzero diagonal entry, or else becomes 2*m[i][j] by adding row
    and column j; with no such j, d_i = 0.  With basis, row i goes on with
    n more entries, over the same s[i], that form a row b_i with
    b_i . a . b_j = d_i if i = j and 0 otherwise.  A step touches only the
    rows with a nonzero multiplier, and a row it rescales is reduced to
    lowest terms; entries left of the current column are stale.
    """
    n = len(a)
    m, s = _integer_rows(a)
    if basis:
        for i, row in enumerate(m):
            row += [s[i] * (i == j) for j in range(n)]

    def reduce(r, lo):
        g = math.gcd(s[r], *m[r][lo:])
        if g > 1:
            m[r][lo:] = [x // g for x in m[r][lo:]]
            s[r] //= g

    for i in range(n):
        if m[i][i] == 0:
            j = next((k for k in range(i + 1, n) if m[k][k]), None)
            if j is not None:
                m[i], m[j] = m[j], m[i]
                s[i], s[j] = s[j], s[i]
                for row in m[i:]:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((k for k in range(i + 1, n) if m[i][k]), None)
                if j is None:
                    continue
                si, sj = s[i], s[j]
                m[i][i:] = [x * sj + y * si for x, y in zip(m[i][i:], m[j][i:])]
                s[i] = si * sj
                for row in m[i:]:
                    row[i] += row[j]
                reduce(i, i)
        top = m[i]
        p = top[i]
        cols = list(compress(range(i + 1, len(top)), top[i + 1:]))
        for r in range(i + 1, n):
            row = m[r]
            if row[i]:
                # row -= (f / q) * top with f / q = row[i] / p in lowest terms
                g = math.gcd(row[i], p)
                q, f = abs(p) // g, row[i] // g * (1 if p > 0 else -1)
                if q > 1:
                    row[i + 1:] = [q * x for x in row[i + 1:]]
                    s[r] *= q
                for c in cols:
                    row[c] -= f * top[c]
                if q > 1:
                    reduce(r, i + 1)
    return m, s


def inertia(a) -> tuple[int, int, int]:
    """Sylvester inertia (p, q, z) of a symmetric rational matrix.

    Computed by congruence diagonalization with exact pivoting; z counts
    zero eigenvalues, so a nondegenerate form has z = 0.
    """
    if not is_symmetric(a):
        raise ValueError("inertia requires a symmetric matrix")
    m, _ = _symmetric_pass(a)
    d = [row[i] for i, row in enumerate(m)]
    p, q = sum(x > 0 for x in d), sum(x < 0 for x in d)
    return p, q, len(d) - p - q


def congruence_diagonalize(a) -> tuple[Matrix, list[Fraction]]:
    """Rational basis diagonalizing a symmetric form: rows b with
    b[i] . a . b[j] = d[i] when i = j and 0 otherwise.

    Degenerate directions come out with d[i] = 0.  Same pivoting as
    inertia, but the congruence transform is recorded.
    """
    if not is_symmetric(a):
        raise ValueError("congruence diagonalization requires a symmetric matrix")
    n = len(a)
    m, s = _symmetric_pass(a, basis=True)
    return ([[Fraction(x, si) for x in row[n:]] for row, si in zip(m, s)],
            [Fraction(row[i], si) for i, (row, si) in enumerate(zip(m, s))])


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Return (d, v) for a square nonsingular integer matrix a: d diagonal
    with positive entries d1 | d2 | ... and prod d_j = M = |det a|, and v a
    right transform with a * v_j divisible by d_j for every column v_j and
    det v = +-1 mod M.

    The loop works modulo M: entries of d and v with |x| >= M are replaced
    by their symmetric residues (adding rows M*e_j, which lie in the row
    lattice of a), so a zero entry stands for M, and at the end
    d_j = gcd(d_j, M).  Singular or rectangular a raises ValueError.
    """
    m = abs(int(det(a)))
    if not m:
        raise ValueError("smith_normal_form requires a nonsingular matrix")
    n, half = len(a), m // 2

    def red(x):
        return (x + half) % m - half if abs(x) >= m else x

    d = [[red(int(x)) for x in row] for row in a]
    v = int_identity(n)

    def row_op(i, j, f):  # row_i -= f * row_j
        d[i] = [red(x - f * y) for x, y in zip(d[i], d[j])]

    def col_op(i, j, f):  # col_i -= f * col_j
        for mat in (d, v):
            for row in mat:
                row[i] = red(row[i] - f * row[j])

    def swap_cols(i, j):
        for mat in (d, v):
            for row in mat:
                row[i], row[j] = row[j], row[i]

    t = 0
    while t < n:
        # the first entry of least magnitude in the trailing block; every
        # |x| < M, so a zero is picked only when the whole block is zero
        bi, bj = min(((i, j) for i in range(t, n) for j in range(t, n)),
                     key=lambda ij: abs(d[ij[0]][ij[1]]) or m)
        d[t], d[bi] = d[bi], d[t]
        swap_cols(t, bj)
        while True:
            dirty = False
            for i in range(t + 1, n):
                if d[i][t] != 0:
                    row_op(i, t, d[i][t] // d[t][t])
                    if d[i][t] != 0:
                        d[t], d[i] = d[i], d[t]
                    dirty = True
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    col_op(j, t, d[t][j] // d[t][t])
                    if d[t][j] != 0:
                        swap_cols(t, j)
                    dirty = True
            if not dirty:
                break
        # enforce divisibility of the rest of the block by the pivot
        offender = next((i for i in range(t + 1, n)
                         if any(x % (d[t][t] or m) for x in d[i][t + 1:])), None)
        if offender is not None:
            row_op(t, offender, -1)  # add offending row, then reduce again
            continue
        t += 1
    for i in range(n):
        d[i][i] = math.gcd(d[i][i], m)
    return d, v


def integer_kernel(a: IntMatrix, cols: int | None = None) -> list[list[int]]:
    """Saturated basis of {x in Z^cols : a*x = 0} (list of int vectors).

    Column reduction (Cohen, GTM 138, 2.4): each column is kept as its image
    under a followed by its coordinate vector.  Row by row, the first
    unfinished column with the least nonzero |entry| in that row becomes
    the pivot, and floor multiples of it are subtracted from the later
    columns, until only the pivot is left nonzero in the row.  The
    transform is unimodular, so the coordinate parts of the columns past
    the last pivot are a saturated basis.
    """
    rows = len(a)
    n = len(a[0]) if rows else cols or 0
    c = [[row[j] for row in a] + [int(k == j) for k in range(n)] for j in range(n)]
    t = 0
    for i in range(rows):
        while live := [j for j in range(t, n) if c[j][i]]:
            p = min(live, key=lambda j: abs(c[j][i]))
            c[t], c[p] = c[p], c[t]
            if len(live) == 1:
                t += 1
                break
            top = c[t]
            for j in range(t + 1, n):
                f = c[j][i] // top[i]
                if f:
                    c[j] = [x - f * y for x, y in zip(c[j], top)]
    return [col[rows:] for col in c[t:]]
