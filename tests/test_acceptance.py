"""End-to-end acceptance gate.

Ten numbered checks, each printing a single [criterion NN] PASS/FAIL
line with its runtime (run with -s to see them as they go).  Every
numeric claim is exact unless a tolerance is stated inline.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import oracles
from k3cycles import clifford, enumeration, gauss, kuga_satake, linalg, theta, transfer
from k3cycles.lattice import (
    Lattice,
    Signature,
    builtin_lattice,
    direct_sum,
    discriminant_group,
    signature,
)
from k3cycles.numberfield import TotallyRealField


@contextmanager
def criterion(num, label, budget):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok and elapsed < budget else "FAIL"
        print(f"[criterion {num:02d}] {status} in {elapsed:.2f}s - {label}")
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"


def random_even_lattice(rng, max_rank=6, det_cap=600):
    while True:
        r = rng.randint(1, max_rank)
        g = [[0] * r for _ in range(r)]
        for i in range(r):
            g[i][i] = 2 * rng.randint(-3, 3)
            for j in range(i + 1, r):
                g[i][j] = g[j][i] = rng.randint(-2, 2)
        lat = Lattice(tuple(tuple(row) for row in g))
        if lat.det != 0 and abs(lat.det) <= det_cap:
            return lat


def random_posdef_lattice(rng, max_rank=4):
    while True:
        r = rng.randint(1, max_rank)
        a = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
        if linalg.det(a) == 0:
            continue
        g = [
            [sum(a[k][i] * a[k][j] for k in range(r)) + 2 * (i == j) for j in range(r)]
            for i in range(r)
        ]
        return Lattice(tuple(tuple(row) for row in g))


def random_unimodular(rng, r, shears=3):
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(shears):
        i, j = rng.sample(range(r), 2)
        c = rng.choice((-1, 1))
        for k in range(r):
            u[i][k] += c * u[j][k]
    return u


def test_criterion_01_k3_invariants():
    with criterion(1, "K3 lattice invariants exact", 1.0):
        lat = builtin_lattice("K3")
        assert signature(lat) == Signature(3, 19)
        assert lat.even
        assert abs(lat.det) == 1
        assert discriminant_group(lat).order == 1


def test_criterion_02_e8_theta_is_eisenstein():
    with criterion(2, "theta(E8) = 240*sigma_3, first 10 indices", 30.0):
        exp = theta.theta_coeffs(builtin_lattice("E8"), None, bound=20)
        table = dict(exp.coeffs)
        assert table[Fraction(0)] == 1
        for n in range(1, 11):
            assert table[Fraction(2 * n)] == 240 * oracles.sigma(3, n)


def test_criterion_03_milgram_fuzz():
    with criterion(3, "Milgram formula on 20 random even lattices", 60.0):
        rng = random.Random(1003)
        for _ in range(20):
            lat = random_even_lattice(rng)
            res = gauss.milgram_invariant(lat)
            assert res.agrees
            assert res.error < 1e-9


def test_criterion_04_enumeration_oracle_equivalence():
    with criterion(4, "Fincke-Pohst vs box counts, 50 lattices, t <= 50", 120.0):
        rng = random.Random(1004)
        for _ in range(50):
            lat = random_posdef_lattice(rng)
            assert enumeration.norm_histogram(lat, None, 50) == oracles.box_histogram(
                lat, 50
            )


def test_criterion_05_tuple_covariance():
    with criterion(5, "tuple counts invariant under 25 unimodular changes", 60.0):
        a1a1 = direct_sum(builtin_lattice("A1"), builtin_lattice("A1"))
        base = ((2, 0), (0, 2))
        assert enumeration.tuple_rep_count(a1a1, base) == 8
        rng = random.Random(1005)
        cases = [
            (a1a1, base),
            (a1a1, ((2, 1), (1, 4))),
            (Lattice(((2, 0, 0), (0, 2, 0), (0, 0, 4))), ((2, 0), (0, 4))),
        ]
        for lat, target in cases:
            expected = enumeration.tuple_rep_count(lat, target)
            for _ in range(25):
                r = len(target)
                u = random_unimodular(rng, r)
                changed = tuple(
                    tuple(
                        sum(
                            u[a][i] * target[a][b] * u[b][j]
                            for a in range(r)
                            for b in range(r)
                        )
                        for j in range(r)
                    )
                    for i in range(r)
                )
                if any(changed[i][i] < 0 for i in range(r)):
                    continue
                assert enumeration.tuple_rep_count(lat, changed) == expected


CLIFFORD_LATTICES = (
    builtin_lattice("A1"),
    Lattice(((2, 1), (1, 2))),
    Lattice(((2, 0, 0), (0, -2, 0), (0, 0, 2))),
    direct_sum(builtin_lattice("H"), builtin_lattice("A1")),
)


def random_clifford_element(rng, lat):
    dim = 1 << lat.rank
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randrange(dim)] = Fraction(rng.randint(-3, 3))
    return clifford.element(lat, terms)


def test_criterion_06_clifford_properties():
    with criterion(6, "Clifford suite, 100 triples x 4 lattices", 30.0):
        rng = random.Random(1006)
        for lat in CLIFFORD_LATTICES:
            for _ in range(100):
                x = random_clifford_element(rng, lat)
                y = random_clifford_element(rng, lat)
                z = random_clifford_element(rng, lat)
                xy = clifford.multiply(x, y)
                assert clifford.multiply(xy, z) == clifford.multiply(
                    x, clifford.multiply(y, z)
                )
                # iota is an anti-automorphism
                assert clifford.main_involution(xy) == clifford.multiply(
                    clifford.main_involution(y), clifford.main_involution(x)
                )
                # integer inputs stay integer
                assert all(c.denominator == 1 for _m, c in xy.coeffs)
            # parity grading on monomials
            for _ in range(50):
                dim = 1 << lat.rank
                m, n = rng.randrange(dim), rng.randrange(dim)
                prod = clifford.multiply(
                    clifford.element(lat, {m: Fraction(1)}),
                    clifford.element(lat, {n: Fraction(1)}),
                )
                if prod.coeffs:
                    want = (m.bit_count() + n.bit_count()) % 2
                    assert clifford.parity(prod) == (
                        clifford.GradedParity.ODD if want else clifford.GradedParity.EVEN
                    )
            # v^2 = (v, v)
            for _ in range(25):
                v = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
                ve = clifford.vector_element(lat, v)
                sq = clifford.multiply(ve, ve)
                assert clifford.scalar_part(sq) == lat.inner(v, v)
                assert all(m == 0 for m, _c in sq.coeffs)


KS_CASES = (
    Lattice(((2, 0, 0), (0, -2, 0), (0, 0, -2))),
    Lattice(((2, 1, 0, 0), (1, 2, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2))),
    Lattice(
        (
            (2, 0, 0, 0, 0),
            (0, 2, 0, 0, 0),
            (0, 0, 2, 0, 0),
            (0, 0, 0, -2, 0),
            (0, 0, 0, 0, -2),
        )
    ),
)


def test_criterion_07_kuga_satake_certification():
    with criterion(7, "Kuga-Satake certification on (1,2), (2,2), (3,2)", 120.0):
        rng = random.Random(1007)
        for lat in KS_CASES:
            r = lat.rank
            z1 = tuple(int(i == r - 2) for i in range(r))
            z2 = tuple(int(i == r - 1) for i in range(r))
            plane = kuga_satake.period_plane(lat, z1, z2)
            report = kuga_satake.ks_report(
                lat, kuga_satake.default_splitting(lat), plane
            )
            assert report.j_square_scalar == -(lat.inner(z1, z1) * lat.inner(z2, z2))
            assert report.alternating_ok and report.symmetric_ok and report.definite
            dim = 1 << r
            assert report.inertia in ((dim, 0, 0), (0, dim, 0))
            # <x j, y> is integral: a.den * j.den divides every entry of the
            # dense oracle's blocks
            a = kuga_satake.polarizer(lat, kuga_satake.default_splitting(lat))
            j = kuga_satake.j_element(plane)[0]
            _alt, sym = oracles.ks_blocks(lat, a, j)
            assert all(x % (a.den * j.den) == 0 for block in sym for row in block for x in row)
            # membership test agrees with orthogonality, random pairs
            for zpair in ((z1, z2), (z1, tuple(a + b for a, b in zip(z1, z2)))):
                pl = kuga_satake.period_plane(lat, *zpair)
                for _ in range(34):
                    x = tuple(rng.randint(-3, 3) for _ in range(r))
                    want = lat.inner(x, zpair[0]) == 0 and lat.inner(x, zpair[1]) == 0
                    assert kuga_satake.special_endo_test(lat, x, pl) == want
            endo = kuga_satake.special_endo_lattice(lat, plane)
            basis = kuga_satake.special_endo_basis(lat, plane)
            assert endo.rank == r - 2
            for i, u in enumerate(basis):
                for j, v in enumerate(basis):
                    assert endo.gram[i][j] == lat.inner(u, v)


def test_criterion_08_transfer_suite():
    with criterion(8, "trace transfer: sqrt(2) example and additivity", 60.0):
        sqrt2 = TotallyRealField.quadratic(2)
        m = transfer.diagonal_lattice(sqrt2, [[0, 1], [0, 1]])
        assert signature(transfer.trace_lattice(m)) == Signature(2, 2)
        assert transfer.ks_admissible(m) is True
        rng = random.Random(1008)
        for field in (sqrt2, TotallyRealField(poly=(-1, -3, 0, 1))):
            for _ in range(20):
                entries = []
                while len(entries) < rng.randint(1, 3):
                    coords = tuple(rng.randint(-3, 3) for _ in range(field.degree))
                    x = field.element(coords)
                    if all(
                        field.sign_at(i, x) != 0 for i in range(field.degree)
                    ):
                        entries.append(x)
                diag = transfer.diagonal_lattice(field, entries)
                prof = transfer.signature_profile(diag)
                total = signature(transfer.trace_lattice(diag))
                assert total.pos == sum(p.pos for p in prof)
                assert total.neg == sum(p.neg for p in prof)


def test_criterion_09_feasibility_table():
    with criterion(9, "feasibility CSV byte-match", 5.0):
        with open("tests/data/feasibility_table.csv", encoding="utf-8") as fh:
            golden = fh.read()
        assert transfer.feasibility_csv() == golden
        rows = transfer.feasibility_table()
        assert [r.n for r in rows if r.d == 6] == [10, 16]


def test_criterion_10_transform_residuals():
    with criterion(10, "theta inversion residuals < 1e-8", 180.0):
        e8 = builtin_lattice("E8")
        for tau in (1j, 2j, 0.3 + 0.9j):
            assert theta.theta_transform_check(e8, tau, 20) < 1e-8
        assert theta.theta_transform_check(builtin_lattice("A1"), 2j, 60) < 1e-8
