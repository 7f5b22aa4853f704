"""Period planes, polarizers, and torus certification reports."""

import random
import time
from fractions import Fraction

import pytest

import oracles
from k3cycles import clifford, kuga_satake, linalg
from k3cycles.errors import (
    AmbientMismatch,
    BadPolarizer,
    BadSplitting,
    NotNegativePlane,
    RankLimitExceeded,
    UnsupportedSignature,
)
from k3cycles.kuga_satake import (
    default_splitting,
    j_element,
    ks_report,
    orthogonalize_plane,
    period_plane,
    polarizer,
    special_endo_basis,
    special_endo_lattice,
    special_endo_test,
)
from k3cycles.lattice import Lattice, signature

ONE_TWO = Lattice(((2, 0, 0), (0, -2, 0), (0, 0, -2)))
TWO_TWO = Lattice(((2, 1, 0, 0), (1, 2, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2)))
THREE_TWO = Lattice((
    (2, 0, 0, 0, 0),
    (0, 2, 0, 0, 0),
    (0, 0, 2, 0, 0),
    (0, 0, 0, -2, 0),
    (0, 0, 0, 0, -2),
))
CASES = (ONE_TWO, TWO_TWO, THREE_TWO)


def form_scale(lat, splitting, plane):
    """a.den * j.den: the factor between <x j, y> and riemann_blocks."""
    return polarizer(lat, splitting).den * j_element(plane)[0].den


def full_form(report):
    """The 2^rank x 2^rank matrix rebuilt from the two parity blocks."""
    n = report.torus_dim
    par = [m.bit_count() & 1 for m in range(n)]
    return [[report.riemann_blocks[par[s]][s >> 1][t >> 1] if par[s] == par[t] else 0
             for t in range(n)] for s in range(n)]


def tail_plane(lat):
    n = lat.rank
    z1 = tuple(1 if i == n - 2 else 0 for i in range(n))
    z2 = tuple(1 if i == n - 1 else 0 for i in range(n))
    return period_plane(lat, z1, z2)


class TestPeriodPlane:
    def test_requires_negative_plane(self):
        with pytest.raises(NotNegativePlane):
            period_plane(ONE_TWO, (1, 0, 0), (0, 1, 0))

    def test_requires_independence(self):
        with pytest.raises(NotNegativePlane):
            period_plane(ONE_TWO, (0, 1, 0), (0, 2, 0))

    def test_orthogonalize(self):
        z = period_plane(ONE_TWO, (0, 1, 0), (0, 1, 1))
        ortho = orthogonalize_plane(z)
        assert ortho.ambient is z.ambient
        assert ONE_TWO.inner(ortho.z1, ortho.z2) == 0
        # orientation and the plane itself are preserved
        assert ortho.z1 == z.z1

    def test_j_square(self):
        for lat in CASES:
            z = tail_plane(lat)
            j, c = j_element(z)
            assert c == -4
            assert clifford.multiply(j, j) == clifford.scalar_element(lat, c)
            assert c < 0


class TestPolarizer:
    def test_default_splitting_works(self):
        for lat in CASES:
            a = polarizer(lat, default_splitting(lat))
            assert clifford.main_involution(a) == -a
            assert clifford.parity(a) is clifford.GradedParity.EVEN

    def test_rejects_wrong_minus_rank(self):
        with pytest.raises(BadSplitting):
            polarizer(ONE_TWO, (((1, 0, 0),), ((0, 1, 0),)))

    def test_rejects_nonorthogonal_parts(self):
        splitting = (((1, 1, 0),), ((0, 1, 0), (0, 0, 1)))
        with pytest.raises(BadSplitting):
            polarizer(ONE_TWO, splitting)

    def test_rejects_positive_minus_part(self):
        lat = Lattice(((2, 0, 0), (0, 2, 0), (0, 0, -2)))
        splitting = (((0, 0, 1),), ((1, 0, 0), (0, 1, 0)))
        with pytest.raises(BadSplitting):
            polarizer(lat, splitting)

    def test_rejects_nonorthogonal_pair(self):
        lat = Lattice(((2, 0, 0), (0, -2, 1), (0, 1, -2)))
        splitting = (((1, 0, 0),), ((0, 1, 0), (0, 0, 1)))
        with pytest.raises(BadPolarizer):
            polarizer(lat, splitting)

    def test_unsupported_signature_for_default(self):
        with pytest.raises(UnsupportedSignature):
            default_splitting(Lattice(((2,),)))


class TestReport:
    def test_certifies_stated_signatures(self):
        for lat in CASES:
            report = ks_report(lat, default_splitting(lat), tail_plane(lat))
            n = 1 << lat.rank
            assert report.alternating_ok and report.symmetric_ok
            assert report.definite
            assert report.inertia in ((n, 0, 0), (0, n, 0))
            assert report.torus_dim == n
            assert report.complex_dim * 2 == n
            assert report.j_square_scalar == -4
            scale = form_scale(lat, default_splitting(lat), tail_plane(lat))
            assert all(x % scale == 0 for row in full_form(report) for x in row)

    def test_rejects_wrong_signature(self):
        with pytest.raises(UnsupportedSignature):
            ks_report(
                Lattice(((2, 0), (0, 2))),
                (((1, 0),), ((0, 1),)),
                None,
            )

    def test_plane_of_another_lattice_raises_before_clifford_work(self, monkeypatch):
        lat = Lattice(((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2)))
        other = Lattice(((4, 0, 0, 0), (0, 6, 0, 0), (0, 0, -2, 0), (0, 0, 0, -4)))
        splitting, plane = default_splitting(lat), tail_plane(other)

        def no_clifford(*_args, **_kwargs):
            raise AssertionError("Clifford work started on a foreign plane")

        for name in ("element", "multiply", "main_involution", "trace", "_table"):
            monkeypatch.setattr(clifford, name, no_clifford)
        with pytest.raises(AmbientMismatch):
            ks_report(lat, splitting, plane)

    def test_rank_cap_raises_before_clifford_work(self, monkeypatch):
        n = kuga_satake.KS_RANK_CAP + 1
        lat = Lattice(tuple(
            tuple((2 if i < n - 2 else -2) if i == j else 0 for j in range(n))
            for i in range(n)
        ))
        plane = tail_plane(lat)

        def no_clifford(*_args, **_kwargs):
            raise AssertionError("Clifford work started above the rank cap")

        for name in ("element", "multiply", "main_involution", "trace", "_table"):
            monkeypatch.setattr(clifford, name, no_clifford)
        start = time.perf_counter()
        with pytest.raises(RankLimitExceeded):
            ks_report(lat, default_splitting(lat), plane)
        assert time.perf_counter() - start < 0.5


def root_plane(k):
    """The Gram of A_k (+) <-2> (+) <-2>."""
    r = k + 2
    gram = [[0] * r for _ in range(r)]
    for i in range(k):
        gram[i][i] = 2
        if i + 1 < k:
            gram[i][i + 1] = gram[i + 1][i] = -1
    gram[k][k] = gram[k + 1][k + 1] = -2
    return gram


def ks_draw(seed, r):
    """A seeded signature (r - 2, 2) lattice, splitting and rational plane.

    seed % 3 picks A_{r-2} (+) <-2> (+) <-2> with the default splitting (0),
    a diagonal Gram under seeded shears (1), or A_{r-2} (+) <-2> (+) <-2>
    (2); the last two get an explicit splitting by the orthogonal basis
    f with every vector scaled by 1 to 3.  The plane vectors are rational
    combinations of the two negative basis vectors, so j often has
    denominators.
    """
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 1:
        d = [rng.choice((2, 4)) for _ in range(r - 2)] + [-2, rng.choice((-2, -4))]
        u = [[int(i == k) for k in range(r)] for i in range(r)]
        for _ in range(r):
            i, k = rng.sample(range(r), 2)
            sign = rng.choice((-1, 1))
            u[i] = [x + sign * y for x, y in zip(u[i], u[k])]
        gram = [[sum(u[i][m] * d[m] * u[k][m] for m in range(r)) for k in range(r)]
                for i in range(r)]
        # row k of u^-1 has norm d[k], and the rows are pairwise orthogonal
        f = [[int(x) for x in row] for row in linalg.inverse(u)]
    else:
        gram = root_plane(r - 2)
        f = [[int(i == k) for k in range(r)] for i in range(r)]
    lat = Lattice(tuple(map(tuple, gram)))
    if kind == 0:
        splitting = default_splitting(lat)
    else:
        rows = [[c * x for x in row] for row, c in zip(f, [rng.randint(1, 3) for _ in f])]
        splitting = (rows[: r - 2], rows[r - 2:])
    while True:
        p = [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
              for _ in range(2)] for _ in range(2)]
        if p[0][0] * p[1][1] != p[0][1] * p[1][0]:
            break
    z1, z2 = ([c[0] * x + c[1] * y for x, y in zip(f[r - 2], f[r - 1])] for c in p)
    return lat, splitting, period_plane(lat, z1, z2)


# (seed, rank).  The entry-by-entry oracle takes about 3 s at rank 7 and
# 5 s on a sheared rank-6 Gram, so those draws stay at rank 5 and below.
KS_DRAWS = [(0, 3), (1, 3), (2, 3), (3, 4), (4, 4), (5, 4), (6, 5), (7, 5),
            (8, 5), (13, 5), (9, 6), (11, 6), (41, 7)]


def test_ks_draws_cover_hard_cases():
    draws = [ks_draw(seed, r) for seed, r in KS_DRAWS]
    assert {r for _s, r in KS_DRAWS} == {3, 4, 5, 6, 7}
    assert all(signature(lat) == (lat.rank - 2, 2) for lat, _sp, _z in draws)
    # every Gram above rank 3 (A_1 is diagonal) is non-orthogonal, and
    # some are sheared beyond A_k
    assert all(any(lat.gram[i][k] for i in range(lat.rank) for k in range(i))
               for lat, _sp, _z in draws if lat.rank > 3)
    assert sum(seed % 3 == 1 for seed, _r in KS_DRAWS) >= 4
    assert 2 * sum(any(c.denominator > 1 for _, c in j_element(z)[0].coeffs)
                   for _lat, _sp, z in draws) >= len(draws)
    explicit = [sp for (seed, _r), (_l, sp, _z) in zip(KS_DRAWS, draws) if seed % 3]
    assert any(any(abs(x) > 1 for v in sp[1] for x in v) for sp in explicit)


@pytest.mark.parametrize("seed,rank", KS_DRAWS)
def test_report_matches_entrywise_oracle(seed, rank):
    lat, splitting, plane = ks_draw(seed, rank)
    report = ks_report(lat, splitting, plane)
    alt, sym = oracles.ks_forms(lat, polarizer(lat, splitting), j_element(plane)[0])
    n = 1 << rank
    scale = form_scale(lat, splitting, plane)
    assert full_form(report) == [[x * scale for x in row] for row in sym]
    assert report.alternating_ok == all(
        alt[s][t] == -alt[t][s] for s in range(n) for t in range(n))
    assert report.symmetric_ok == all(
        sym[s][t] == sym[t][s] for s in range(n) for t in range(n))
    assert report.alternating_ok and report.symmetric_ok and report.definite
    assert report.inertia == oracles.inertia(sym)


# Beyond the entrywise oracle: a sheared and an A6-plane draw at rank 8.
@pytest.mark.parametrize("seed", [1, 2])
def test_block_inertia_matches_full_form_at_rank_8(seed):
    lat, splitting, plane = ks_draw(seed, 8)
    report = ks_report(lat, splitting, plane)
    assert report.inertia == linalg.inertia(full_form(report))
    assert report.alternating_ok and report.symmetric_ok and report.definite


def test_rank_9_a7_plane_is_definite():
    lat, splitting, plane = ks_draw(2, 9)
    assert lat.gram[:7] == tuple(tuple(row) for row in root_plane(7)[:7])
    report = ks_report(lat, splitting, plane)
    assert report.inertia in ((512, 0, 0), (0, 512, 0))
    assert report.alternating_ok and report.symmetric_ok and report.definite


def _patched_polarizer(monkeypatch, change):
    real = kuga_satake.polarizer
    monkeypatch.setattr(kuga_satake, "polarizer", lambda lat, sp: change(real(lat, sp)))


def test_non_symmetric_form_raises_like_inertia(monkeypatch):
    # a + 1 is not involution-antisymmetric, so <x j, y> is not symmetric
    _patched_polarizer(monkeypatch, lambda a: a + clifford.scalar_element(a.ambient, 1))
    lat, splitting, plane = ks_draw(6, 5)
    with pytest.raises(ValueError, match="inertia requires a symmetric matrix"):
        ks_report(lat, splitting, plane)


def test_parity_split_is_checked(monkeypatch):
    # an odd polarizer joins even and odd monomials, so the blocks do not split
    _patched_polarizer(monkeypatch, lambda a: clifford.basis_element(a.ambient, 1))
    lat, splitting, plane = ks_draw(4, 4)
    with pytest.raises(ValueError, match="joins even and odd monomials"):
        ks_report(lat, splitting, plane)


class TestSpecialEndo:
    def test_orthogonality_equivalence(self):
        rng = random.Random(5)
        for lat in CASES:
            z = tail_plane(lat)
            for _ in range(40):
                x = [rng.randint(-4, 4) for _ in range(lat.rank)]
                expected = (
                    lat.inner(x, z.z1) == 0 and lat.inner(x, z.z2) == 0
                )
                assert special_endo_test(lat, x, z) == expected

    def test_lattice_restricts_gram(self):
        for lat in CASES:
            z = tail_plane(lat)
            basis = special_endo_basis(lat, z)
            endo = special_endo_lattice(lat, z)
            assert endo.rank == lat.rank - 2
            for i, u in enumerate(basis):
                for j, v in enumerate(basis):
                    assert endo.gram[i][j] == lat.inner(u, v)
            sig = signature(endo)
            full = signature(lat)
            assert sig == (full.pos - 0, full.neg - 2) or sig == (
                full.pos,
                full.neg - 2,
            )

    def test_skew_plane_lattice(self):
        # plane not aligned with coordinates
        lat = ONE_TWO
        z = period_plane(lat, (0, 1, 1), (0, 1, -1))
        endo = special_endo_lattice(lat, z)
        assert endo.gram == ((2,),)
