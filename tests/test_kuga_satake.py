"""Period planes, polarizers, and torus certification reports."""

import random
import time
from fractions import Fraction

import pytest

from k3cycles import clifford, kuga_satake
from k3cycles.errors import (
    BadPolarizer,
    BadSplitting,
    NotNegativePlane,
    RankLimitExceeded,
    UnsupportedSignature,
)
from k3cycles.kuga_satake import (
    commutation_profile,
    default_splitting,
    j_element,
    ks_report,
    orthogonalize_plane,
    period_plane,
    polarizer,
    riemann_form,
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


class TestRiemannForm:
    def test_alternating_and_integral(self):
        lat = ONE_TWO
        splitting = default_splitting(lat)
        rng = random.Random(3)
        size = 1 << lat.rank
        for _ in range(15):
            x = clifford.element(
                lat, {m: rng.randint(-2, 2) for m in range(size)}
            )
            y = clifford.element(
                lat, {m: rng.randint(-2, 2) for m in range(size)}
            )
            fxy = riemann_form(lat, splitting, x, y)
            fyx = riemann_form(lat, splitting, y, x)
            assert fxy == -fyx
            assert fxy.denominator == 1
            assert riemann_form(lat, splitting, x, x) == 0


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
            assert all(
                v.denominator == 1 for row in report.riemann_gram for v in row
            )

    def test_rejects_wrong_signature(self):
        with pytest.raises(UnsupportedSignature):
            ks_report(
                Lattice(((2, 0), (0, 2))),
                (((1, 0),), ((0, 1),)),
                None,
            )

    def test_rank_cap_raises_before_clifford_work(self, monkeypatch):
        lat = Lattice(tuple(
            tuple((2 if i < 7 else -2) if i == j else 0 for j in range(9))
            for i in range(9)
        ))
        plane = tail_plane(lat)

        def no_clifford(*_args, **_kwargs):
            raise AssertionError("Clifford work started above the rank cap")

        for name in ("element", "multiply", "main_involution", "trace"):
            monkeypatch.setattr(clifford, name, no_clifford)
        start = time.perf_counter()
        with pytest.raises(RankLimitExceeded):
            ks_report(lat, default_splitting(lat), plane)
        assert time.perf_counter() - start < 0.5


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


class TestCommutation:
    def test_profile_on_orthogonal_lattices(self):
        for lat in (ONE_TWO, THREE_TWO):
            prof = commutation_profile(lat, tuple([1] + [0] * (lat.rank - 1)))
            assert prof.delta_commutes == (lat.rank % 2 == 1)
            assert prof.parity_rule_ok

    def test_profile_even_rank(self):
        lat = Lattice(((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2)))
        prof = commutation_profile(lat, (1, 0, 0, 0))
        assert prof.parity_rule_ok
        assert not prof.delta_commutes

    def test_profile_honest_on_skew_gram(self):
        # with a non-orthogonal Gram the parity heuristic may simply fail,
        # and the profile reports that instead of papering over it
        prof = commutation_profile(TWO_TWO, (1, 0, 0, 0))
        assert not prof.delta_commutes
        assert not prof.parity_rule_ok
