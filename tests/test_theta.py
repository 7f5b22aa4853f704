"""Theta q-expansions, Eisenstein coefficients, inversion symmetry."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
from k3cycles import linalg, theta
from k3cycles.errors import EnumerationLimitExceeded, InvalidTau, UnsupportedWeight
from k3cycles.lattice import Lattice, direct_sum, e8_lattice, root_a1
from k3cycles.theta import (
    bernoulli,
    eisenstein_sigma_coeffs,
    siegel_theta_table,
    theta_coeffs,
    theta_transform_check,
    theta_value,
)

SIGMA3 = [oracles.sigma(3, n) for n in range(1, 11)]


class TestThetaCoeffs:
    def test_a1_series(self):
        exp = theta_coeffs(root_a1(), bound=20)
        assert exp.as_dict() == {
            Fraction(0): 1,
            Fraction(2): 2,
            Fraction(8): 2,
            Fraction(18): 2,
        }
        assert exp.weight == Fraction(1, 2)

    def test_shifted_a1(self):
        exp = theta_coeffs(root_a1(), (Fraction(1, 2),), bound=5)
        assert exp.as_dict() == {Fraction(1, 2): 2, Fraction(9, 2): 2}

    def test_constant_term_tracks_shift(self):
        assert theta_coeffs(root_a1(), None, bound=0).coefficient(0) == 1
        assert theta_coeffs(root_a1(), (Fraction(1, 3),), bound=0).coefficient(0) == 0

    def test_coefficient_lookup(self):
        exp = theta_coeffs(root_a1(), bound=4)
        assert exp.coefficient(2) == 2
        assert exp.coefficient(3) == 0

    def test_matches_box_histogram(self):
        lat = direct_sum(root_a1(), root_a1())
        exp = theta_coeffs(lat, bound=12)
        assert exp.as_dict() == {
            k: Fraction(v) for k, v in oracles.box_histogram(lat, 12).items()
        }


class TestEisenstein:
    def test_bernoulli_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(8) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_weight_four_is_sigma3(self):
        exp = eisenstein_sigma_coeffs(4, 10)
        assert exp.coefficient(0) == 1
        for n in range(1, 11):
            assert exp.coefficient(n) == 240 * SIGMA3[n - 1]

    def test_weight_six(self):
        exp = eisenstein_sigma_coeffs(6, 4)
        for n in range(1, 5):
            assert exp.coefficient(n) == -504 * oracles.sigma(5, n)

    def test_rejects_bad_weight(self):
        for k in (2, 3, 5):
            with pytest.raises(UnsupportedWeight):
                eisenstein_sigma_coeffs(k, 4)

    def test_e8_is_weight_four_eisenstein(self):
        # theta exponents use norms, so norm 2n pairs with index n
        theta = theta_coeffs(e8_lattice(), bound=12)
        eis = eisenstein_sigma_coeffs(4, 6)
        for n in range(0, 7):
            assert theta.coefficient(2 * n) == eis.coefficient(n)


class TestNumericalTheta:
    def test_rejects_lower_half(self):
        with pytest.raises(InvalidTau):
            theta_value(root_a1(), None, 1 - 1j, 10)

    @pytest.mark.parametrize("tau", [complex(0, math.inf), complex(math.nan, 1),
                                     complex(math.inf, 1), complex(math.nan, math.nan)])
    def test_rejects_non_finite(self, tau):
        with pytest.raises(InvalidTau, match="finite"):
            theta_value(root_a1(), None, tau, 10)
        with pytest.raises(InvalidTau, match="finite"):
            theta_transform_check(root_a1(), tau, 10)

    def test_a1_value_agrees_with_direct_sum(self):
        import cmath

        tau = 0.1 + 1.2j
        val = theta_value(root_a1(), None, tau, 80)
        direct = sum(
            cmath.exp(1j * cmath.pi * (2 * n * n) * tau) for n in range(-40, 41)
        )
        assert abs(val.value - direct) < 1e-12 + val.tail_bound

    # the tail of A1 above norm 4 at tau = iv is theta_3(2iv) - 1 - 2exp(-2 pi v),
    # at least sqrt(1/(2v)) - 3 by Poisson summation; below Im tau = 1e-4 the
    # 200000 terms of _tail_bound do not reach its stopping rule, and its
    # geometric remainder keeps the bound finite down to about 1e-6
    @pytest.mark.parametrize("im, finite", [(1e-4, True), (5e-5, True), (1e-6, True),
                                            (1e-7, False), (1e-16, False), (1e-18, False)])
    def test_tail_bound_is_a_bound_or_inf(self, im, finite):
        tol = theta_value(root_a1(), None, complex(0, im), 4).tail_bound
        assert math.isfinite(tol) == finite
        assert tol >= math.sqrt(1 / (2 * im)) - 3

    def test_transform_a1(self):
        assert theta_transform_check(root_a1(), 2j, bound=60) < 1e-8

    def test_transform_rational_coset_lattice(self):
        lat = Lattice(((2, 0), (0, 4)))
        assert theta_transform_check(lat, 1.5j, bound=40) < 1e-8

    def test_transform_sweeps_share_one_budget(self, monkeypatch):
        # A2 + A2 to bound 4 sweeps 5 of its 9 cosets in 43 + 46 + 50 + 52 + 52
        # nodes, so the whole check needs a budget of 243
        a2 = Lattice(((2, 1), (1, 2)))
        monkeypatch.setenv("K3CYCLES_ENUM_LIMIT", "243")
        theta_transform_check(direct_sum(a2, a2), 0.3 + 0.9j, 4)
        monkeypatch.setenv("K3CYCLES_ENUM_LIMIT", "242")
        with pytest.raises(EnumerationLimitExceeded):
            theta_transform_check(direct_sum(a2, a2), 0.3 + 0.9j, 4)


class TestSiegelTable:
    def test_pair_table_contains_tuple_counts(self):
        lat = direct_sum(root_a1(), root_a1())
        table = siegel_theta_table(lat, 2, 4)
        assert table.count(((2, 0), (0, 2))) == 8
        assert table.rank_of(((2, 0), (0, 2))) == 2
        # inner products in diag(2,2) are even, so (x,y)=1 never happens
        assert table.count(((2, 1), (1, 2))) == 0

    def test_lookup_agrees_with_entries(self):
        table = siegel_theta_table(direct_sum(root_a1(), root_a1()), 2, 4)
        for target, rank, count in table.entries:
            assert table.count([list(row) for row in target]) == count
            assert table.rank_of(target) == rank
        for lookup in (table.count, table.rank_of):
            with pytest.raises(KeyError, match="target outside the tabulated range"):
                lookup(((6, 0), (0, 0)))
            # a rational target is not the tabulated integer one below it
            with pytest.raises(KeyError, match="target outside the tabulated range"):
                lookup(((Fraction(1, 2), 0), (0, 0)))

    def test_entries_match_box_oracle(self):
        # small positive definite Grams (odd ones included), so many
        # targets up to trace 4 have tuples
        rng = random.Random(1312)
        cases = full_rank_hits = 0
        while cases < 20:
            n = rng.randint(2, 3)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                gram[i][i] = rng.randint(1, 3)
                for j in range(i):
                    gram[i][j] = gram[j][i] = rng.randint(-1, 1)
            if linalg.inertia(gram)[0] < n:
                continue
            lat = Lattice(tuple(map(tuple, gram)))
            table = siegel_theta_table(lat, 1 + cases % 2, 4)
            cases += 1
            for target, rank, count in table.entries:
                assert count == oracles.box_tuple_count(lat, target), (gram, target)
                full_rank_hits += rank == 2 and count > 0
        assert full_rank_hits >= 20


def d16_plus() -> Lattice:
    """D16+ = D16 + Z g, g = (1/2, ..., 1/2), from the D16 simple roots
    b_i = e_i - e_{i+1} (i < 16), b_16 = e_15 + e_16.

    g, b_2, ..., b_16 is a basis: b_1 = 2g + (a vector of D15 on the last
    fifteen coordinates).
    """
    n = 16
    roots = [[int(k == i) - int(k == i + 1) for k in range(n)] for i in range(n - 1)]
    roots.append([int(k >= n - 2) for k in range(n)])
    basis = [[Fraction(1, 2)] * n] + roots[1:]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    assert all(x.denominator == 1 for row in gram for x in row)
    return Lattice(tuple(tuple(int(x) for x in row) for row in gram))


def test_witt_e8e8_d16_plus_genus2():
    """E8+E8 and D16+ are not isometric, but their Siegel theta series
    agree through genus 3 (Witt; Igusa): check genus 2 to trace 4."""
    d16 = d16_plus()
    assert d16.det == 1 and d16.even
    e8e8 = siegel_theta_table(direct_sum(e8_lattice(), e8_lattice()), 2, 4)
    table = siegel_theta_table(d16, 2, 4)
    assert table.entries == e8e8.entries
    assert e8e8.count(((2, 1), (1, 2))) == 480 * 56
    assert e8e8.count(((4, 0), (0, 0))) == 61920


def test_witt_e8e8_d16_plus_genus3():
    """Witt's identity at genus 3: the trace-4 tables of E8+E8 and D16+
    agree on all 129 targets."""
    e8e8 = siegel_theta_table(direct_sum(e8_lattice(), e8_lattice()), 3, 4)
    table = siegel_theta_table(d16_plus(), 3, 4)
    assert len(e8e8.entries) == 129
    assert table.entries == e8e8.entries
    # both lattices are even, so a slot of odd norm is empty, and at trace
    # 4 every target with tuples has a slot of norm 0
    assert e8e8.count(((2, 0, 1), (0, 0, 0), (1, 0, 2))) == 480 * 56
    assert e8e8.count(((1, 0, 0), (0, 1, 0), (0, 0, 2))) == 0


def _oracle_psd_rank(t):
    p, q, _z = oracles.inertia(t)
    return p if q == 0 else None


def test_psd_rank_matches_inertia_on_every_candidate():
    # the candidates _psd_targets tests: diagonal entries >= 0 with trace
    # <= 6 and |t_ij| <= isqrt(t_ii t_jj)
    seen = 0
    for r in (1, 2, 3):
        pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
        expected = []
        for diag in itertools.product(range(7), repeat=r):
            if sum(diag) > 6:
                continue
            limits = [math.isqrt(diag[i] * diag[j]) for i, j in pairs]
            for off in itertools.product(*(range(-s, s + 1) for s in limits)):
                t = [[diag[i] if i == j else 0 for j in range(r)] for i in range(r)]
                for (i, j), x in zip(pairs, off):
                    t[i][j] = t[j][i] = x
                rank = _oracle_psd_rank(t)
                if rank is not None:
                    expected.append((tuple(tuple(row) for row in t), rank))
                seen += 1
        assert list(theta._psd_targets(r, 6)) == expected
    assert seen > 1000


def test_psd_rank_matches_inertia_on_random_symmetric():
    # _psd_targets keeps t with rank p exactly when inertia(t) = (p, 0, z)
    rng = random.Random(9)
    for _ in range(1500):
        r = rng.randint(1, 5)
        t = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                t[i][j] = t[j][i] = rng.randint(-3, 3)
        assert linalg.inertia(t) == oracles.inertia(t), t


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: siegel_theta_table(root_a1(), 0, 4), ValueError, "genus must be at least 1"),
    (lambda: siegel_theta_table(root_a1(), 1, -1), ValueError, "bound must be nonnegative"),
])
def test_error_paths(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
