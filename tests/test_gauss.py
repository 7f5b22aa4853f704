"""Gauss sums over scaled tori and the discriminant-form signature sum."""

import cmath
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from k3cycles import gauss, lattice
from k3cycles.errors import (
    EnumerationLimitExceeded,
    InvalidModulus,
    OddLatticeUnsupported,
)
from k3cycles.gauss import gauss_sum, milgram_invariant
from k3cycles.lattice import (
    Lattice,
    direct_sum,
    e8_lattice,
    hyperbolic_plane,
    k3_lattice,
    rescale,
    root_a1,
    signature,
)


def even_lattices(n, lo=-3, hi=3):
    entry = st.integers(lo, hi)
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: Lattice(tuple(
        tuple(
            (rows[i][j] + rows[j][i]) if i != j else 2 * rows[i][i]
            for j in range(n)
        )
        for i in range(n)
    )))


class TestGaussSum:
    def test_classical_quadratic(self):
        # rank 1, gram (2): sum_x e^(2 pi i x^2 / c) / sqrt(c)
        for c in (1, 2, 3, 4, 5, 8):
            val = gauss_sum(root_a1(), 1, c)
            direct = sum(
                cmath.exp(2j * cmath.pi * (x * x % c) / c) for x in range(c)
            ) / math.sqrt(c)
            assert abs(val.value - direct) < 1e-12

    def test_modulus_validation(self):
        with pytest.raises(InvalidModulus):
            gauss_sum(root_a1(), 1, 0)
        with pytest.raises(InvalidModulus):
            gauss_sum(root_a1(), 1, -3)

    def test_normalization_field(self):
        val = gauss_sum(root_a1(), 1, 4)
        assert val.normalization == pytest.approx(0.5)
        assert val.rank == 1


class TestMilgram:
    def test_a1(self):
        res = milgram_invariant(root_a1())
        assert res.agrees and res.signature_mod8 == 1

    def test_negative_a1(self):
        res = milgram_invariant(rescale(root_a1(), -1))
        assert res.agrees and res.signature_mod8 == 7

    def test_unimodular_cases(self):
        for lat in (hyperbolic_plane(), e8_lattice(), k3_lattice()):
            res = milgram_invariant(lat)
            p, q = signature(lat)
            assert res.agrees
            assert res.signature_mod8 == (p - q) % 8

    def test_diag_2_4(self):
        res = milgram_invariant(Lattice(((2, 0), (0, 4))))
        assert res.agrees and res.signature_mod8 == 2

    def test_rejects_odd(self):
        with pytest.raises(OddLatticeUnsupported):
            milgram_invariant(Lattice(((1,),)))


@settings(max_examples=30, deadline=None)
@given(even_lattices(2), even_lattices(1))
def test_milgram_random_even(g2, g1):
    lat = direct_sum(g2, g1)
    if lat.det == 0 or abs(lat.det) > 600:
        return
    res = milgram_invariant(lat)
    p, q = signature(lat)
    assert res.agrees, (lat.gram, res)
    assert res.signature_mod8 == (p - q) % 8
    assert res.error < 1e-9


@st.composite
def gauss_inputs(draw):
    """A symmetric integer Gram of rank 0-8 (odd, indefinite, degenerate
    when a row is zeroed), a in [-6, 6] and c in [1, 7] with c^n <= 2*10^4."""
    n = draw(st.integers(0, 8))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-6, 6))
    if n and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        for j in range(n):
            gram[k][j] = gram[j][k] = 0
    c_max = max(c for c in range(1, 8) if c ** n <= 20_000)
    return (Lattice(tuple(map(tuple, gram))), draw(st.integers(-6, 6)),
            draw(st.integers(1, c_max)))


@settings(max_examples=80, deadline=None)
@given(gauss_inputs())
@example((Lattice(()), 3, 5))
@example((Lattice(((-4,),)), 1, 7))
@example((Lattice(((2, -3), (-3, 0))), 5, 6))
@example((Lattice(((2, 0, 1), (0, 0, 0), (1, 0, -6))), -2, 7))
def test_gauss_sum_matches_term_oracle_bitwise(case):
    lat, a, c = case
    got = gauss_sum(lat, a, c)
    value, norm = oracles.gauss_sum_terms(lat, a, c)
    assert repr(got.value) == repr(value)
    assert repr(got.normalization) == repr(norm)
    assert (got.a, got.c, got.rank) == (a, c, lat.rank)


def _sheared(gram, moves):
    """U gram U^T for U a product of elementary row additions."""
    g = [list(row) for row in gram]
    n = len(g)
    for i, j, k in moves:
        i, j = i % n, j % n
        if i == j:
            continue
        g[i] = [x + k * y for x, y in zip(g[i], g[j])]
        for row in g:
            row[i] += k * row[j]
    return tuple(map(tuple, g))


def _sheared_diagonal(*ds):
    """diag(ds) under the row shears i += (-1)^i (i + 1), cyclically."""
    n = len(ds)
    diagonal = [[d * (i == j) for j in range(n)] for i, d in enumerate(ds)]
    return Lattice(_sheared(diagonal, [(i, i + 1, (-1) ** i) for i in range(n)]))


# The sizes of the benchmark's gauss jobs: sheared even diagonal Grams of
# rank 4-10 at 6e4 to 1.6e5 residues, and E8.
@pytest.mark.parametrize("lat, a, c", [
    (_sheared_diagonal(10, -2, 2, 2), 1, 20),
    (_sheared_diagonal(2, -2, 10, 2, -2, 2), 2, 7),
    (_sheared_diagonal(2, 2, -6, 2, -2, 2, 2, -2), 1, 4),
    (_sheared_diagonal(-2, 2, 2, -2, 2, 2, -2, 2, 2, 2), 2, 3),
    (e8_lattice(), 3, 4),
], ids=["rank4", "rank6", "rank8", "rank10", "E8"])
def test_gauss_sum_matches_term_oracle_at_benchmark_sizes(lat, a, c):
    got = gauss_sum(lat, a, c)
    assert (repr(got.value), repr(got.normalization)) == tuple(
        map(repr, oracles.gauss_sum_terms(lat, a, c)))


def test_gauss_sum_keeps_its_bits_past_the_memo_cap(monkeypatch):
    # only large c fills the prefix memo; past the cap, prefixes rebuild
    # their block references and must add the same terms in the same order
    monkeypatch.setattr(gauss, "MEMO_REFERENCE_CAP", 3 * 5)
    lat = _sheared_diagonal(-4, -2, 2, 2, 6)
    for a in (1, 3):
        got = gauss_sum(lat, a, 5)
        assert repr(got.value) == repr(oracles.gauss_sum_terms(lat, a, 5)[0])


@st.composite
def milgram_inputs(draw):
    """An even Gram of rank 1-10 with 0 < |det| <= 5000: a direct sum of
    even blocks (<2k>, H, random 2x2 and 3x3, E8 or E8(-1)) under up to
    12 shears by +-1 or +-2, so it is neither diagonal nor definite in
    general.
    """
    n = draw(st.integers(1, 10))
    blocks = []
    size = 0
    while size < n:
        kind = draw(st.sampled_from(("cyclic", "H", "plane", "solid", "E8")))
        if kind == "E8" and n - size >= 8:
            blocks.append(e8_lattice(draw(st.sampled_from((1, -1)))))
        elif kind == "H" and n - size >= 2:
            blocks.append(hyperbolic_plane())
        elif kind == "plane" and n - size >= 2:
            a, b, d = (draw(st.integers(-4, 4)) for _ in range(3))
            blocks.append(Lattice(((2 * a, b), (b, 2 * d))))
        elif kind == "solid" and n - size >= 3:
            a, b, c, d, e, f = (draw(st.integers(-3, 3)) for _ in range(6))
            blocks.append(Lattice(((2 * a, b, c), (b, 2 * d, e), (c, e, 2 * f))))
        else:
            k = draw(st.sampled_from((-6, -4, -3, -2, -1, 1, 2, 3, 4, 6)))
            blocks.append(Lattice(((2 * k,),)))
        size += blocks[-1].rank
    moves = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                                    st.sampled_from((-2, -1, 1, 2))), max_size=12))
    lat = Lattice(_sheared(direct_sum(*blocks).gram, moves))
    assume(lat.det != 0 and abs(lat.det) <= 5000)
    return lat


@settings(max_examples=60, deadline=None)
@given(milgram_inputs())
def test_milgram_matches_coset_oracle_bitwise(lat):
    res = milgram_invariant(lat)
    total, predicted, sig, err, agrees = oracles.milgram_terms(lat)
    assert repr(res.total) == repr(total)
    assert repr(res.predicted) == repr(predicted)
    assert res.signature_mod8 == sig
    assert repr(res.error) == repr(err)
    assert res.agrees is agrees


def test_milgram_refuses_large_groups_before_enumerating(monkeypatch):
    n = 21
    two = Lattice(tuple(tuple(2 * (i == j) for j in range(n)) for i in range(n)))

    def no_enumeration(*_args):
        raise AssertionError("cosets enumerated above the cap")

    monkeypatch.setattr(gauss, "_prefix_phases", no_enumeration)
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitExceeded):
        milgram_invariant(two)
    assert time.perf_counter() - start < 0.5


def test_milgram_runs_at_the_cap(monkeypatch):
    # a group of order exactly the cap is summed; one more refuses
    lat = Lattice(((2, 0), (0, 2 * 2500)))
    monkeypatch.setattr(lattice, "DISC_ENUMERATION_CAP", 4 * 2500)
    assert milgram_invariant(lat).agrees
    monkeypatch.setattr(lattice, "DISC_ENUMERATION_CAP", 4 * 2500 - 1)
    with pytest.raises(EnumerationLimitExceeded):
        milgram_invariant(lat)


def test_gauss_refuses_above_the_residue_cap_before_walking(monkeypatch):
    def no_enumeration(*_args):
        raise AssertionError("residues enumerated above the cap")

    monkeypatch.setattr(gauss, "_prefix_phases", no_enumeration)
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitExceeded):
        gauss_sum(e8_lattice(), 1, 8)
    assert time.perf_counter() - start < 0.5


def test_gauss_runs_at_the_residue_cap(monkeypatch):
    # c^n exactly at the cap is summed; one residue more refuses
    lat = Lattice(((2, 1, 0), (1, 2, 0), (0, 0, -2)))
    monkeypatch.setattr(gauss, "RESIDUE_TERM_CAP", 5 ** 3)
    assert repr(gauss_sum(lat, 1, 5).value) == repr(oracles.gauss_sum_terms(lat, 1, 5)[0])
    monkeypatch.setattr(gauss, "RESIDUE_TERM_CAP", 5 ** 3 - 1)
    with pytest.raises(EnumerationLimitExceeded):
        gauss_sum(lat, 1, 5)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: gauss_sum(e8_lattice(), 1, 0), InvalidModulus, "modulus c must be a positive integer"),
    (lambda: gauss_sum(e8_lattice(), 1, True), InvalidModulus, "modulus c"),
    (lambda: gauss_sum(e8_lattice(), Fraction(1, 2), 4), InvalidModulus,
     "parameter a must be an integer"),
    (lambda: gauss_sum(e8_lattice(), True, 4), InvalidModulus, "parameter a must be an integer"),
])
def test_error_paths(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
