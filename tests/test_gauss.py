"""Gauss sums over scaled tori and the discriminant-form signature sum."""

import cmath
import decimal
import math
import random
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


def _near(got: complex, want: complex) -> bool:
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=80, deadline=None)
@given(gauss_inputs())
@example((Lattice(()), 3, 5))
@example((Lattice(((-4,),)), 1, 7))
@example((Lattice(((2, -3), (-3, 0))), 5, 6))
@example((Lattice(((2, 0, 1), (0, 0, 0), (1, 0, -6))), -2, 7))
@example((Lattice(((1, 0), (0, 2))), 3, 4))
@example((Lattice(((1, 0), (0, 2))), 3, 5))
def test_gauss_sum_matches_term_oracle(case):
    # an odd diagonal entry with a*c odd makes the walk depend on the
    # residues chosen; the closed form refuses exactly those draws
    lat, a, c = case
    if a * c % 2 and not lat.even:
        with pytest.raises(OddLatticeUnsupported, match="needs a[*]c even"):
            gauss_sum(lat, a, c)
        return
    got = gauss_sum(lat, a, c)
    value, norm = oracles.gauss_sum_terms(lat, a, c)
    assert _near(got.value, value), (got.value, value)
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
    value, norm = oracles.gauss_sum_terms(lat, a, c)
    assert _near(got.value, value), (got.value, value)
    assert repr(got.normalization) == repr(norm)


def _diagonal_gauss_sums(ds, a, c) -> list[complex]:
    """c^(-1/2) sum over Z/c of exp(pi i a d x^2 / c) for each even d of ds,
    each added by math.fsum; their product is the Gauss sum of diag(ds)."""
    sums = {}
    for d in set(ds):
        phases = [a * d * x * x % (2 * c) for x in range(c)]
        sums[d] = complex(math.fsum(math.cos(math.pi * t / c) for t in phases),
                          math.fsum(math.sin(math.pi * t / c) for t in phases)) / math.sqrt(c)
    return [sums[d] for d in ds]


def _seeded_shear(seed, n=None):
    """An even diagonal Gram of rank n (8-20 when not given) under 3n seeded
    shears, its diagonal and a modulus c <= 10^4, half of them 2^k times an
    odd number."""
    rng = random.Random(seed)
    n = n or rng.randint(8, 20)
    ds = [rng.choice((-2, 2, 4, -6, 8, 10, -12, 18, 50, -250)) for _ in range(n)]
    moves = [(rng.randrange(n), rng.randrange(n), rng.choice((-2, -1, 1, 2)))
             for _ in range(3 * n)]
    gram = _sheared([[d * (i == j) for j in range(n)] for i, d in enumerate(ds)], moves)
    c = rng.choice((2 ** rng.randint(1, 6) * rng.choice((1, 3, 5, 7, 9, 15, 125)),
                    rng.randint(1, 10_000)))
    return Lattice(gram), ds, c


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(-9, 9))
@example(885700, 4)  # c = 96 and a factor that is 0
def test_gauss_sum_of_sheared_diagonal_grams(seed, a):
    lat, ds, c = _seeded_shear(seed)
    sums = _diagonal_gauss_sums(ds, a, c)
    got, want = gauss_sum(lat, a, c).value, math.prod(sums)
    # a factor that is 0 comes out near 1e-15, times the others
    scale = math.prod(max(1.0, abs(z)) for z in sums)
    assert abs(got - want) <= 1e-9 * scale, (ds, a, c, got, want)


def test_sheared_grams_reach_entries_in_the_hundreds():
    assert max(abs(x) for seed in range(5) for row in _seeded_shear(seed)[0].gram
               for x in row) >= 300


def test_gauss_sum_is_exact_on_even_unimodular_lattices():
    # E8 and K3 are even unimodular of signature 0 mod 8, so every sum with
    # gcd(a, c) = 1 is exactly 1, with no float error
    e8 = e8_lattice()
    for c in [*range(1, 41), 64, 81, 625, 1001, 2 ** 12 * 3 ** 5, 10 ** 6]:
        for a in range(-12, 13):
            if math.gcd(a, c) == 1:
                assert repr(gauss_sum(e8, a, c).value) == "(1+0j)", (a, c)
    assert repr(gauss_sum(k3_lattice(), 1, 10 ** 6).value) == "(1+0j)"


def test_gauss_sum_rounds_each_component_once():
    # <1> at c = 2: (1 + i) / sqrt 2, both parts the float nearest sqrt(1/2)
    half = math.sqrt(0.5)
    assert gauss_sum(Lattice(((1,),)), 1, 2).value == complex(half, half)
    # A1 at c = 8: 4 e(1/8) / sqrt 8 = 1 + i; at c = 3: i; at c = 2: 1 - 1 = 0
    assert repr(gauss_sum(root_a1(), 1, 8).value) == "(1+1j)"
    assert repr(gauss_sum(root_a1(), 1, 3).value) == "1j"
    assert repr(gauss_sum(root_a1(), 1, 2).value) == "0j"
    # the zero form of rank 25 at c = 5 sums to 5^12.5, which math.sqrt(5 ** 25)
    # misses by one unit in the last place
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        want = float(decimal.Decimal(5 ** 25).sqrt())
    assert want != math.sqrt(5 ** 25)
    zero = Lattice(tuple((0,) * 25 for _ in range(25)))
    assert gauss_sum(zero, 1, 5).value == complex(want, 0.0)


def test_gauss_sum_at_rank_20_is_fast():
    two = tuple(tuple(2 * (i == j) for j in range(20)) for i in range(20))
    grams = (_seeded_shear(7, 20)[0].gram, two, tuple(row[:20] for row in k3_lattice().gram[:20]))
    for gram in grams:
        for c in (510510, 720720, 999983, 10 ** 6):
            times = []
            for _ in range(3):
                lat = Lattice(gram)  # det not yet cached
                start = time.perf_counter()
                gauss_sum(lat, 3, c)
                times.append(time.perf_counter() - start)
            assert min(times) < 0.01, (c, gram)


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


def test_gauss_refuses_a_modulus_it_cannot_factor():
    # 1000003^2 > 10^12 has no prime factor up to the trial-division cap
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitExceeded, match="cannot factor c"):
        gauss_sum(e8_lattice(), 1, 1000003 ** 2)
    assert time.perf_counter() - start < 0.5


def test_gauss_answers_just_below_the_factoring_cap():
    # 999983 is the largest prime up to the cap and 999999999989 the largest
    # below 10^12: trial division certifies both moduli
    assert gauss.TRIAL_DIVISION_CAP == 10 ** 6
    for c in (999983 ** 2, 999999999989):
        assert repr(gauss_sum(e8_lattice(), 1, c).value) == "(1+0j)"
    # A1 at a prime c = p = 3 mod 4 is the classical sum i sqrt(p) / sqrt(p)
    assert repr(gauss_sum(root_a1(), 1, 999983).value) == "1j"


def test_gauss_refuses_a_value_beyond_the_float_range():
    # the zero form of rank 62 sums to c^31: 10^124 at c = 10^4, 10^372 at 10^12
    zero = Lattice(tuple((0,) * 62 for _ in range(62)))
    assert gauss_sum(zero, 1, 10 ** 4).value == complex(1e124, 0.0)
    with pytest.raises(InvalidModulus, match="beyond the float range"):
        gauss_sum(zero, 1, 10 ** 12)


def test_gauss_refuses_ill_defined_odd_sums():
    odd = Lattice(((1, 0), (0, 2)))
    for a, c in ((1, 1), (1, 3), (-3, 5), (7, 9)):
        with pytest.raises(OddLatticeUnsupported, match="not defined"):
            gauss_sum(odd, a, c)
    # a*c even is well defined on odd lattices
    for a, c in ((2, 3), (1, 4), (3, 6)):
        assert _near(gauss_sum(odd, a, c).value, oracles.gauss_sum_terms(odd, a, c)[0])


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: gauss_sum(e8_lattice(), 1, 0), InvalidModulus, "modulus c must be a positive integer"),
    (lambda: gauss_sum(e8_lattice(), 1, True), InvalidModulus, "modulus c"),
    (lambda: gauss_sum(e8_lattice(), Fraction(1, 2), 4), InvalidModulus,
     "parameter a must be an integer"),
    (lambda: gauss_sum(e8_lattice(), True, 4), InvalidModulus, "parameter a must be an integer"),
    (lambda: gauss_sum(e8_lattice(), 1, 2 ** 1024), InvalidModulus, "below 2\\^1024"),
])
def test_error_paths(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
