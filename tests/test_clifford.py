"""Clifford algebra arithmetic over integral lattices."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from k3cycles import clifford
from k3cycles.clifford import (
    CliffordElement,
    GradedParity,
    basis_element,
    element,
    format_element,
    invert,
    is_gspin,
    main_involution,
    multiply,
    parity,
    parse_element,
    scalar_element,
    scalar_part,
    trace,
    vector_element,
)
from k3cycles.errors import (
    AmbientMismatch,
    NotInvertible,
    RankLimitExceeded,
)
from k3cycles.lattice import (
    Lattice,
    direct_sum,
    e8_lattice,
    hyperbolic_plane,
    k3_lattice,
    root_a1,
)

A2 = Lattice(((2, 1), (1, 2)))
MIXED = Lattice(((2, 0, 0), (0, -2, 0), (0, 0, 2)))
TEST_LATTICES = (root_a1(), A2, MIXED, direct_sum(hyperbolic_plane(), root_a1()))


def random_element(lat, rng, span=3):
    size = 1 << lat.rank
    return element(lat, {m: rng.randint(-span, span) for m in range(size)})


class TestArithmetic:
    def test_vector_square_is_norm(self):
        for lat in TEST_LATTICES:
            rng = random.Random(7)
            for _ in range(20):
                v = [rng.randint(-3, 3) for _ in range(lat.rank)]
                sq = multiply(vector_element(lat, v), vector_element(lat, v))
                assert sq == scalar_element(lat, lat.norm(v))

    def test_generator_relations(self):
        for lat in TEST_LATTICES:
            for i in range(1, lat.rank + 1):
                for j in range(1, lat.rank + 1):
                    ei, ej = basis_element(lat, i), basis_element(lat, j)
                    anti = multiply(ei, ej) + multiply(ej, ei)
                    g = 2 * lat.gram[i - 1][j - 1]
                    assert anti == scalar_element(lat, g)

    def test_associativity_random(self):
        rng = random.Random(11)
        for lat in TEST_LATTICES:
            for _ in range(25):
                x, y, z = (random_element(lat, rng) for _ in range(3))
                assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))

    def test_distributive(self):
        rng = random.Random(13)
        for lat in TEST_LATTICES:
            x, y, z = (random_element(lat, rng) for _ in range(3))
            assert multiply(x, y + z) == multiply(x, y) + multiply(x, z)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            multiply(scalar_element(root_a1(), 1), scalar_element(A2, 1))

    def test_integer_coefficients_closed(self):
        # integer Gram keeps integer coefficients under multiplication
        rng = random.Random(17)
        for lat in TEST_LATTICES:
            x, y = random_element(lat, rng), random_element(lat, rng)
            prod = multiply(x, y)
            assert all(c.denominator == 1 for _, c in prod.coeffs)

    def test_constructor_rejects_noncanonical_form(self):
        e8 = e8_lattice()
        assert CliffordElement(e8, ((0, 1),), 1) == scalar_element(e8, 1)
        assert CliffordElement(e8, ((1, 3), (6, -2)), 5) == element(
            e8, {1: Fraction(3, 5), 6: Fraction(-2, 5)})
        bad = [
            (((0, 2),), 2),  # 2/2 is the scalar 1
            ((), 2),  # zero over 2
            (((0, 1),), -1),  # den < 0
            (((0, 1), (1, 0)), 1),  # a zero coefficient
            (((3, 1), (1, 1)), 1),  # masks descending
            (((1, 1), (1, 2)), 1),  # a repeated mask
            (((1 << 8, 1),), 1),  # outside range(2**rank)
            (((-1, 1),), 1),
        ]
        for nums, den in bad:
            with pytest.raises(ValueError):
                CliffordElement(e8, nums, den)


class TestInvolution:
    def test_anti_automorphism(self):
        rng = random.Random(19)
        for lat in TEST_LATTICES:
            for _ in range(10):
                x, y = random_element(lat, rng), random_element(lat, rng)
                assert main_involution(multiply(x, y)) == multiply(
                    main_involution(y), main_involution(x)
                )

    def test_fixes_vectors(self):
        for lat in TEST_LATTICES:
            for i in range(1, lat.rank + 1):
                assert main_involution(basis_element(lat, i)) == basis_element(lat, i)

    def test_involutive(self):
        rng = random.Random(23)
        for lat in TEST_LATTICES:
            x = random_element(lat, rng)
            assert main_involution(main_involution(x)) == x

    def test_reverses_monomial(self):
        lat = A2
        e12 = multiply(basis_element(lat, 1), basis_element(lat, 2))
        e21 = multiply(basis_element(lat, 2), basis_element(lat, 1))
        assert main_involution(e12) == e21


class TestGrading:
    def test_parity_values(self):
        lat = hyperbolic_plane()
        assert parity(scalar_element(lat, 3)) is GradedParity.EVEN
        assert parity(basis_element(lat, 1)) is GradedParity.ODD
        assert parity(scalar_element(lat, 1) + basis_element(lat, 1)) is (
            GradedParity.MIXED
        )

    def test_grading_multiplies(self):
        rng = random.Random(29)
        for lat in TEST_LATTICES:
            size = 1 << lat.rank
            evens = {m: rng.randint(-2, 2) for m in range(size) if bin(m).count("1") % 2 == 0}
            odds = {m: rng.randint(-2, 2) for m in range(size) if bin(m).count("1") % 2 == 1}
            e, o = element(lat, evens), element(lat, odds)
            assert parity(multiply(e, e)) in (GradedParity.EVEN,)
            assert parity(multiply(o, o)) in (GradedParity.EVEN,)
            prod = multiply(e, o)
            if not prod.is_zero:
                assert parity(prod) is GradedParity.ODD

    def test_delta_squares_to_scalar_on_orthogonal(self):
        # (e1 e2 e3)^2 = (-1)^(3*2/2) * d1 d2 d3 = -(2 * -2 * 2)
        lat = MIXED
        d = element(lat, {(1 << lat.rank) - 1: 1})
        sq = multiply(d, d)
        assert sq == scalar_element(lat, Fraction(8))


class TestTrace:
    def test_scalar_trace(self):
        for lat in TEST_LATTICES:
            dim = 1 << lat.rank
            assert trace(scalar_element(lat, 3)) == 3 * dim

    def test_trace_of_products_commutes(self):
        rng = random.Random(31)
        for lat in TEST_LATTICES:
            for _ in range(10):
                x, y = random_element(lat, rng), random_element(lat, rng)
                assert trace(multiply(x, y)) == trace(multiply(y, x))

    def test_nonorthogonal_monomial_trace(self):
        # e1 e2 acts with trace 4*g12 when the two generators pair to g12
        x = multiply(basis_element(A2, 1), basis_element(A2, 2))
        assert trace(x) == 4

    def test_orthogonal_monomials_traceless(self):
        lat = MIXED
        x = multiply(basis_element(lat, 1), basis_element(lat, 2))
        assert trace(x) == 0


class TestInversion:
    def test_inverse_round_trip(self):
        rng = random.Random(37)
        for lat in TEST_LATTICES:
            found = 0
            while found < 5:
                x = random_element(lat, rng, span=2)
                try:
                    xi = invert(x)
                except NotInvertible:
                    continue
                found += 1
                assert multiply(x, xi) == scalar_element(lat, 1)
                assert multiply(xi, x) == scalar_element(lat, 1)

    def test_zero_not_invertible(self):
        with pytest.raises(NotInvertible):
            invert(scalar_element(root_a1(), 0))

    def test_isotropic_vector_not_invertible(self):
        h = hyperbolic_plane()
        with pytest.raises(NotInvertible):
            invert(vector_element(h, (1, 0)))

    def test_rank_cap(self, monkeypatch):
        n = clifford.INVERSION_RANK_CAP + 1
        big = Lattice(tuple(
            tuple(2 if i == j else 0 for j in range(n)) for i in range(n)
        ))
        x = scalar_element(big, 2) + basis_element(big, 1)

        def no_table(*_args):
            raise AssertionError("multiplication table built above the cap")

        monkeypatch.setattr(clifford, "_table", no_table)
        with pytest.raises(RankLimitExceeded):
            invert(x)
        # a scalar needs no solve, so the cap does not apply to it
        for lat in (big, k3_lattice()):
            assert format_element(invert(scalar_element(lat, 2))) == "1/2*e{}"
            assert invert(scalar_element(lat, Fraction(-3, 4))) == scalar_element(
                lat, Fraction(-4, 3))
            with pytest.raises(NotInvertible):
                invert(scalar_element(lat, 0))


class TestGspin:
    def test_invertible_vector_conjugation(self):
        # v x v^-1 keeps the vector space invariant, so v is in the group
        a1 = root_a1()
        assert is_gspin(basis_element(a1, 1)) is False  # odd parity refused
        h = hyperbolic_plane()
        even = multiply(vector_element(h, (1, 1)), vector_element(h, (1, -1)))
        assert is_gspin(even) is True

    def test_scalars_are_gspin(self):
        for lat in TEST_LATTICES:
            assert is_gspin(scalar_element(lat, 2)) is True

    def test_noninvertible_raises(self):
        h = hyperbolic_plane()
        iso = multiply(vector_element(h, (1, 0)), vector_element(h, (0, 1)))
        with pytest.raises(NotInvertible):
            is_gspin(iso)

    def test_spinor_norm_multiplicative_on_vectors(self):
        rng = random.Random(41)
        lat = MIXED
        for _ in range(10):
            v = [rng.randint(-2, 2) for _ in range(3)]
            w = [rng.randint(-2, 2) for _ in range(3)]
            g = multiply(vector_element(lat, v), vector_element(lat, w))
            norm = clifford.spinor_norm(g)
            assert norm == scalar_element(lat, lat.norm(v) * lat.norm(w))


class TestText:
    def test_format_zero(self):
        assert format_element(scalar_element(A2, 0)) == "0*e{}"

    def test_round_trip_examples(self):
        for text in ("1*e{} + 1*e{1}", "2*e{1,2}", "1/2*e{1} - 3*e{2}"):
            x = parse_element(A2, text)
            assert format_element(x) == text

    def test_parse_variants(self):
        x = parse_element(A2, " - e{1} +2* e{2}")
        assert x == -basis_element(A2, 1) + 2 * basis_element(A2, 2)
        assert parse_element(A2, "5") == scalar_element(A2, 5)
        assert parse_element(A2, "-1/2") == scalar_element(A2, Fraction(-1, 2))
        assert parse_element(A2, "e{}") == scalar_element(A2, 1)
        assert parse_element(A2, " 1/2 * e{ 1 , 2 } -  3 ") == parse_element(A2, "1/2*e{1,2} - 3")

    def test_parse_rejects_junk(self):
        # spaces may separate terms, signs and factors, never digits
        for bad in ("e{0}", "e{3}", "e{1,1}", "1 +", "x*e{1}", "1 2*e{1}", "2 3", "1 / 2",
                    "e{1 2}", "e{1,,2}", "e{,}", "e{2,}", "e{,1}"):
            with pytest.raises(ValueError):
                parse_element(A2, bad)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.integers(0, 7), st.fractions(min_value=-3, max_value=3), max_size=5)
)
def test_format_parse_round_trip(coeffs):
    lat = MIXED
    x = element(lat, coeffs)
    assert parse_element(lat, format_element(x)) == x


@st.composite
def rational_maps(draw):
    """A diagonal lattice of rank 1-8, a mask -> rational map with
    denominators up to 12, its masks shuffled, and a nonzero rational k."""
    r = draw(st.integers(1, 8))
    lat = Lattice(tuple(tuple(2 if i == j else 0 for j in range(r)) for i in range(r)))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    coeffs = draw(st.dictionaries(st.integers(0, (1 << r) - 1), coeff, max_size=8))
    k = draw(st.fractions(min_value=-4, max_value=4, max_denominator=12).filter(bool))
    return lat, coeffs, draw(st.permutations(list(coeffs))), k


@settings(max_examples=80, deadline=None)
@given(rational_maps())
def test_canonical_form(case):
    # one value, one (nums, den): == and hash agree however it was built
    lat, coeffs, order, k = case
    x = element(lat, coeffs)
    summed = element(lat, {})
    for m in order:
        summed = summed + element(lat, {m: coeffs[m]})
    for y in (summed, x.scale(k).scale(1 / k)):
        assert y == x and hash(y) == hash(x)
    assert x.den > 0 and math.gcd(x.den, *(c for _, c in x.nums)) == 1
    masks = [m for m, _ in x.nums]
    assert masks == sorted(set(masks)) and all(c for _, c in x.nums)
    assert dict(x.coeffs) == {m: c for m, c in coeffs.items() if c}
    zero = x - x
    assert zero == element(lat, {}) and hash(zero) == hash(element(lat, {}))
    assert zero.den == 1 and zero.nums == ()


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(st.integers(0, 3), st.integers(-3, 3), max_size=4),
    st.dictionaries(st.integers(0, 3), st.integers(-3, 3), max_size=4),
)
def test_trace_linear(c1, c2):
    lat = A2
    x, y = element(lat, c1), element(lat, c2)
    assert trace(x + y) == trace(x) + trace(y)


@st.composite
def gram_and_elements(draw):
    """A random integral symmetric Gram of rank 2-5 (any diagonal sign,
    zero included, off-diagonal entries allowed) and two sparse elements
    with integer or rational coefficients."""
    r = draw(st.integers(2, 5))
    gram = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    coeff = st.one_of(
        st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=6)
    )
    elem = st.dictionaries(st.integers(0, (1 << r) - 1), coeff, max_size=6)
    return tuple(map(tuple, gram)), draw(elem), draw(elem)


FIXED_GRAMS = (
    ((0, 1), (1, 0)),
    ((-2, 1, 0), (1, 0, 3), (0, 3, -1)),
    ((2, -1, 1, 0), (-1, 0, 2, -3), (1, 2, -2, 1), (0, -3, 1, 3)),
    ((1, 2, 0, -1, 3), (2, -1, 1, 0, 0), (0, 1, 0, 2, -2), (-1, 0, 2, 3, 1),
     (3, 0, -2, 1, -3)),
)


def test_right_vector_multiplication_is_self_adjoint():
    # (w x)^iota = x w^iota for a vector x, so every form trace(a y w^iota)
    # has trace(a (y x) w^iota) = trace(a y (w x)^iota)
    rng = random.Random(31)
    for gram in FIXED_GRAMS:
        lat = Lattice(gram)
        for _ in range(5):
            a, y, w = (random_element(lat, rng) for _ in range(3))
            x = vector_element(lat, [rng.randint(-3, 3) for _ in range(lat.rank)])
            wx = multiply(w, x)
            assert main_involution(wx) == multiply(x, main_involution(w))
            assert trace(multiply(multiply(a, multiply(y, x)), main_involution(w))) == trace(
                multiply(multiply(a, y), main_involution(wx)))


def check_against_oracle(gram, cx, cy):
    lat = Lattice(gram)
    x, y = element(lat, cx), element(lat, cy)
    assert dict(multiply(x, y).coeffs) == oracles.clifford_product(gram, dict(x.coeffs),
                                                                   dict(y.coeffs))
    assert dict(main_involution(x).coeffs) == oracles.clifford_reverse(gram, dict(x.coeffs))
    assert trace(x) == oracles.clifford_trace(gram, dict(x.coeffs))


@settings(max_examples=60, deadline=None)
@given(gram_and_elements())
def test_products_match_word_rewriting_oracle(case):
    check_against_oracle(*case)


@pytest.mark.parametrize("gram", FIXED_GRAMS)
def test_dense_products_match_word_rewriting_oracle(gram):
    rng = random.Random(len(gram))
    size = 1 << len(gram)
    cx = {m: rng.randint(-3, 3) for m in range(size)}
    cy = {m: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for m in range(size)}
    check_against_oracle(gram, cx, cy)
    check_against_oracle(gram, cy, cx)


@pytest.mark.parametrize("rank,count", [(1, 3), (2, 3), (3, 3), (4, 3), (5, 3),
                                        (6, 2), (7, 1), (8, 1)])
def test_closed_form_tau_matches_summed_words(rank, count):
    rng = random.Random(rank)
    for _ in range(count):
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                gram[i][j] = gram[j][i] = rng.randint(-5, 5)
        table = clifford._GenTable(tuple(map(tuple, gram)))
        for mask in range(1 << rank):
            assert table.tau(mask) == oracles.summed_tau(table, mask), (gram, mask)


A4 = tuple(tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(4))
           for i in range(4))
# <2>^3 (+) <-2>^2 under six row-and-column shears
SHEARED5 = ((4, -2, -4, -2, 4), (-2, 0, 2, 0, 0), (-4, 2, 4, 4, -4),
            (-2, 0, 4, -2, 0), (4, 0, -4, 0, 2))
HOMOGENEOUS_GRAMS = (A2.gram, MIXED.gram, direct_sum(hyperbolic_plane(), root_a1()).gram,
                     A4, SHEARED5)


def homogeneous_draws(gram, rng, count=4):
    """Sparse (one to three terms) and dense even and odd coefficient maps,
    each once integral and once over denominators 2-6."""
    size = 1 << len(gram)
    for odd in (0, 1):
        masks = [m for m in range(size) if bin(m).count("1") & 1 == odd]
        for _ in range(count):
            sparse = rng.sample(masks, min(len(masks), rng.randint(1, 3)))
            for den in (lambda: 1, lambda: rng.randint(2, 6)):
                yield {m: Fraction(rng.randint(-3, 3), den()) for m in sparse}
                yield {m: Fraction(rng.randint(-3, 3), den()) for m in masks}


def test_homogeneous_inverses_match_full_system_oracle():
    # the block solve of an even or odd element against one solve of the
    # whole 2^rank system; H contributes the singular e{1,2} and e{1}
    rng = random.Random(43)
    h = hyperbolic_plane()
    cases = [(gram, cx) for gram in HOMOGENEOUS_GRAMS for cx in homogeneous_draws(gram, rng)]
    iso = multiply(vector_element(h, (1, 0)), vector_element(h, (0, 1)))
    cases += [(h.gram, dict(iso.coeffs)), (h.gram, dict(vector_element(h, (1, 0)).coeffs))]
    seen = {True: set(), False: set()}
    for gram, cx in cases:
        x = element(Lattice(gram), cx)
        want = oracles.clifford_inverse(gram, dict(x.coeffs))
        try:
            got = dict(invert(x).coeffs)
        except NotInvertible:
            got = None
        assert got == want, (gram, cx)
        seen[want is not None].add(parity(x))
    assert seen[True] == seen[False] == {GradedParity.EVEN, GradedParity.ODD}


def test_star_dispatches_on_its_operand():
    x, y = basis_element(A2, 1), basis_element(A2, 2)
    assert x * y == multiply(x, y)
    assert x * Fraction(3, 2) == Fraction(3, 2) * x == x.scale(Fraction(3, 2))


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: element(A2, {4: 1}), ValueError, "mask 4 out of range for rank 2"),
    (lambda: vector_element(A2, (1,)), ValueError, "does not match lattice rank"),
    (lambda: basis_element(A2, 0), ValueError, "basis index 0 out of range"),
    (lambda: basis_element(A2, 3), ValueError, "basis index 3 out of range"),
    (lambda: parse_element(A2, "  "), ValueError, "empty Clifford element"),
])
def test_error_paths(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
