"""Totally real fields: certified embeddings, traces, integral bases."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from k3cycles.errors import NotAnOrder
from k3cycles.numberfield import FieldElement, TotallyRealField

SQRT2 = TotallyRealField.quadratic(2)
SQRT5 = TotallyRealField.quadratic(5)
GOLDEN = TotallyRealField(
    poly=(-5, 0, 1),
    basis=((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))),
)
CUBIC = TotallyRealField(poly=(-1, -3, 0, 1))  # x^3 - 3x - 1, totally real


class TestConstruction:
    def test_rationals(self):
        q = TotallyRealField.rationals()
        assert q.degree == 1
        assert q.trace(q.one()) == 1

    def test_quadratic_requires_positive(self):
        with pytest.raises(ValueError):
            TotallyRealField.quadratic(-2)

    def test_rejects_complex_roots(self):
        # x^2 + 1 has no real roots
        with pytest.raises(ValueError):
            TotallyRealField(poly=(1, 0, 1))

    def test_rejects_nonmonic(self):
        with pytest.raises(ValueError):
            TotallyRealField(poly=(-2, 0, 2))

    def test_rejects_squareful(self):
        # (x-1)^2
        with pytest.raises(ValueError):
            TotallyRealField(poly=(1, -2, 1))

    def test_reducible_squarefree_tolerated(self):
        # x^2 - 1 = (x-1)(x+1): a product of fields, still usable
        etale = TotallyRealField(poly=(-1, 0, 1))
        assert etale.degree == 2

    def test_bad_basis_not_an_order(self):
        with pytest.raises(NotAnOrder):
            TotallyRealField(
                poly=(-2, 0, 1),
                basis=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1, 3))),
            )

    def test_basis_without_one_rejected(self):
        with pytest.raises(NotAnOrder):
            TotallyRealField(
                poly=(-2, 0, 1),
                basis=((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))),
            )


class TestArithmetic:
    def test_gen_squares_to_two(self):
        x = SQRT2.gen()
        assert (x * x).power == (Fraction(2), Fraction(0))

    def test_scalar_multiplication(self):
        x = SQRT2.gen()
        assert (3 * x).power == (Fraction(0), Fraction(3))
        assert (x * Fraction(1, 2)).power == (Fraction(0), Fraction(1, 2))

    def test_subtraction_and_zero(self):
        x = SQRT2.gen()
        assert (x - x).is_zero
        assert SQRT2.zero().is_zero

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            SQRT2.gen() * SQRT5.gen()

    def test_equality_ignores_integral_basis(self):
        # the same value over two integral bases of Q(sqrt 5) is one key
        x, y = SQRT5.gen(), GOLDEN.gen()
        assert (x - y).is_zero
        assert x == y and hash(x) == hash(y)
        assert len({x, y, SQRT5.one(), GOLDEN.one()}) == 2
        assert x != SQRT2.gen() and x != SQRT5.one()


class TestTrace:
    def test_quadratic_traces(self):
        assert SQRT2.trace(SQRT2.one()) == 2
        assert SQRT2.trace(SQRT2.gen()) == 0
        assert SQRT2.trace(SQRT2.gen() * SQRT2.gen()) == 4

    def test_golden_basis_trace(self):
        # second basis vector is (1 + sqrt5)/2 with trace 1
        omega = GOLDEN.element((0, 1))
        assert GOLDEN.trace(omega) == 1

    def test_cubic_traces(self):
        t = CUBIC.gen()
        assert CUBIC.trace(t) == 0
        assert CUBIC.trace(t * t) == 6


class TestEmbeddings:
    def test_sqrt2_signs(self):
        x = SQRT2.gen()
        assert SQRT2.sign_at(0, x) == -1
        assert SQRT2.sign_at(1, x) == 1
        assert SQRT2.sign_at(0, SQRT2.one()) == 1

    def test_intervals_sorted_and_disjoint(self):
        # isolation windows are half-open (a, b], so touching is allowed
        for field in (SQRT2, SQRT5, CUBIC):
            roots = field.embeddings()
            for (_, b1), (a2, _) in zip(roots, roots[1:]):
                assert b1 <= a2

    def test_zero_sign(self):
        assert SQRT2.sign_at(0, SQRT2.zero()) == 0
        assert SQRT2.sign_at(1, SQRT2.zero()) == 0

    def test_element_vanishing_at_one_root(self):
        etale = TotallyRealField(poly=(-1, 0, 1))
        zd = etale.gen() - etale.one()  # vanishes at root +1 only
        signs = {etale.sign_at(i, zd) for i in range(2)}
        assert signs == {-1, 0}
        # x^3 - x isolates its root 0 as the exact interval (0, 0)
        split = TotallyRealField(poly=(0, -1, 0, 1))
        assert (0, 0) in split.embeddings()
        for x, signs in ((split.gen(), [-1, 0, 1]), (split.gen() - split.one(), [-1, -1, 0])):
            assert [split.sign_at(i, x) for i in range(3)] == signs

    def test_cubic_sign_pattern(self):
        # theta^2 is positive at every embedding
        sq = CUBIC.gen() * CUBIC.gen()
        assert [CUBIC.sign_at(i, sq) for i in range(3)] == [1, 1, 1]

    def test_sign_independent_of_history(self):
        # theta - c for c ever closer to sqrt(2): a field that answered the
        # coarser queries first gives the same signs as fresh fields
        used = TotallyRealField.quadratic(2)
        for k in (10, 100, 300, 1000):
            c = Fraction(math.isqrt(2 * 10 ** (2 * k)), 10 ** k)
            for field in (used, TotallyRealField.quadratic(2)):
                x = field.gen() - field.from_power([c])
                assert [field.sign_at(i, x) for i in range(2)] == [-1, 1]

    def test_embeddings_unchanged_by_refinement(self):
        field = TotallyRealField(poly=CUBIC.poly)
        before = field.embeddings()
        # theta - 1879/1000 is within 5e-4 of zero at the largest root, so
        # its sign there needs the interval narrowed many times
        x = field.gen() - field.from_power([Fraction(1879, 1000)])
        assert [field.sign_at(i, x) for i in range(3)] == [-1, -1, 1]
        assert field.embeddings() == before
        assert field.embeddings() == TotallyRealField(poly=CUBIC.poly).embeddings()


class TestSerialization:
    def test_round_trip(self):
        for field in (SQRT2, GOLDEN, CUBIC):
            again = TotallyRealField.from_dict(field.to_dict())
            assert again.poly == field.poly
            assert again.basis == field.basis

    def test_from_dict_validates(self):
        with pytest.raises(ValueError):
            TotallyRealField.from_dict({"poly": "x^2-2"})
        with pytest.raises(ValueError):
            TotallyRealField.from_dict({})


class TestIntegralCoords:
    def test_golden_round_trip(self):
        for coords in ((1, 0), (0, 1), (2, -3)):
            x = GOLDEN.element(coords)
            back = GOLDEN.integral_coords(x.power)
            assert back == tuple(Fraction(c) for c in coords)

    def test_wrong_length_rejected(self):
        # (1, 0, 5) is 1 + 5 theta^2 = 11, not (1, 0): the length must match
        with pytest.raises(ValueError, match="length"):
            SQRT2.integral_coords((1, 0, 5))

    def test_power_basis_identity(self):
        x = SQRT2.element((3, -2))
        assert x.power == (Fraction(3), Fraction(-2))


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
def test_trace_is_additive(c1, c2):
    x, y = GOLDEN.element(c1), GOLDEN.element(c2)
    assert GOLDEN.trace(x + y) == GOLDEN.trace(x) + GOLDEN.trace(y)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
)
def test_trace_of_products_symmetric(c1, c2):
    x, y = CUBIC.element(c1), CUBIC.element(c2)
    assert CUBIC.trace(x * y) == CUBIC.trace(y * x)


@settings(max_examples=30, deadline=None)
@given(st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
def test_sign_consistency_with_floats(coords):
    import math

    x = SQRT2.element(coords)
    a, b = coords
    for i, root in enumerate((-math.sqrt(2), math.sqrt(2))):
        approx = a + b * root
        if abs(approx) > 1e-9:
            assert SQRT2.sign_at(i, x) == (1 if approx > 0 else -1)


FUNDAMENTAL_UNITS = {2: (1, 1), 3: (2, 1), 5: (2, 1), 7: (8, 3), 13: (18, 5)}
QUADRATICS = {n: TotallyRealField.quadratic(n) for n in FUNDAMENTAL_UNITS}
BIG = 10 ** 40


def _units(n, x1, y1):
    """The powers x + y sqrt(n) of the unit x1 + y1 sqrt(n) with x, y <= BIG."""
    out, x, y = [], 1, 0
    while max(x, y) <= BIG:
        out.append((x, y))
        x, y = x * x1 + n * y * y1, x * y1 + y * x1
    return out


UNITS = {n: _units(n, *unit) for n, unit in FUNDAMENTAL_UNITS.items()}


@st.composite
def quadratic_elements(draw):
    n = draw(st.sampled_from(sorted(QUADRATICS)))
    if draw(st.booleans()):
        return n, draw(st.integers(-BIG, BIG)), draw(st.integers(-BIG, BIG))
    # a unit or its conjugate, tiny at one embedding, nudged by at most 1
    x, y = draw(st.sampled_from(UNITS[n]))
    return n, x + draw(st.integers(-1, 1)), draw(st.sampled_from((y, -y)))


@settings(max_examples=200, deadline=None)
@given(quadratic_elements())
def test_quadratic_sign_matches_closed_form(case):
    n, a, b = case
    field = QUADRATICS[n]
    x = field.from_power([a, b])
    # embedding 0 sends the generator to -sqrt(n), embedding 1 to +sqrt(n)
    assert field.sign_at(0, x) == oracles.quadratic_sign(a, -b, n)
    assert field.sign_at(1, x) == oracles.quadratic_sign(a, b, n)


def _sympy_intervals(sympy, poly, k):
    """sympy's isolating intervals of the real roots of poly, of width at
    most 2^-k, ascending; a rational root comes as (r, r)."""
    f = sympy.Poly(list(reversed(poly)), sympy.Symbol("x"))
    return sorted(
        (Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))
        for (a, b), _mult in f.intervals(eps=sympy.Rational(1, 2**k))
    )


def _sympy_signs(sympy, poly, c):
    """The sign of theta - c at each root theta of poly, ascending, with the
    intervals refined until none holds c in its interior or endpoints."""
    k = 256
    while True:
        signs = []
        for lo, hi in _sympy_intervals(sympy, poly, k):
            if lo == hi:
                signs.append((lo > c) - (lo < c))
            elif c < lo or c > hi:
                signs.append(1 if c < lo else -1)
        if len(signs) == len(poly) - 1:
            return signs
        k *= 2


@pytest.mark.parametrize("poly", [
    (-1, -3, 0, 1),
    (1, 3, -3, -4, 1, 1),  # 2cos(2pi/11)
    (0, -1, 0, 1),  # x^3 - x: exact rational roots, lo == hi at 0
])
def test_integer_sturm_signs_match_sympy(poly):
    sympy = pytest.importorskip("sympy")
    field = TotallyRealField(poly)
    eps = Fraction(1, 2**200)
    near = set()
    for lo, hi in _sympy_intervals(sympy, poly, 201):
        near |= {lo, hi, (lo + hi) / 2} if lo < hi else {lo, lo - eps, lo + eps}
    near = sorted(near)
    want = {c: _sympy_signs(sympy, poly, c) for c in near}
    linear = {c: field.gen() - field.from_power([c]) for c in near}
    for c in near:
        assert [field.sign_at(i, linear[c]) for i in range(field.degree)] == want[c]
    for c1, c2 in itertools.combinations(near, 2):
        x = linear[c1] * linear[c2]
        signs = [a * b for a, b in zip(want[c1], want[c2])]
        assert [field.sign_at(i, x) for i in range(field.degree)] == signs


QUINTIC = TotallyRealField((1, 3, -3, -4, 1, 1))  # 2cos(2pi/11)
SEPTIC = TotallyRealField((1, -4, -4, 10, 4, -6, -1, 1))
# x^3 - x with the idempotent (t + t^2)/2: reducible, a non-power order
IDEMPOTENT = TotallyRealField(
    (0, -1, 0, 1), ((1, 0, 0), (0, 1, 0), (0, Fraction(1, 2), Fraction(1, 2))))
FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def element_pairs(draw):
    """A field, two elements with their power coordinates worked out
    without numberfield (from integral-basis coordinates, or power
    coordinates of any length reduced by the oracle), and a scalar."""
    field = draw(st.sampled_from((SQRT2, CUBIC, QUINTIC, SEPTIC, GOLDEN, IDEMPOTENT)))
    d = field.degree

    def one_element():
        if draw(st.booleans()):
            coords = draw(st.lists(FRACTIONS, min_size=d, max_size=d))
            power = [sum((c * row[j] for c, row in zip(coords, field.basis)), Fraction(0))
                     for j in range(d)]
            return field.element(coords), power
        coords = draw(st.lists(FRACTIONS, max_size=2 * d))
        return field.from_power(coords), oracles._mulmod(coords, [1], field.poly)

    return field, one_element(), one_element(), draw(FRACTIONS)


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_arithmetic_matches_oracle(case):
    field, (x, px), (y, py), c = case
    poly, d = field.poly, field.degree
    for z, pz in ((x, px), (y, py)):
        assert list(z.power) == pz
        assert z.den > 0 and math.gcd(z.den, *z.num) == 1
    assert list((x + y).power) == [a + b for a, b in zip(px, py)]
    assert list((x - y).power) == [a - b for a, b in zip(px, py)]
    assert list((x * y).power) == oracles._mulmod(px, py, poly)
    assert list((c * x).power) == list((x * c).power) == [c * a for a in px]
    assert field.trace(x) == oracles.companion_trace(poly, px)
    coords = field.integral_coords(x.power)
    assert [sum(k * row[j] for k, row in zip(coords, field.basis)) for j in range(d)] == px
    # equal values built by different routes are equal and hash alike
    for z in (field.from_power(px), field.element(coords), (x + y) - y, x * field.one(), -(-x)):
        assert z == x and hash(z) == hash(x)
