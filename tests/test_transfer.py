"""Trace-form transfer, signature profiles, quaternion trace-zero lattices."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from k3cycles import linalg
from k3cycles.errors import DegenerateTransfer, NotAnOrder
from k3cycles.lattice import Signature, signature
from k3cycles.numberfield import TotallyRealField
from k3cycles.transfer import (
    NumberFieldLattice,
    QuaternionAlgebra,
    diagonal_lattice,
    feasibility_csv,
    feasibility_table,
    ks_admissible,
    ks_shape,
    number_field_lattice,
    quaternion_trace_zero,
    signature_profile,
    trace_lattice,
)

SQRT2 = TotallyRealField.quadratic(2)
SQRT3 = TotallyRealField.quadratic(3)
CUBIC = TotallyRealField(poly=(-1, -3, 0, 1))
RATIONALS = TotallyRealField.rationals()
STANDARD_ORDER = (
    ((1,), (0,), (0,), (0,)),
    ((0,), (1,), (0,), (0,)),
    ((0,), (0,), (1,), (0,)),
    ((0,), (0,), (0,), (1,)),
)
GOLDEN = TotallyRealField((-5, 0, 1), ((1, 0), (Fraction(1, 2), Fraction(1, 2))))
SEPTIC = TotallyRealField((1, -4, -4, 10, 4, -6, -1, 1))


def standard_order(d):
    """Z<1, i, j, k> tensor O_F as integral-basis coordinates."""
    return [[[int(t == s and c == 0) for c in range(d)] for t in range(4)] for s in range(4)]


def power_coords(field, coords):
    """Power coordinates of the element with the given integral-basis
    coordinates, as a plain Fraction combination of the basis rows."""
    return [sum(c * row[j] for c, row in zip(coords, field.basis)) for j in range(field.degree)]


def trace_zero_gram(field, a, b, order):
    """tr_{F/Q} tr_red(x conj(y)) on the integer kernel Z-basis of the
    trace-zero part of the order with Z-basis omega_k e_s, on power
    coordinates through the oracle's quaternion products and traces."""
    poly, d = field.poly, field.degree
    pa, pb = power_coords(field, a), power_coords(field, b)
    zs = [[oracles._mulmod(w, power_coords(field, c), poly) for c in e]
          for e in order for w in field.basis]
    rows = [[z[0][r] for z in zs] for r in range(d)]
    scaled = [[int(x * math.lcm(*(y.denominator for y in row))) for x in row] for row in rows]
    quats = [[[sum(c * z[t][j] for c, z in zip(v, zs)) for j in range(d)] for t in range(4)]
             for v in linalg.integer_kernel(scaled, cols=len(zs))]
    return [[oracles.companion_trace(poly, oracles.quaternion_pairing(poly, pa, pb, x, y))
             for y in quats] for x in quats]


class TestTraceLattice:
    def test_sqrt2_generator(self):
        m = diagonal_lattice(SQRT2, [[0, 1]])
        lat = trace_lattice(m)
        assert lat.gram == ((0, 4), (4, 0))
        assert signature(lat) == Signature(1, 1)

    def test_sqrt2_unit(self):
        m = diagonal_lattice(SQRT2, [[1, 0]])
        lat = trace_lattice(m)
        assert lat.gram == ((2, 0), (0, 4))
        assert signature(lat) == Signature(2, 0)

    def test_rank_multiplies(self):
        m = diagonal_lattice(CUBIC, [[1, 0, 0], [0, 1, 0]])
        assert trace_lattice(m).rank == 6

    def test_off_diagonal_entries(self):
        m = number_field_lattice(SQRT2, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
        lat = trace_lattice(m)
        assert lat.gram[0][2] == 0 and lat.gram[0][3] == 4
        # symmetry of the full trace Gram
        assert all(
            lat.gram[i][j] == lat.gram[j][i]
            for i in range(4)
            for j in range(4)
        )

    def test_degenerate_rejected(self):
        m = diagonal_lattice(SQRT2, [[0, 1], [0, 0]])
        with pytest.raises(DegenerateTransfer):
            trace_lattice(m)

    def test_gram_must_be_symmetric(self):
        with pytest.raises(ValueError):
            number_field_lattice(
                SQRT2, [[[1, 0], [0, 1]], [[1, 0], [1, 0]]]
            )


class TestSignatureProfile:
    def test_sqrt2_generator_profile(self):
        m = diagonal_lattice(SQRT2, [[0, 1]])
        assert signature_profile(m) == (Signature(0, 1), Signature(1, 0))

    def test_unit_profile(self):
        m = diagonal_lattice(SQRT2, [[1, 0], [1, 0]])
        assert signature_profile(m) == (Signature(2, 0), Signature(2, 0))

    def test_profile_sums_to_trace_signature(self):
        m = diagonal_lattice(SQRT2, [[0, 1], [1, 0]])
        prof = signature_profile(m)
        total = signature(trace_lattice(m))
        assert total.pos == sum(p.pos for p in prof)
        assert total.neg == sum(p.neg for p in prof)

    def test_degenerate_embedding(self):
        with pytest.raises(DegenerateTransfer):
            signature_profile(diagonal_lattice(SQRT2, [[0, 0]]))

    def test_split_algebra_full_gram(self):
        # over (x - 1)(x + 1), [[0, t], [t, 1 - t]] is [[0, 1], [1, 0]] at
        # t = 1 and [[0, -1], [-1, 2]] at t = -1: (1, 1) at both, though no
        # diagonal entry is invertible in the algebra
        split = TotallyRealField(poly=(-1, 0, 1))
        m = number_field_lattice(split, [[[0, 0], [0, 1]], [[0, 1], [1, -1]]])
        assert signature_profile(m) == (Signature(1, 1), Signature(1, 1))

    def test_nondiagonal_gram(self):
        m = number_field_lattice(SQRT2, [[[0, 1], [1, 0]], [[1, 0], [0, 1]]])
        prof = signature_profile(m)
        total = signature(trace_lattice(m))
        assert total == Signature(
            sum(p.pos for p in prof), sum(p.neg for p in prof)
        )


class TestAdmissible:
    def test_sqrt2_diag_example(self):
        m = diagonal_lattice(SQRT2, [[0, 1], [0, 1]])
        assert ks_admissible(m) is True
        assert signature(trace_lattice(m)) == Signature(2, 2)

    def test_unit_not_admissible(self):
        assert ks_admissible(diagonal_lattice(SQRT2, [[1, 0]])) is False
        assert ks_admissible(diagonal_lattice(SQRT2, [[1, 0], [1, 0]])) is False

    def test_rank_one_never(self):
        assert ks_admissible(diagonal_lattice(SQRT2, [[0, 1]])) is False

    def test_negated_generator_admissible_other_side(self):
        # -sqrt2 * diag: the distinguished embedding moves position
        m = diagonal_lattice(SQRT2, [[0, -1], [0, -1]])
        assert ks_admissible(m) is True

    def test_cubic_admissible(self):
        # theta on x^3-3x-1 has roots -1.53, -0.35, 1.88: negate and shift
        # to get one positive embedding; simpler: use theta^2 - adjusted
        # diagonal that is (2,0) at exactly one embedding
        t = CUBIC.gen()
        entry = t  # signs at the three embeddings: -, -, +
        m = diagonal_lattice(CUBIC, [entry, entry])
        assert signature_profile(m) == (
            Signature(0, 2),
            Signature(0, 2),
            Signature(2, 0),
        )
        assert ks_admissible(m) is True
        assert signature(trace_lattice(m)) == Signature(2, 4)

    def test_shape_checks_the_trace_signature(self):
        profile = (Signature(0, 2), Signature(0, 2), Signature(2, 0))
        assert ks_shape(profile, Signature(2, 4)) is True
        assert ks_shape(profile[:2], Signature(0, 4)) is False
        # signatures add over the embeddings; a wrong total is a bug, and
        # the check must hold under python -O too
        with pytest.raises(AssertionError):
            ks_shape(profile, Signature(3, 3))


class TestFeasibility:
    def test_matches_golden_csv(self):
        with open("tests/data/feasibility_table.csv", encoding="utf-8") as fh:
            assert feasibility_csv() == fh.read()

    def test_row_formula(self):
        for row in feasibility_table():
            assert row.n == row.d * (row.m + 2) - 2
            assert 2 <= row.d * (row.m + 2) <= 21

    def test_extremes(self):
        rows = feasibility_table()
        ds = {r.d for r in rows}
        assert ds == set(range(2, 11))
        d2 = [r for r in rows if r.d == 2]
        assert [r.m for r in d2] == list(range(9))


class TestQuaternion:
    def test_hamilton_gram(self):
        m = quaternion_trace_zero(RATIONALS, (-1,), (-1,), STANDARD_ORDER)
        lat = trace_lattice(m)
        assert lat.gram == ((2, 0, 0), (0, 2, 0), (0, 0, 2))

    def test_split_signature(self):
        m = quaternion_trace_zero(RATIONALS, (1,), (-1,), STANDARD_ORDER)
        lat = trace_lattice(m)
        assert signature(lat) == Signature(1, 2)
        assert sorted(lat.gram[i][i] for i in range(3)) == [-2, -2, 2]

    def test_over_sqrt2(self):
        order = tuple(
            tuple((1, 0) if t == s else (0, 0) for t in range(4))
            for s in range(4)
        )
        m = quaternion_trace_zero(SQRT2, (-1, 0), (-1, 0), order)
        assert signature_profile(m) == (Signature(3, 0), Signature(3, 0))

    def test_rejects_zero_parameters(self):
        with pytest.raises(ValueError):
            quaternion_trace_zero(RATIONALS, (0,), (-1,), STANDARD_ORDER)

    def test_rejects_missing_one(self):
        bad = (((2,), (0,), (0,), (0,)),) + STANDARD_ORDER[1:]
        with pytest.raises(NotAnOrder):
            quaternion_trace_zero(RATIONALS, (-1,), (-1,), bad)

    def test_rejects_unclosed(self):
        bad = STANDARD_ORDER[:3] + (((0,), (0,), (0,), (2,)),)
        with pytest.raises(NotAnOrder):
            quaternion_trace_zero(RATIONALS, (-1,), (-1,), bad)

    def test_rejects_repeated_element(self):
        bad = STANDARD_ORDER[:3] + STANDARD_ORDER[2:3]
        with pytest.raises(NotAnOrder, match="does not span"):
            quaternion_trace_zero(RATIONALS, (-1,), (-1,), bad)

    @pytest.mark.parametrize("field", [GOLDEN, CUBIC], ids=["golden", "cubic"])
    @pytest.mark.parametrize("seed", range(32, 44))
    def test_basis_spans_the_whole_trace_zero_module(self, field, seed):
        # the returned O_F-basis spans all of K, not a sublattice of full
        # rank: its trace lattice has the |det| of the trace form on a
        # Z-basis of K.  At seeds 32 and 40 (cubic) and 42 (golden) the
        # first triple of full rank spans a proper sublattice.
        rng = random.Random(seed)
        d = field.degree
        a, b = ([rng.choice([-3, -2, -1, 1, 2, 3])] + [rng.randint(-3, 3) for _ in range(d - 1)]
                for _ in range(2))
        one, zero = field.one(), field.zero()
        order = [[one if t == s else zero for t in range(4)] for s in range(4)]
        if seed % 2:  # Z<1, 2i, j, 2k> tensor O_F, an order for all a, b
            order[1][1] = order[3][3] = one + one
        for _ in range(4):  # e_s += c e_t, c in O_F, spans the same order
            s, t = rng.sample(range(4), 2)
            c = field.element([rng.randint(-2, 2) for _ in range(d)])
            order[s] = [x + c * y for x, y in zip(order[s], order[t])]
        order = [[field._to_integral(x) for x in e] for e in order]
        m = quaternion_trace_zero(field, a, b, order)
        want = abs(oracles.det(trace_zero_gram(field, a, b, order)))
        assert abs(trace_lattice(m).det) == want > 0

    def test_septic_witness(self):
        # the m = 1 witness at d = 7: (q theta - p, -1) with p/q between the
        # two largest roots is split at the largest embedding only
        (_lo, hi), (lo, _hi) = SEPTIC.embeddings()[-2:]
        r = (hi + lo) / 2
        start = time.perf_counter()
        m = quaternion_trace_zero(SEPTIC, [-r.numerator, r.denominator] + [0] * 5,
                                  [-1] + [0] * 6, standard_order(7))
        assert time.perf_counter() - start < 1.0
        assert signature_profile(m) == (Signature(3, 0),) * 6 + (Signature(1, 2),)

    def test_identities(self):
        alg = QuaternionAlgebra(SQRT2, SQRT2.element((-1, 0)), SQRT2.element((1, 1)))
        rng = random.Random(43)

        def rand_q():
            return alg.element([
                SQRT2.element((rng.randint(-2, 2), rng.randint(-2, 2)))
                for _ in range(4)
            ])

        for _ in range(15):
            x, y = rand_q(), rand_q()
            # conjugation of i is -i
            i_el = alg.element([SQRT2.zero(), SQRT2.one(), SQRT2.zero(), SQRT2.zero()])
            assert alg.conjugate(i_el)[1].power == (-SQRT2.one()).power
            # x * conj(x) is scalar with value nrd(x)
            prod = alg.multiply(x, alg.conjugate(x))
            assert all(prod[t].is_zero for t in (1, 2, 3))
            # tr_red(xy) = tr_red(yx)
            assert (
                alg.reduced_trace(alg.multiply(x, y)).power
                == alg.reduced_trace(alg.multiply(y, x)).power
            )

    @pytest.mark.parametrize("field", [SQRT2, CUBIC, GOLDEN], ids=["sqrt2", "cubic", "golden"])
    def test_product_and_pairing_match_oracle(self, field):
        rng = random.Random(field.degree)
        d = field.degree

        def rand_element(nonzero=False):
            while True:
                coords = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(d)]
                if any(coords) or not nonzero:
                    return field.element(coords)

        for _ in range(20):
            alg = QuaternionAlgebra(field, rand_element(True), rand_element(True))
            pa, pb = list(alg.a.power), list(alg.b.power)
            x, y = (alg.element([rand_element() for _ in range(4)]) for _ in range(2))
            px, py = ([list(c.power) for c in q] for q in (x, y))
            want = oracles.quaternion_product(field.poly, pa, pb, px, py)
            assert [list(c.power) for c in alg.multiply(x, y)] == want
            assert list(alg.pairing(x, y).power) == oracles.quaternion_pairing(
                field.poly, pa, pb, px, py)

    def test_pure_quaternions_have_zero_trace(self):
        alg = QuaternionAlgebra(RATIONALS, RATIONALS.element((-1,)), RATIONALS.element((-1,)))
        for t in (1, 2, 3):
            q = alg.element([
                RATIONALS.one() if s == t else RATIONALS.zero() for s in range(4)
            ])
            assert alg.reduced_trace(q).is_zero


class TestForeignElements:
    """An element of another field raises ValueError at every entry point."""

    def test_lattice_constructor(self):
        with pytest.raises(ValueError, match="different fields"):
            trace_lattice(NumberFieldLattice(SQRT2, ((SQRT3.element((1, 1)),),)))

    def test_number_field_lattice(self):
        with pytest.raises(ValueError, match="different fields"):
            number_field_lattice(SQRT2, [[[1, 0], SQRT3.gen()], [SQRT3.gen(), [1, 0]]])

    def test_diagonal_lattice(self):
        with pytest.raises(ValueError, match="different fields"):
            diagonal_lattice(SQRT2, [[0, 1], SQRT3.element((1, 1))])

    @pytest.mark.parametrize("slot", ["a", "b"])
    def test_quaternion_parameters(self, slot):
        order = tuple(tuple((1, 0) if t == s else (0, 0) for t in range(4)) for s in range(4))
        params = {"a": (-1, 0), "b": (-1, 0), slot: SQRT3.element((-1, 0))}
        with pytest.raises(ValueError, match="different fields"):
            quaternion_trace_zero(SQRT2, params["a"], params["b"], order)

    @pytest.mark.parametrize("slot", ["a", "b"])
    def test_quaternion_algebra(self, slot):
        params = {"a": SQRT2.gen(), "b": SQRT2.one(), slot: SQRT3.gen()}
        with pytest.raises(ValueError, match="different fields"):
            QuaternionAlgebra(SQRT2, params["a"], params["b"])

    def test_quaternion_algebra_converts_parameters(self):
        alg = QuaternionAlgebra(SQRT2, (0, 1), (1, 0))
        assert (alg.a, alg.b) == (SQRT2.gen(), SQRT2.one())


class TestSerialization:
    def test_round_trip(self):
        m = diagonal_lattice(SQRT2, [[0, 1], [2, -1]])
        again = NumberFieldLattice.from_dict(m.to_dict())
        assert again.field.poly == m.field.poly
        assert all(
            again.gram[i][j].power == m.gram[i][j].power
            for i in range(2)
            for j in range(2)
        )

    def test_from_dict_validates(self):
        with pytest.raises(ValueError):
            NumberFieldLattice.from_dict({"field": SQRT2.to_dict()})
        with pytest.raises(ValueError):
            NumberFieldLattice.from_dict(
                {"field": SQRT2.to_dict(), "gram": [[[1]]]}
            )


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from((SQRT2, SQRT3, CUBIC)),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**30),
)
def test_additivity_random_diagonals(field, rank, seed):
    rng = random.Random(seed)
    entries = []
    while len(entries) < rank:
        coords = tuple(rng.randint(-3, 3) for _ in range(field.degree))
        x = field.element(coords)
        if all(field.sign_at(i, x) != 0 for i in range(field.degree)):
            entries.append(x)
    m = diagonal_lattice(field, entries)
    prof = signature_profile(m)
    total = signature(trace_lattice(m))
    assert total.pos == sum(p.pos for p in prof)
    assert total.neg == sum(p.neg for p in prof)
    assert trace_lattice(m).rank == field.degree * rank


# (poly, integral basis in power coordinates), degrees 1 to 5; None is the
# power basis
ORACLE_FIELDS = {
    (0, 1): None,
    (-2, 0, 1): ((1, 0), (0, 2)),  # the order Z[2 sqrt 2], not Z[sqrt 2]
    (-5, 0, 1): ((1, 0), (Fraction(1, 2), Fraction(1, 2))),  # golden basis
    (-1, 0, 1): None,  # (x - 1)(x + 1)
    (-1, -3, 0, 1): None,
    # x^3 - x with the idempotent (t + t^2)/2: reducible, a non-power order
    (0, -1, 0, 1): ((1, 0, 0), (0, 1, 0), (0, Fraction(1, 2), Fraction(1, 2))),
    (2, 0, -4, 0, 1): None,
    (1, 3, -3, -4, 1, 1): None,  # 2cos(2pi/11)
}
ORACLE_BUILT = {
    poly: TotallyRealField(poly, basis or ()) for poly, basis in ORACLE_FIELDS.items()
}


@st.composite
def field_grams(draw):
    field = ORACLE_BUILT[draw(st.sampled_from(sorted(ORACLE_BUILT)))]
    d = field.degree
    rank = draw(st.integers(1, 3))

    def entry(off_diagonal):
        x = field.element(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
        if draw(st.booleans()):
            # rational power coordinates: often outside the order
            x = x + field.from_power([
                Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2, 3))))
                for _ in range(d)
            ])
        return field.one() if off_diagonal and x.is_zero else x

    upper = {(i, j): entry(i != j) for i in range(rank) for j in range(i, rank)}
    return field, [[upper[min(i, j), max(i, j)] for j in range(rank)] for i in range(rank)]


@settings(max_examples=120, deadline=None)
@given(field_grams())
def test_trace_lattice_matches_oracle(case):
    field, gram = case
    m = number_field_lattice(field, gram)
    powers = [[x.power for x in row] for row in gram]
    try:
        want = oracles.trace_form(field.poly, field.basis, powers)
    except ValueError:
        with pytest.raises(ValueError, match="not integral"):
            trace_lattice(m)
        return
    if oracles.det(want) == 0:
        with pytest.raises(DegenerateTransfer):
            trace_lattice(m)
    else:
        assert trace_lattice(m).gram == tuple(map(tuple, want))


@st.composite
def full_order_grams(draw):
    field = ORACLE_BUILT[draw(st.sampled_from(sorted(ORACLE_BUILT)))]
    d = field.degree
    rank = draw(st.integers(1, 4))
    upper = {
        (i, j): field.element(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
        for i in range(rank)
        for j in range(i, rank)
    }
    return field, [[upper[min(i, j), max(i, j)] for j in range(rank)] for i in range(rank)]


@settings(max_examples=100, deadline=None)
@given(full_order_grams())
def test_profile_matches_embedding_oracle(case):
    field, gram = case
    m = number_field_lattice(field, gram)
    powers = [[x.power for x in row] for row in gram]
    if oracles.det(oracles.trace_form(field.poly, field.basis, powers)) == 0:
        with pytest.raises(DegenerateTransfer):
            signature_profile(m)
        return
    want = oracles.embedding_profile(field.poly, powers, 100)
    # the oracle only approximates irrational roots: both precisions must agree
    assert oracles.embedding_profile(field.poly, powers, 200) == want
    assert [tuple(s) for s in signature_profile(m)] == want


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: NumberFieldLattice(SQRT2, ((SQRT2.one(), SQRT2.zero()),)), ValueError,
     "must be square"),
    (lambda: diagonal_lattice(SQRT2, [SQRT2.from_power([Fraction(1, 2)])]).to_dict(),
     ValueError, "O_F-integral"),
    (lambda: NumberFieldLattice.from_dict({"field": {"poly": [-2, 0, 1]}, "gram": "x"}),
     ValueError, "'gram' must be a matrix"),
    (lambda: QuaternionAlgebra(SQRT2, (1, 0), (1, 0)).element([SQRT2.one()] * 3), ValueError,
     "4 components"),
    (lambda: quaternion_trace_zero(RATIONALS, (-1,), (-1,), [((1,), (0,), (0,))]), ValueError,
     "4 coordinate vectors"),
    (lambda: quaternion_trace_zero(RATIONALS, (-1,), (-1,), STANDARD_ORDER[:3]), NotAnOrder,
     "4 elements"),
])
def test_error_paths(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
