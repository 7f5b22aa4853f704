"""Exact vector enumeration against brute-force box sweeps."""

import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from k3cycles import enumeration
from k3cycles.cli import EXIT_INVALID, run
from k3cycles.errors import (
    EnumerationLimitExceeded,
    IndefiniteLattice,
    NegativeTarget,
)
from k3cycles.enumeration import (
    _Budget,
    _lane_width,
    _shell,
    _tuple_search,
    enumerate_vectors,
    norm_histogram,
    rep_count,
    tuple_rep_count,
)
from k3cycles.lattice import (
    DiscriminantGroup,
    Lattice,
    direct_sum,
    discriminant_group,
    e8_lattice,
    root_a1,
)
from k3cycles.theta import theta_value


def posdef_lattices(rank_max=3, rank_min=1):
    """Random A'A + I style positive definite integer Gram matrices."""

    def build(data):
        n, rows = data
        a = [row[:n] for row in rows[:n]]
        gram = [
            [
                sum(a[k][i] * a[k][j] for k in range(n)) + (2 if i == j else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        return Lattice(tuple(tuple(row) for row in gram))

    return st.tuples(
        st.integers(rank_min, rank_max),
        st.lists(
            st.lists(st.integers(-2, 2), min_size=rank_max, max_size=rank_max),
            min_size=rank_max,
            max_size=rank_max,
        ),
    ).map(build)


# D4 with basis (1,-1,0,0), (0,1,-1,0), (0,0,1,-1), (0,0,1,1) of Z^4
D4 = Lattice(((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)))
A1A1 = direct_sum(root_a1(), root_a1())


def sheared_e8(seed: str, count: int) -> Lattice:
    """U E8 U^T for U the identity after `count` seeded row shears by +-1."""
    u = [[int(i == j) for j in range(8)] for i in range(8)]
    rng = random.Random(seed)
    for _ in range(count):
        i, j = rng.sample(range(8), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    g = e8_lattice().gram
    ug = [[sum(map(math.prod, zip(row, col))) for col in zip(*g)] for row in u]
    return Lattice(tuple(tuple(sum(map(math.prod, zip(r, v))) for v in u) for r in ug))


@st.composite
def coset_tuple_cases(draw):
    """A lattice, a psd integer target of genus 1-2 and trace <= 6, and per
    slot the trivial coset or a dual coset G^-1 e (on D4 these include
    the spinor cosets, on A1+A1 the half-vectors)."""
    lat = draw(st.one_of(posdef_lattices(rank_min=2), st.sampled_from((D4, A1A1))))
    n = lat.rank
    inv = oracles.inverse(lat.gram)
    r = draw(st.integers(1, 2))
    cosets = []
    for _ in range(r):
        e = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
        trivial = draw(st.booleans())
        cosets.append(None if trivial else
                      tuple(sum(inv[i][j] * e[j] for j in range(n)) for i in range(n)))
    a = draw(st.integers(0, 6))
    if r == 1:
        return lat, ((a,),), cosets
    b = draw(st.integers(0, 6 - a))
    c = draw(st.integers(-math.isqrt(a * b), math.isqrt(a * b)))
    return lat, ((a, c), (c, b)), cosets


class TestRepCount:
    def test_a1_values(self):
        a1 = root_a1()
        assert rep_count(a1, 0) == 1
        assert rep_count(a1, 2) == 2
        assert rep_count(a1, 3) == 0
        assert rep_count(a1, 8) == 2

    def test_e8_roots(self):
        assert rep_count(e8_lattice(), 2) == 240

    def test_rejects_indefinite(self):
        for gram in (((0, 1), (1, 0)), ((2, 2), (2, 2))):
            with pytest.raises(IndefiniteLattice):
                rep_count(Lattice(gram), 2)

    def test_negative_target(self):
        assert rep_count(root_a1(), -2) == 0

    def test_shifted_coset(self):
        # A1 coset h=1/2: norms 2*(k+1/2)^2, so 1/2 occurs twice
        a1 = root_a1()
        assert rep_count(a1, Fraction(1, 2), (Fraction(1, 2),)) == 2
        assert rep_count(a1, Fraction(1, 4), (Fraction(1, 2),)) == 0

    def test_enumerate_vectors_contents(self):
        vecs = enumerate_vectors(root_a1(), 2)
        assert sorted(vecs) == [(-1,), (1,)]

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("K3CYCLES_ENUM_LIMIT", "5")
        with pytest.raises(EnumerationLimitExceeded):
            rep_count(e8_lattice(), 100)

    def test_budget_counts_nodes_without_solutions(self, monkeypatch):
        # E8 is even, so norm 41 has no vectors; the nodes visited on the
        # way must still exhaust the budget
        monkeypatch.setenv("K3CYCLES_ENUM_LIMIT", "1000")
        start = time.perf_counter()
        with pytest.raises(EnumerationLimitExceeded):
            rep_count(e8_lattice(), 41)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("raw", ["1e9", "0", "-5", "abc"])
    def test_invalid_budget_is_an_error(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("K3CYCLES_ENUM_LIMIT", raw)
        with pytest.raises(ValueError, match=f"K3CYCLES_ENUM_LIMIT.*{raw!r}"):
            rep_count(e8_lattice(), 4)
        assert run(["count", "--lattice", "E8", "--t", "4"]) == EXIT_INVALID
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError" and "K3CYCLES_ENUM_LIMIT" in err["message"]

    @pytest.mark.parametrize("count, nodes", [
        (lambda: norm_histogram(e8_lattice(), None, 10), 50444),
        (lambda: rep_count(e8_lattice(), 6), 8227),
        (lambda: tuple_rep_count(e8_lattice(), ((2, 1), (1, 2))), 57979),
        (lambda: tuple_rep_count(e8_lattice(), ((4, 1), (1, 4))), 4668296),
        (lambda: tuple_rep_count(e8_lattice(), ((2, 1, 1), (1, 2, 1), (1, 1, 2))), 868219),
        (lambda: norm_histogram(sheared_e8("E8 skew", 8), None, 6), 10346),
        (lambda: norm_histogram(D4, (1, 1, Fraction(1, 2), Fraction(1, 2)), 31), 3097),
        (lambda: norm_histogram(sheared_e8("shear1", 20), None, 6), 28246),
    ], ids=["histogram", "rep_count", "pairs", "norm-4-pairs", "root-triples", "skewed-E8",
            "D4-spinor", "past-cap"])
    def test_budget_is_spent_exactly(self, monkeypatch, count, nodes):
        # one unit per node of the unmerged search tree and per candidate
        # check, merged states or not: the total passes, one less does not.
        # A batch of the 20-shear E8 reaches MERGE_STATE_CAP, and the walk
        # goes on with merging off
        monkeypatch.setenv("K3CYCLES_ENUM_LIMIT", str(nodes))
        count()
        monkeypatch.setenv("K3CYCLES_ENUM_LIMIT", str(nodes - 1))
        with pytest.raises(EnumerationLimitExceeded):
            count()

    def test_empty_budget_keeps_default(self, monkeypatch):
        monkeypatch.setenv("K3CYCLES_ENUM_LIMIT", "")
        assert rep_count(e8_lattice(), 4) == 2160


class _Tally(_Budget):
    """A budget that records itself, so a test can read what was spent."""

    made: list = []

    def __init__(self, limit: int):
        super().__init__(limit)
        self.made.append(self)


A3 = Lattice(((2, -1, 0), (-1, 2, -1), (0, -1, 2)))
SHEAR20 = sheared_e8("shear1", 20)
D4_SPINOR = (1, 1, Fraction(1, 2), Fraction(1, 2))
BATCH_CUT_CASES = [
    lambda: norm_histogram(e8_lattice(), None, 10),
    lambda: norm_histogram(D4, D4_SPINOR, 31),
    lambda: norm_histogram(SHEAR20, None, 6),
    lambda: rep_count(SHEAR20, 6),
    lambda: enumerate_vectors(e8_lattice(), 4),
    lambda: norm_histogram(root_a1(), (Fraction(1, 3),), 9),
    lambda: enumerate_vectors(root_a1(), Fraction(25, 2), (Fraction(1, 2),)),
    lambda: norm_histogram(A1A1, (Fraction(1, 2), 0), 8),
    lambda: enumerate_vectors(A1A1, Fraction(5, 2), (Fraction(1, 2), 0)),
    lambda: norm_histogram(A3, (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)), 12),
    lambda: tuple_rep_count(e8_lattice(), ((2, 1), (1, 2))),
    lambda: tuple_rep_count(D4, ((1, 0), (0, 2)), [D4_SPINOR, None]),
    lambda: tuple_rep_count(A1A1, ((Fraction(1, 2), 0), (0, 2)), [(Fraction(1, 2), 0), None]),
]


def test_batch_cuts_do_not_change_the_sweep(monkeypatch):
    # where MERGE_STATE_CAP cuts a batch changes which states merge, never
    # the histograms, the vectors, the counts or the budget spent
    monkeypatch.setattr(enumeration, "_Budget", _Tally)
    runs = {}
    for cap in (1, 2, 3, 1 << 10):
        monkeypatch.setattr(enumeration, "MERGE_STATE_CAP", cap)
        runs[cap] = []
        for case in BATCH_CUT_CASES:
            _Tally.made.clear()
            runs[cap].append((case(), [b.left for b in _Tally.made]))
    assert runs[1][0][0][Fraction(10)] == 240 * oracles.sigma(3, 5)
    assert runs[1][3][0] == 6720
    assert all(runs[cap] == runs[1 << 10] for cap in runs)


class TestHistogram:
    def test_matches_box_a1a1(self):
        lat = direct_sum(root_a1(), root_a1())
        assert norm_histogram(lat, None, 10) == oracles.box_histogram(lat, 10)

    def test_shifted_matches_box(self):
        lat = direct_sum(root_a1(), root_a1())
        h = (Fraction(1, 2), 0)
        assert norm_histogram(lat, h, 6) == oracles.box_histogram(lat, 6, h)

    def test_e8_to_20_is_eisenstein_and_fast(self):
        start = time.perf_counter()
        hist = norm_histogram(e8_lattice(), None, 20)
        assert time.perf_counter() - start < 3.0
        want = {Fraction(2 * n): 240 * oracles.sigma(3, n) for n in range(1, 11)}
        assert hist == {Fraction(0): 1, **want}

    def test_e8_to_40_is_eisenstein(self):
        # 7,630,374 nodes charged, under the default 10^7 budget
        hist = norm_histogram(e8_lattice(), None, 40)
        want = {Fraction(2 * n): 240 * oracles.sigma(3, n) for n in range(1, 21)}
        assert hist == {Fraction(0): 1, **want}

    def test_e8e8_to_6_is_eisenstein(self):
        # weight 8: 480 sigma_7(n), 1,530,615 nodes charged
        hist = norm_histogram(direct_sum(e8_lattice(), e8_lattice()), None, 6)
        want = {Fraction(2 * n): 480 * oracles.sigma(7, n) for n in range(1, 4)}
        assert hist == {Fraction(0): 1, **want}

    def test_capped_frontier_stays_small(self):
        # uncapped, a batch of the 40-shear E8 reaches 4698 states at one
        # level, and the batches held whole peak at 2.2 MB; past MERGE_STATE_CAP
        # the walk stops merging, each state's children a batch of their
        # own, and peaks at about 0.2 MB
        lat = sheared_e8("shear0", 40)
        tracemalloc.start()
        try:
            hist = norm_histogram(lat, None, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(hist.values()) == 9121
        assert peak < 750_000


class TestTupleCount:
    def test_frozen_pair_value(self):
        lat = direct_sum(root_a1(), root_a1())
        target = ((2, 0), (0, 2))
        assert tuple_rep_count(lat, target) == 8

    def test_matches_naive(self):
        lat = direct_sum(root_a1(), root_a1())
        for target in (((2, 0), (0, 2)), ((2, 2), (2, 4)), ((4, 0), (0, 2))):
            assert tuple_rep_count(lat, target) == oracles.box_tuple_count(lat, target)

    def test_matches_box_oracle(self):
        lat = direct_sum(root_a1(), root_a1())
        target = ((2, 0), (0, 2))
        assert oracles.box_tuple_count(lat, target) == 8

    def test_negative_diagonal(self):
        lat = root_a1()
        with pytest.raises(NegativeTarget):
            tuple_rep_count(lat, ((-2,),))

    def test_single_is_rep_count(self):
        e8 = e8_lattice()
        assert tuple_rep_count(e8, ((2,),)) == 240

    @pytest.mark.parametrize(
        "target, want", [(((2, 1), (1, 2)), 240 * 56), (((2, 0), (0, 2)), 240 * 126)]
    )
    def test_e8_pairs(self, target, want):
        start = time.perf_counter()
        assert tuple_rep_count(e8_lattice(), target) == want
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("target, want", [
        # the genus-2 Siegel-Eisenstein coefficient of E8 at this target
        (((4, 1), (1, 4)), 967680),
        # a root, a root at 1 to it, and one of the 27 roots at 1 to both
        (((2, 1, 1), (1, 2, 1), (1, 1, 2)), 240 * 56 * 27),
    ])
    def test_e8_closed_forms(self, target, want):
        start = time.perf_counter()
        assert tuple_rep_count(e8_lattice(), target) == want
        assert time.perf_counter() - start < 1.0

    def test_filter_budget(self, monkeypatch):
        # the 240-vector root shell fits in the budget; its 240 x 240
        # candidate checks do not
        monkeypatch.setenv("K3CYCLES_ENUM_LIMIT", "1000")
        assert rep_count(e8_lattice(), 2) == 240
        with pytest.raises(EnumerationLimitExceeded):
            tuple_rep_count(e8_lattice(), ((2, 1), (1, 2)))

    def test_rational_targets_are_exact(self):
        half = Fraction(1, 2)
        # the coset A1 + 1/2 has the two vectors +-1/2 of norm 1/2
        assert rep_count(root_a1(), half, [half]) == 2
        assert tuple_rep_count(root_a1(), [[half]], cosets=[[half]]) == 2
        # no vector of A1 has norm 5/2; the count at norm 2 is not it
        assert tuple_rep_count(root_a1(), [[Fraction(5, 2)]]) == 0
        # A2: 6 roots, each at inner product 1 with two others
        a2 = Lattice(((2, -1), (-1, 2)))
        assert tuple_rep_count(a2, [[2, 1], [1, 2]]) == 12
        assert tuple_rep_count(a2, [[2, half], [half, 2]]) == 0

    def test_fixed_cosets_match_box(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        spinors = ((half, 1, half, 1), (half, 1, 1, half))
        # <9> + A1 with h = (1/3, 0): a coset of order 3 with integral
        # norms, so L + h and L - h differ
        lat9 = Lattice(((9, 0), (0, 2)))
        for lat, target, cosets in (
            (D4, ((3, 1), (1, 3)), (spinors[0], spinors[0])),
            (D4, ((1, 1), (1, 5)), (spinors[1], spinors[1])),
            (D4, ((3, 0), (0, 2)), (spinors[0], None)),
            (D4, ((3, 1), (1, 2)), (spinors[0], None)),
            (lat9, ((4,),), ((third, 0),)),
            (lat9, ((4, -2), (-2, 3)), ((third, 0), (third, 0))),
            (lat9, ((1, 2), (2, 4)), ((third, 0), (2 * third, 0))),
        ):
            want = oracles.box_tuple_count(lat, target, cosets)
            assert want > 0
            assert tuple_rep_count(lat, target, cosets) == want


@settings(max_examples=25, deadline=None)
@given(posdef_lattices(), st.integers(0, 12))
def test_rep_count_matches_box(lat, t):
    assert rep_count(lat, t) == oracles.box_count(lat, t)


@settings(max_examples=40, deadline=None)
@given(coset_tuple_cases())
def test_tuple_count_matches_box(case):
    lat, target, cosets = case
    assert tuple_rep_count(lat, target, cosets) == oracles.box_tuple_count(
        lat, target, cosets
    )


E8 = e8_lattice()
DIAG63 = Lattice(((63, 0), (0, 63)))


@st.composite
def packed_search_cases(draw):
    """A lattice of rank 2-8, r = 1-3 slot cosets of denominators up to 6,
    and an integer target s^2 T.  Each diagonal entry is a norm of its
    slot's coset up to 4, or one with no vectors; each off-diagonal entry
    is drawn from [-e, e], e = isqrt(t_ii t_kk), often at an end."""
    lat = draw(st.one_of(posdef_lattices(rank_max=8, rank_min=2),
                         st.sampled_from((D4, A1A1, E8, DIAG63))))
    r = draw(st.integers(1, 3))
    cosets = []
    for _ in range(r):
        den = draw(st.integers(1, 6))
        cosets.append(tuple(Fraction(draw(st.integers(0, den - 1)), den)
                            for _ in range(lat.rank)))
    scale = math.lcm(*(x.denominator for h in cosets for x in h))
    diag = []
    for h in cosets:
        norms = sorted(t * scale * scale for t in norm_histogram(lat, h, 4))
        absent = max(norms, default=0) + 1
        diag.append(int(draw(st.sampled_from(norms + [absent]))))
    target = [[diag[i] if i == k else 0 for k in range(r)] for i in range(r)]
    for i in range(r):
        for k in range(i + 1, r):
            e = math.isqrt(diag[i] * diag[k])
            target[i][k] = target[k][i] = draw(
                st.one_of(st.sampled_from((-e, e)), st.integers(-e, e)))
    return lat, cosets, target


def _slot_vectors(lat, cosets, target):
    scale = math.lcm(*(x.denominator for h in cosets for x in h))
    return [[[int(v * scale) for v in x]
             for x in enumerate_vectors(lat, Fraction(target[k][k], scale * scale), h)]
            for k, h in enumerate(cosets)]


@settings(max_examples=60, deadline=None)
@given(packed_search_cases())
# shells of more than 16 lanes: E8 root pairs and triples
@example((E8, [(0,) * 8] * 2, [[2, 1], [1, 2]]))
@example((E8, [(0,) * 8] * 3, [[2, 1, 1], [1, 2, 1], [1, 1, 2]]))
@example((E8, [(0,) * 8] * 3, [[2, -1, 0], [-1, 2, 1], [0, 1, 2]]))
# the lane-bias edge: X against X and -X, at dots +-N for N = 63, the
# largest slot norm of 8-bit lanes, and N = 64, the smallest of 16-bit ones
@example((DIAG63, [(0, 0)] * 2, [[63, -63], [-63, 63]]))
@example((DIAG63, [(0, 0)] * 3, [[63, 63, -63], [63, 63, -63], [-63, -63, 63]]))
@example((Lattice(((64, 0), (0, 64))), [(0, 0)] * 3,
          [[64, 64, -64], [64, 64, -64], [-64, -64, 64]]))
# an empty slot between two full ones
@example((D4, [(0,) * 4] * 3, [[2, 0, 1], [0, 3, 0], [1, 0, 2]]))
def test_packed_search_matches_scalar_oracle(case):
    """The packed-lane search gives the scalar filter's count and spends
    the same budget."""
    lat, cosets, target = case
    vectors = _slot_vectors(lat, cosets, target)
    width = _lane_width(max(target[k][k] for k in range(len(target))))
    budget, oracle_budget = _Budget(10**12), _Budget(10**12)
    got = _tuple_search(target, [_shell(lat.gram, v, width) for v in vectors], width, budget)
    pairs = [[(x, [sum(map(math.prod, zip(row, x))) for row in lat.gram]) for x in v]
             for v in vectors]
    assert got == oracles.scalar_tuple_search(target, pairs, oracle_budget)
    assert budget.left == oracle_budget.left


@st.composite
def shifted_lattices(draw, rank_max=5):
    """A lattice of rank 2 to rank_max and a coset shift of denominator 2,
    3 or 6."""
    lat = draw(posdef_lattices(rank_max=rank_max, rank_min=2))
    den = draw(st.sampled_from((2, 3, 6)))
    h = tuple(Fraction(draw(st.integers(0, den - 1)), den) for _ in range(lat.rank))
    return lat, h


@settings(max_examples=15, deadline=None)
@given(posdef_lattices(rank_max=2), shifted_lattices(rank_max=4))
def test_histogram_matches_box(lat, case):
    assert norm_histogram(lat, None, 8) == oracles.box_histogram(lat, 8)
    shifted, h = case
    assert norm_histogram(shifted, h, 6) == oracles.box_histogram(shifted, 6, h)


@settings(max_examples=40, deadline=None)
@given(shifted_lattices())
# order-3 cosets, where L + h and L - h differ
@example((Lattice(((9, 0), (0, 2))), (Fraction(1, 3), Fraction(0))))
@example((D4, (Fraction(1, 3), Fraction(2, 3), 0, Fraction(1, 3))))
def test_exact_counts_match_bound_scan(case):
    lat, h = case
    for t, count in norm_histogram(lat, h, 8).items():
        assert rep_count(lat, t, h) == count
        vectors = enumerate_vectors(lat, t, h)
        assert len(vectors) == count
        for v in vectors:
            assert lat.inner(v, v) == t
            assert all((x - y).denominator == 1 for x, y in zip(v, h))


def test_rank_zero_lattice():
    # the empty lattice has one vector, the zero vector, of norm 0
    empty = Lattice(())
    assert rep_count(empty, 0) == 1
    assert norm_histogram(empty, None, 5) == {0: 1}
    assert enumerate_vectors(empty, 0) == [()]
    assert discriminant_group(empty) == DiscriminantGroup((), (), 1, 0)  # order 1
    value = theta_value(empty, None, 1j, 5)
    assert value.value == 1 and value.tail_bound == 0.0


def test_indefinite_target_has_no_tuples():
    # ((2, 4), (4, 2)) has a nonnegative diagonal but a negative eigenvalue,
    # so it is the Gram matrix of no pair of vectors in a definite lattice
    assert tuple_rep_count(root_a1(), ((2, 4), (4, 2))) == 0


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: rep_count(root_a1(), 1, h=(0, 0)), ValueError, "coset vector length"),
    (lambda: tuple_rep_count(root_a1(), ((2, 0),)), ValueError, "must be square"),
    (lambda: tuple_rep_count(root_a1(), ((2, 1), (0, 2))), ValueError, "must be symmetric"),
    (lambda: tuple_rep_count(root_a1(), ((-2,),)), NegativeTarget, "negative diagonal"),
    (lambda: tuple_rep_count(root_a1(), ((2,),), cosets=[(0,), (0,)]), ValueError,
     "one coset vector per tuple slot"),
])
def test_error_paths(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
