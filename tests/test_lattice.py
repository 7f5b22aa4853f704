"""Builtin lattices, invariants, discriminant groups, embeddings."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3cycles.errors import (
    DegenerateLattice,
    EnumerationLimitExceeded,
    InvalidScale,
    NotInDualLattice,
)
from k3cycles.lattice import (
    BUILTIN_NAMES,
    DISC_ENUMERATION_CAP,
    DiscriminantGroup,
    Lattice,
    Signature,
    builtin_lattice,
    coset_norm,
    direct_sum,
    discriminant_group,
    e8_lattice,
    hyperbolic_plane,
    k3_lattice,
    nikulin_embeddable,
    rescale,
    root_a1,
    signature,
)


def symmetric_grams(n, lo=-4, hi=4):
    entry = st.integers(lo, hi)
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: tuple(
        tuple(rows[i][j] + rows[j][i] for j in range(n)) for i in range(n)
    ))


class TestBuiltins:
    def test_names_resolve(self):
        for name in BUILTIN_NAMES:
            assert builtin_lattice(name).rank > 0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_lattice("E7")

    def test_hyperbolic_plane(self):
        h = hyperbolic_plane()
        assert h.gram == ((0, 1), (1, 0))
        assert signature(h) == Signature(1, 1)
        assert h.det == -1 and h.even

    def test_a1(self):
        a1 = root_a1()
        assert a1.gram == ((2,),)
        assert a1.det == 2 and a1.even

    def test_e8(self):
        e8 = e8_lattice()
        assert e8.rank == 8
        assert e8.det == 1 and e8.even
        assert signature(e8) == Signature(8, 0)
        assert signature(e8_lattice(-1)) == Signature(0, 8)

    def test_k3(self):
        k3 = k3_lattice()
        assert k3.rank == 22
        assert signature(k3) == Signature(3, 19)
        assert k3.even and abs(k3.det) == 1
        assert discriminant_group(k3).order == 1
        assert discriminant_group(k3).invariant_factors == ()


class TestLattice:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            Lattice(((1, 0),))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Lattice(((0, 1), (2, 0)))

    def test_rejects_rational_entries(self):
        with pytest.raises(ValueError, match="integers"):
            Lattice(((Fraction(5, 2),),))

    def test_inner_and_norm(self):
        h = hyperbolic_plane()
        assert h.inner((1, 0), (0, 1)) == 1
        assert h.norm((1, 1)) == 2
        assert h.norm((Fraction(1, 2), 1)) == 1

    def test_even_odd(self):
        assert not Lattice(((1,),)).even
        assert Lattice(((2,),)).even

    def test_dict_round_trip(self):
        e8 = e8_lattice()
        again = Lattice.from_dict(e8.to_dict())
        assert again.gram == e8.gram

    def test_from_dict_ignores_extras(self):
        lat = Lattice.from_dict({"gram": [[2]], "rank": 1, "whatever": True})
        assert lat.gram == ((2,),)

    def test_from_dict_rejects_bad(self):
        for bad in ({}, {"gram": [[1, 0]]}, {"gram": [["x"]]}, {"gram": 3}):
            with pytest.raises(ValueError):
                Lattice.from_dict(bad)


class TestOperations:
    def test_direct_sum(self):
        s = direct_sum(root_a1(), hyperbolic_plane())
        assert s.gram == ((2, 0, 0), (0, 0, 1), (0, 1, 0))
        assert signature(s) == Signature(2, 1)

    def test_rescale(self):
        neg = rescale(root_a1(), -1)
        assert neg.gram == ((-2,),)
        with pytest.raises(InvalidScale):
            rescale(root_a1(), 0)

    def test_coset_norm(self):
        a1 = root_a1()
        assert coset_norm(a1, (Fraction(1, 2),)) == Fraction(1, 2)
        with pytest.raises(NotInDualLattice):
            coset_norm(a1, (Fraction(1, 3),))

    def test_degenerate_discriminant(self):
        with pytest.raises(DegenerateLattice):
            discriminant_group(Lattice(((0,),)))

    def test_discriminant_a1(self):
        d = discriminant_group(root_a1())
        assert d.invariant_factors == (2,)
        assert d.order == 2
        assert len(list(d.elements())) == 2

    def test_discriminant_diag(self):
        d = discriminant_group(Lattice(((2, 0), (0, 4))))
        assert d.order == 8
        assert sorted(d.invariant_factors) == [2, 4]

    def test_elements_refused_above_cap(self):
        n = 21
        d = discriminant_group(
            Lattice(tuple(tuple(2 * (i == j) for j in range(n)) for i in range(n))))
        assert d.order == 2 ** n > DISC_ENUMERATION_CAP
        with pytest.raises(EnumerationLimitExceeded):
            d.elements()  # raises on the call, before the first coset

    def test_elements_at_cap(self):
        cap = DISC_ENUMERATION_CAP
        d = DiscriminantGroup((cap,), ((Fraction(1, cap),),), cap, 1)
        cosets = d.elements()
        assert next(cosets) == (0,)
        assert next(cosets) == (Fraction(1, cap),)


class TestNikulin:
    def test_hyperbolic_occurs_uniquely(self):
        report = nikulin_embeddable(hyperbolic_plane())
        assert report.occurs is True and report.unique is True

    def test_one_ten_loses_uniqueness(self):
        lat = direct_sum(
            hyperbolic_plane(), e8_lattice(-1), rescale(root_a1(), -1)
        )
        assert signature(lat) == Signature(1, 10)
        report = nikulin_embeddable(lat)
        assert report.occurs is True and report.unique is None

    def test_beyond_the_criterion(self):
        lat = direct_sum(
            hyperbolic_plane(), e8_lattice(-1), *[rescale(root_a1(), -1)] * 2
        )
        report = nikulin_embeddable(lat)
        assert report.occurs is None and report.unique is None

    def test_discriminant_too_long_does_not_occur(self):
        # signature (2, 12) with A_L = (Z/2)^14: rank + l(A_L) = 28 > 22
        lat = direct_sum(root_a1(), root_a1(), *[rescale(root_a1(), -1)] * 12)
        assert signature(lat) == Signature(2, 12)
        assert discriminant_group(lat).invariant_factors == (2,) * 14
        report = nikulin_embeddable(lat)
        assert report.occurs is False and report.unique is None

    def test_negative_part_past_19_does_not_occur(self):
        a3 = Lattice(((-2, 1, 0), (1, -2, 1), (0, 1, -2)))
        lat = direct_sum(hyperbolic_plane(), e8_lattice(-1), e8_lattice(-1), a3)
        assert signature(lat) == Signature(1, 20)
        report = nikulin_embeddable(lat)
        assert report.occurs is False and report.unique is None

    def test_two_n_shape(self):
        report = nikulin_embeddable(direct_sum(hyperbolic_plane(), hyperbolic_plane()))
        assert report.occurs is True and report.unique is True

    def test_rejects_odd_and_wrong_shape(self):
        from k3cycles.errors import UnsupportedSignature

        with pytest.raises(UnsupportedSignature):
            nikulin_embeddable(Lattice(((1,),)))
        with pytest.raises(UnsupportedSignature):
            nikulin_embeddable(Lattice(((-2,),)))


@settings(max_examples=60, deadline=None)
@given(symmetric_grams(3))
def test_signature_counts_rank(gram):
    lat = Lattice(gram)
    if lat.det == 0:
        with pytest.raises(DegenerateLattice):
            signature(lat)
        return
    sig = signature(lat)
    assert sig.pos + sig.neg == 3


@settings(max_examples=60, deadline=None)
@given(symmetric_grams(2), symmetric_grams(2))
def test_signature_additive_over_sum(g1, g2):
    a, b = Lattice(g1), Lattice(g2)
    assume(a.det != 0 and b.det != 0)
    s1, s2 = signature(a), signature(b)
    total = signature(direct_sum(a, b))
    assert total == Signature(s1.pos + s2.pos, s1.neg + s2.neg)


@settings(max_examples=60, deadline=None)
@given(symmetric_grams(2))
def test_rescale_flips_signature(gram):
    lat = Lattice(gram)
    assume(lat.det != 0)
    sig = signature(lat)
    flipped = signature(rescale(lat, -1))
    assert (flipped.pos, flipped.neg) == (sig.neg, sig.pos)


@settings(max_examples=40, deadline=None)
@given(symmetric_grams(3, -3, 3))
def test_discriminant_order_is_abs_det(gram):
    lat = Lattice(gram)
    if lat.det == 0:
        return
    assert discriminant_group(lat).order == abs(lat.det)


# Found hanging in the unreduced Smith form: det -96 with entries up to 336.
DET_96 = ((-14, -26, -35, -70, 16), (-26, -50, -59, -130, 40), (-35, -59, -64, -150, 40),
          (-70, -130, -150, -336, 100), (16, 40, 40, 100, -50))


def test_discriminant_det_96_is_fast():
    start = time.perf_counter()
    d = discriminant_group(Lattice(DET_96))
    assert time.perf_counter() - start < 0.5
    assert d.invariant_factors == (2, 4, 12)
    assert len(set(d.elements())) == 96


def _small_det_gram(seed):
    """U D U^T at rank 5-12 with 0 < |det| <= 5000: D diagonal, U a product
    of seeded shears by +-1 or +-2, each kept while the entries stay within
    100, so the Gram is far from diagonal."""
    rng = random.Random(seed)
    n = rng.randint(5, 12)
    diag = [rng.choice((-1, 1)) for _ in range(n)]
    for i in rng.sample(range(n), rng.randint(1, 4)):
        diag[i] *= rng.choice((2, 3, 4, 6))
    g = [[diag[i] * (i == j) for j in range(n)] for i in range(n)]
    for _ in range(8 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        h = [list(row) for row in g]
        h[i] = [x + k * y for x, y in zip(h[i], h[j])]
        for row in h:
            row[i] += k * row[j]
        if max(abs(x) for row in h for x in row) <= 100:
            g = h
    return Lattice(tuple(map(tuple, g)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_discriminant_generators_give_distinct_cosets(seed):
    lat = _small_det_gram(seed)
    d = discriminant_group(lat)
    assert 0 < d.order == abs(lat.det) <= 5000
    for f, g in zip(d.invariant_factors, d.generators):
        assert lat.in_dual(g)
        assert all(0 <= x < 1 for x in g)
        assert all((f * x).denominator == 1 for x in g)
    assert len(set(d.elements())) == d.order
    # the cosets sum k_j g_j mod 1 in itertools.product order of the k_j
    assert list(d.elements()) == [
        tuple(sum(k * g[i] for k, g in zip(ks, d.generators)) % 1 for i in range(d.rank))
        for ks in itertools.product(*map(range, d.invariant_factors))]


def test_cosets_of_diag2_power_12():
    lat = Lattice(tuple(tuple(2 * (i == j) for j in range(12)) for i in range(12)))
    d = discriminant_group(lat)
    start = time.perf_counter()
    cosets = list(d.elements())
    assert time.perf_counter() - start < 1.0
    assert cosets == sorted(itertools.product((Fraction(0), Fraction(1, 2)), repeat=12))


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: root_a1().inner((1,), (1, 0)), ValueError, "vector length does not match"),
    (lambda: root_a1().in_dual((1, 0)), ValueError, "vector length does not match"),
    (lambda: Lattice.from_dict({"gram": [[2]], "name": 3}), ValueError,
     "'name' must be a string"),
    (lambda: e8_lattice(2), InvalidScale, "sign must be"),
])
def test_error_paths(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
