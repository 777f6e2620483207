import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrolljets import chern
from scrolljets.chern import osculating_chern, rank_profile, segre_closed_form, segre_term
from scrolljets.chow import ChowClass, CoeffPoly, D, G


# ---------------------------------------------------------------------------
# rank bookkeeping
# ---------------------------------------------------------------------------


def test_rank_profile_surface_order_two():
    p = rank_profile(2, 2)
    assert (p.rank_jet, p.rank_osculating, p.rank_cokernel, p.rank_order_step) == (
        6,
        5,
        1,
        1,
    )


def test_rank_profile_curve():
    for k in range(1, 8):
        p = rank_profile(1, k)
        assert p.rank_jet == k + 1
        assert p.rank_osculating == k + 1
        assert p.rank_cokernel == 0


def test_rank_profile_threefold():
    p = rank_profile(3, 2)
    assert (p.rank_jet, p.rank_osculating, p.rank_cokernel, p.rank_order_step) == (
        10,
        7,
        3,
        3,
    )


def test_rank_profile_rejects_bad_input():
    with pytest.raises(ValueError):
        rank_profile(0, 1)
    with pytest.raises(ValueError):
        rank_profile(2, 0)


def test_rank_additivity():
    for n in range(1, 11):
        for k in range(2, 11):
            here = rank_profile(n, k)
            prev = rank_profile(n, k - 1)
            assert here.rank_cokernel == prev.rank_cokernel + here.rank_order_step
            assert here.rank_osculating == prev.rank_osculating + n
            assert here.rank_cokernel >= 0
            assert here.rank_order_step >= 0


# ---------------------------------------------------------------------------
# Chern factors: the reference the total class is checked against, written
# from the public algebra alone
# ---------------------------------------------------------------------------


def curve_factor(n, i):
    """The curve factor 1 - (d + 2in(g-1))F for twist index i."""
    return ChowClass(n, [(0, 1, 0), (1, 0, -(D + 2 * i * n * (G - 1)))])


def line_twist_factor(n, k):
    """The line twist factor 1 - L - 2k(g-1)F at order k."""
    return ChowClass(n, [(0, 1, 0), (1, -1, -2 * k * (G - 1))])


def test_curve_factor_untwisted():
    for n in (1, 2, 3):
        assert curve_factor(n, 0) == ChowClass(n, [(0, 1, 0), (1, 0, -D)])


def test_curve_factor_inverse_example():
    expected = ChowClass(2, [(0, 1, 0), (1, 0, D + 4 * (G - 1))])
    assert curve_factor(2, 1).inverse() == expected


def test_curve_factor_direct_times_inverse_is_one():
    for n in (1, 2, 4):
        for i in (0, 1, 3):
            product = curve_factor(n, i) * curve_factor(n, i).inverse()
            assert product == ChowClass.unit(n)


def test_line_twist_values():
    n = 3
    assert line_twist_factor(n, 0) == ChowClass(n, [(0, 1, 0), (1, -1, 0)])
    assert line_twist_factor(n, 2) == ChowClass(n, [(0, 1, 0), (1, -1, -4 * (G - 1))])
    # genus one kills the twist for every k
    for k in range(5):
        evaluated = line_twist_factor(n, k).evaluate(g=1)
        assert evaluated == ChowClass(n, [(0, 1, 0), (1, -1, 0)])


# ---------------------------------------------------------------------------
# total Chern class
# ---------------------------------------------------------------------------


def test_total_chern_curve_order_one():
    # the collapsed sum against the explicit product of every factor,
    # from the curve at order one up to the benchmark's largest cells
    for n in range(1, 13):
        for k in range(1, 31):
            expected = ChowClass.unit(n)
            for i in range(k):
                expected = expected * curve_factor(n, i)
            expected = expected * line_twist_factor(n, k)
            total = osculating_chern(n, k)
            assert total == expected
            assert str(total) == str(expected)
            assert hash(total) == hash(expected)


def test_total_chern_constant_term():
    for n in (1, 2, 3):
        for k in (1, 2, 4):
            a, b = osculating_chern(n, k).term(0)
            assert a == 1 and b.is_zero()


def test_total_chern_codim_one_term():
    # expanding the product symbolically: -L - (kd + (nk(k-1) + 2k)(g-1))F
    for n in (1, 2, 3):
        for k in (1, 2, 3, 5):
            a, b = osculating_chern(n, k).term(1)
            assert a == CoeffPoly.const(-1)
            assert b == -(k * D + (n * k * (k - 1) + 2 * k) * (G - 1))


def test_inverse_curve_factor_product_collapses():
    # the product of the k inverse curve factors is 1 + aF with
    # a = k(d + n(k-1)(g-1))
    for n in (1, 2, 3):
        for k in (1, 2, 4, 6):
            product = ChowClass.unit(n)
            for i in range(k):
                product = product * curve_factor(n, i).inverse()
            a = k * (D + (n * (k - 1)) * (G - 1))
            assert product == ChowClass(n, [(0, 1, 0), (1, 0, a)])


fiber_coeffs = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.one_of(
        st.integers(-9, 9),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    ),
    max_size=3,
).map(CoeffPoly)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.lists(fiber_coeffs, max_size=6))
def test_fiber_factors_multiply_to_their_sum(n, coeffs):
    # F*F = 0: the product of the 1 + c_i F is 1 + (c_0 + ... )F
    product = ChowClass.unit(n)
    for c in coeffs:
        product = product * ChowClass(n, [(0, 1, 0), (1, 0, c)])
    total = sum(coeffs, CoeffPoly())
    assert product == ChowClass(n, [(0, 1, 0), (1, 0, total)])


def test_total_chern_multiplicative_step():
    # passing from order k-1 to order k multiplies by the rank-n step
    # factor, realized through explicit cancellations
    for n in (1, 2, 3):
        for k in (2, 3, 4):
            lhs = osculating_chern(n, k)
            rhs = (
                osculating_chern(n, k - 1)
                * line_twist_factor(n, k)
                * line_twist_factor(n, k - 1).inverse()
                * curve_factor(n, k - 1)
            )
            assert lhs == rhs


# ---------------------------------------------------------------------------
# Segre terms
# ---------------------------------------------------------------------------


def test_segre_pipeline_matches_closed_form_grid():
    # n up to the benchmark's SEGRE_MAX_N
    for n in range(1, 13):
        for k in range(1, 7):
            for j in range(1, n + 1):
                assert segre_term(n, k, j) == segre_closed_form(n, k, j)


def test_segre_term_is_the_piece_of_the_untruncated_inverse():
    # segre_term reads its piece off the cached inverse of the total class;
    # it must be the piece of an inverse built here, outside the cache
    for n in range(1, 13):
        for k in range(1, 9):
            full = osculating_chern(n, k).inverse()
            for j in range(1, n + 1):
                assert segre_term(n, k, j) == ChowClass(n, [(j, *full.term(j))]), (n, k, j)


def test_segre_terms_survive_eviction_from_the_shared_inverse_cache():
    # 48 (n, k) pairs, more than the cache holds, asked in a shuffled order:
    # entries are evicted and rebuilt, and every piece, cold or warm, is the
    # closed form and the piece of an inverse built outside the cache
    pairs = [(n, k) for n in range(1, 9) for k in range(1, 7)]
    inverses = {(n, k): osculating_chern(n, k).inverse() for n, k in pairs}
    grid = [(n, k, j) for n, k in pairs for j in range(1, n + 1)]
    random.Random(40).shuffle(grid)
    chern._segre_class.cache_clear()
    for n, k, j in grid:
        term = segre_term(n, k, j)
        assert term == segre_closed_form(n, k, j), (n, k, j)
        assert term == ChowClass(n, [(j, *inverses[n, k].term(j))]), (n, k, j)
    assert chern._segre_class.cache_info().misses > len(pairs)


def test_segre_terms_never_read_the_closed_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("segre_term read segre_closed_form")

    monkeypatch.setattr(chern, "segre_closed_form", refuse)
    chern._segre_class.cache_clear()
    for n in range(1, 7):
        for k in range(1, 6):
            for j in range(1, n + 1):
                t = k * (n * (k - 1) + 2 * j)
                assert segre_term(n, k, j).term(j) == (1, k * D + t * (G - 1)), (n, k, j)


def test_segre_term_checks_k_before_the_cache():
    # True == 1.0 == 1 as cache keys, so a warm (2, 1) entry must not
    # answer for them: k is checked before the cached inverse is read
    segre_term(2, 1, 1)
    for k in (True, 1.0, Fraction(1), [1]):
        with pytest.raises(ValueError, match="jet order k must be an integer"):
            segre_term(2, k, 1)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_segre_grid_text_is_pinned():
    # the printed Segre terms and total inverses of the benchmark's whole
    # grid, n <= 12 and k <= 27, hashed on every Python the suite runs on
    grid = [(n, k) for n in range(1, 13) for k in range(1, 28)]
    segre = (f"{n},{k},{j}: {segre_term(n, k, j)}" for n, k in grid for j in range(1, n + 1))
    assert _digest(segre) == "6d078b3d747cac17bddb815c7a4e2e60e1866525260422e5a64bdb3c1ed2c0aa"
    inverses = (f"{n},{k}: {osculating_chern(n, k).inverse()}" for n, k in grid)
    assert _digest(inverses) == "75859e05d5d10cd00a76d9a661501b64d39c552eb7537d00129651215e548aea"


def test_segre_term_surface_value_at_genus_zero():
    cls = segre_term(2, 2, 2).evaluate(g=0)
    alpha, beta = cls.term(2)
    assert alpha == 1
    assert beta == 2 * D - 12


def test_segre_term_curve():
    for k in (1, 2, 3):
        cls = segre_term(1, k, 1)
        alpha, beta = cls.term(1)
        assert alpha == 1
        assert beta == k * (D + (k + 1) * (G - 1))
        assert cls.degree_poly() == (k + 1) * (D + k * (G - 1))


def test_segre_closed_form_genus_one():
    for n in (2, 3):
        for k in (1, 2, 3):
            for j in range(1, n + 1):
                cls = segre_closed_form(n, k, j).evaluate(g=1)
                assert cls == ChowClass(n, [(j, 1, k * D)]).evaluate(g=1)


def test_segre_closed_form_case_i_value():
    cls = segre_closed_form(2, 2, 1).evaluate(d=3, g=0)
    assert cls == ChowClass(2, [(1, 1, -2)])


def test_segre_rejects_out_of_range():
    with pytest.raises(ValueError):
        segre_term(2, 2, 0)
    with pytest.raises(ValueError):
        segre_term(2, 2, 3)
    with pytest.raises(ValueError):
        segre_closed_form(3, 1, 4)
