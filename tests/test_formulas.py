import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrolljets.chern import (
    osculating_chern,
    rank_profile,
    segre_closed_form,
    segre_term,
)
from scrolljets.chow import ChowClass, CoeffPoly, D, G
from scrolljets.formulas import (
    ScrollParams,
    classify_uninflected,
    curve_inflection_degree,
    double_point_check,
    inflectional_class,
    inflectional_degree,
)
from scrolljets.scanner import rank_scan, scan_points
from scrolljets.scrollmodel import DecomposableScroll, ScrollPoint


def test_params_derive_jet_order_and_codim():
    p = ScrollParams(n=2, ambient=5)
    assert p.k == 2 and p.ell == 2
    p = ScrollParams(n=3, ambient=7)
    assert p.k == 2 and p.ell == 2
    p = ScrollParams(n=1, ambient=4)
    assert p.k == 4 and p.ell == 1
    assert 1 <= p.ell <= p.n


def test_params_reject_degenerate_ambient():
    with pytest.raises(ValueError):
        ScrollParams(n=2, ambient=2)
    with pytest.raises(ValueError):
        ScrollParams(n=3, ambient=1)
    with pytest.raises(ValueError):
        ScrollParams(n=0, ambient=3)


def test_params_reject_inexact_values():
    # no binary expansion of a float degree, no bool read as 1
    for kwargs in (
        dict(n=2, ambient=4, d=1.7, g=0),
        dict(n=2, ambient=4, d=3, g=0.5),
        dict(n=True, ambient=4),
        dict(n=2, ambient=4.0),
        dict(n=2.0, ambient=4),
        dict(n=2, ambient=4, d=True),
        dict(n=2, ambient=4, d="3"),
    ):
        with pytest.raises(ValueError):
            ScrollParams(**kwargs)
    p = ScrollParams(n=2, ambient=4, d=Fraction(3, 2), g=-7)
    assert (p.d, p.g) == (Fraction(3, 2), Fraction(-7))
    assert str(inflectional_class(p)) == "L - 61*F"


def test_params_codim_always_in_range():
    for n in range(1, 7):
        for ambient in range(n + 1, 40):
            p = ScrollParams(n=n, ambient=ambient)
            assert p.k == ambient // n
            assert p.k * n <= ambient <= (p.k + 1) * n - 1
            assert 1 <= p.ell <= n


# ---------------------------------------------------------------------------
# inflectional class
# ---------------------------------------------------------------------------


def test_class_case_i_surface():
    p = ScrollParams(n=2, ambient=4, d=3, g=0)
    assert inflectional_class(p) == ChowClass(2, [(1, 1, -2)])


def test_class_elliptic_cases():
    for n in (2, 3, 4):
        p = ScrollParams(n=n, ambient=2 * n, d=2 * n + 1, g=1)
        assert inflectional_class(p) == ChowClass(n, [(1, 1, 2 * (2 * n + 1))])
    p = ScrollParams(n=2, ambient=4, d=5, g=1)
    assert inflectional_class(p) == ChowClass(2, [(1, 1, 10)])


def test_class_matches_segre_pipeline():
    for n in range(1, 7):
        for ell in range(1, n + 1):
            for k in range(1, 5):
                ambient = k * n + ell - 1
                if ambient <= n:
                    continue
                p = ScrollParams(n=n, ambient=ambient)
                assert p.k == k and p.ell == ell
                assert inflectional_class(p) == segre_term(n, k, ell)


def test_class_on_linearly_normal_rational_scrolls_is_a_power_of_the_section_class():
    # a linearly normal rational scroll has N = d + n - 1, so at the derived
    # k its degree is d = n(k-1) + ell, and the class is (L - kF)^ell: the
    # class of the locus X_S when every a_j lies in {k-1, k}
    cases = 0
    for n in range(2, 9):
        L, F = ChowClass.hyperplane(n), ChowClass.fiber(n)
        for k in range(1, 9):
            for ell in range(1, n + 1):
                if k * n + ell - 1 > n:
                    p = ScrollParams(n=n, ambient=k * n + ell - 1, d=n * (k - 1) + ell, g=0)
                    assert inflectional_class(p) == (L - k * F) ** ell, (n, k, ell)
                    cases += 1
    assert cases == 273


def test_class_is_homogeneous_of_expected_codim():
    p = ScrollParams(n=4, ambient=9)
    cls = inflectional_class(p)
    assert cls.homogeneous_codim() == p.ell


# ---------------------------------------------------------------------------
# inflectional degree
# ---------------------------------------------------------------------------


def test_degree_plane_quartic_flexes():
    p = ScrollParams(n=1, ambient=2, d=4, g=3)
    assert inflectional_degree(p) == 24


def test_degree_balanced_surface_vanishes():
    p = ScrollParams(n=2, ambient=5, d=4, g=0)
    assert inflectional_degree(p) == 0


def test_degree_twisted_cubic():
    p = ScrollParams(n=1, ambient=3, d=3, g=0)
    assert inflectional_degree(p) == 0


def test_degree_agrees_with_class_degree_formally():
    for n in range(1, 7):
        for ambient in range(n + 1, 5 * n + 2):
            p = ScrollParams(n=n, ambient=ambient)
            assert inflectional_degree(p) == inflectional_class(p).degree_poly()


def test_degree_specializes_to_finite_count_form():
    # at N = (k+1)n - 1 the degree becomes (k+1)(d + nk(g-1))
    for n in range(1, 7):
        for k in range(1, 6):
            ambient = (k + 1) * n - 1
            if ambient <= n:
                continue
            p = ScrollParams(n=n, ambient=ambient)
            assert p.k == k and p.ell == n
            assert inflectional_degree(p) == (k + 1) * (D + n * k * (G - 1))


def test_degree_vanishes_on_rational_scrolls_with_finite_expected_locus():
    # a linearly normal rational scroll has N = d + n - 1, so ell = n forces
    # N = (k+1)n - 1 and d = kn, and then the expected finite count is 0:
    # no such scroll can have more certified inflected points than expected
    for n in range(2, 8):
        for k in range(1, 9):
            ambient = (k + 1) * n - 1
            assert DecomposableScroll((k,) * n).N == ambient
            p = ScrollParams(n=n, ambient=ambient, d=k * n, g=0)
            assert p.ell == n
            assert inflectional_degree(p) == 0


def test_degree_specializes_to_curve_formula():
    for k in range(2, 8):
        p = ScrollParams(n=1, ambient=k)
        assert inflectional_degree(p) == curve_inflection_degree(None, None, k)


# ---------------------------------------------------------------------------
# curve inflection counts
# ---------------------------------------------------------------------------


def test_curve_count_values():
    assert curve_inflection_degree(4, 0, 3) == 4
    assert curve_inflection_degree(4, 3, 2) == 24
    for k in range(1, 8):
        assert curve_inflection_degree(k, 0, k) == 0


def test_curve_count_formal():
    poly = curve_inflection_degree(None, None, 2)
    assert poly == 3 * (D + 2 * (G - 1))
    assert curve_inflection_degree(5, None, 2) == 3 * (5 + 2 * (G - 1))


def test_curve_count_rejects_bad_order():
    with pytest.raises(ValueError):
        curve_inflection_degree(4, 0, 0)


# ---------------------------------------------------------------------------
# double point identity
# ---------------------------------------------------------------------------


def test_double_point_families():
    for n in range(1, 11):
        assert double_point_check(n, n + 1, 0)
        assert double_point_check(n, 2 * n + 1, 1)
    assert not double_point_check(2, 6, 0)


def test_double_point_random_false_cases():
    import random

    rng = random.Random(7)
    hits = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        d = rng.randint(1, 30)
        g = rng.randint(0, 6)
        expected = (d - n) * (d - n - 1) == n * (n + 1) * g
        assert double_point_check(n, d, g) is expected
        hits += expected
    assert hits < 50  # true cases are rare


def double_point_polynomial(n):
    """d^2 - int c_n(N), twice the number of double points of a scroll X in
    P^(2n), derived in the Chow ring.

    c(T_X) = [(1+L)^n - d F (1+L)^(n-1)] (1 + (2-2g) F): the relative tangent
    bundle of P(E) -> C times the tangent bundle of C, with c_1(E) = dF.
    The normal bundle has c(N) = (1+L)^(2n+1) / c(T_X).  Also returns
    int c_n(T_X), the topological Euler characteristic.
    """
    one, L, F = ChowClass.unit(n), ChowClass.hyperplane(n), ChowClass.fiber(n)
    tangent = ((one + L) ** n - F * D * (one + L) ** (n - 1)) * (one + F * (2 - 2 * G))
    normal = (one + L) ** (2 * n + 1) * tangent.inverse()

    def top(cls):
        alpha, beta = cls.term(n)
        return alpha * D + beta

    return D * D - top(normal), top(tangent)


def test_double_point_identity_is_derived_from_the_chow_ring():
    for n in range(1, 13):
        double_points, euler = double_point_polynomial(n)
        assert double_points == (D - n) * (D - n - 1) - n * (n + 1) * G, n
        assert euler == n * (2 - 2 * G), n
    for n in range(1, 9):
        double_points, _ = double_point_polynomial(n)
        for d in range(1, 30):
            for g in range(0, 6):
                assert double_point_check(n, d, g) is (double_points.evaluate(d, g) == 0)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_balanced_surface():
    scroll = classify_uninflected(2, 2, 2)
    assert scroll == DecomposableScroll((2, 2))
    assert (scroll.d, scroll.N) == (4, 5)


def test_classify_low_codim_is_inflected():
    assert classify_uninflected(3, 2, 1) is None
    assert classify_uninflected(3, 2, 2) is None


def test_classify_curve_case():
    for k in (1, 2, 5):
        scroll = classify_uninflected(1, k, 1)
        assert scroll == DecomposableScroll((k,))
        assert (scroll.d, scroll.N) == (k, k)


def test_low_codimension_is_inflected_because_the_class_meets_a_fiber_curve_once():
    # for ell < n the locus class is L^ell + ..., so its product with
    # L^(n-ell-1) F has degree 1, not 0: no scroll avoids the locus
    cases = 0
    for n in range(2, 9):
        L, F = ChowClass.hyperplane(n), ChowClass.fiber(n)
        for k in range(1, 9):
            for ell in range(1, n):
                if k * n + ell - 1 < n + 1:
                    continue
                params = ScrollParams(n, k * n + ell - 1)
                assert (params.k, params.ell) == (k, ell)
                cls = inflectional_class(params)
                assert (cls * L ** (n - ell - 1) * F).degree_poly() == 1, (n, k, ell)
                assert classify_uninflected(n, k, ell) is None
                cases += 1
    assert cases == 217


def test_porteous_classes_of_corank_two_or_more_vanish():
    # the locus where the jet rank drops by r has the Thom-Porteous class
    # det[s_(ell+r-1+j-i)] of the Segre terms; each s_m = L^m + (alpha +
    # beta m) L^(m-1) F, so modulo F^2 that matrix has rank 1 and every
    # r >= 2 determinant is zero in d and g: no corank-2 locus, for any
    # scroll, at any (n, k, ell) where its codimension r(ell + r - 1) fits
    cases = 0
    for n in range(1, 9):
        unit, zero = ChowClass.unit(n), ChowClass(n)
        for k in range(1, 9):
            segre = {m: segre_term(n, k, m) for m in range(1, n + 1)}
            segre[0] = unit
            for ell in range(1, n + 1):
                for r in range(2, n + 1):
                    if r * (ell + r - 1) > n:
                        break
                    matrix = [[segre.get(ell + r - 1 + j - i, zero) for j in range(r)]
                              for i in range(r)]
                    det = zero
                    for sigma in itertools.permutations(range(r)):
                        inversions = sum(a > b for a, b in itertools.combinations(sigma, 2))
                        term = unit
                        for i, j in enumerate(sigma):
                            term = term * matrix[i][j]
                        det = det - term if inversions % 2 else det + term
                    # the cancellation is real: the diagonal term fits in codimension n
                    assert not (matrix[0][0] ** r).is_zero(), (n, k, ell, r)
                    assert det.is_zero(), (n, k, ell, r, det)
                    cases += 1
    assert cases == 72


def test_classify_rejects_out_of_range():
    with pytest.raises(ValueError):
        classify_uninflected(2, 2, 0)
    with pytest.raises(ValueError):
        classify_uninflected(2, 2, 3)


def test_classification_is_unique_zero_of_count():
    # exhaustive search: (k+1)(d + nk(g-1)) = 0 over integer g >= 0, d >= 1
    # only at g = 0, d = nk
    for n in range(1, 5):
        for k in range(1, 5):
            zeros = [
                (d, g)
                for d in range(1, 4 * n * k + 1)
                for g in range(0, 8)
                if (k + 1) * (d + n * k * (g - 1)) == 0
            ]
            assert zeros == [(n * k, 0)]


# Every formula entry point takes its integers and rationals exactly: a bool,
# a float or a non-integral value is a ValueError, never a TypeError, a
# truncation or a binary expansion.
INTEGER_SLOTS = [
    lambda v: classify_uninflected(v, 1, 1),
    lambda v: classify_uninflected(2, v, 2),
    lambda v: classify_uninflected(2, 2, v),
    lambda v: segre_term(v, 1, 1),
    lambda v: segre_term(2, v, 1),
    lambda v: segre_term(2, 2, v),
    lambda v: segre_closed_form(v, 1, 1),
    lambda v: segre_closed_form(2, v, 1),
    lambda v: segre_closed_form(2, 2, v),
    lambda v: rank_profile(v, 2),
    lambda v: rank_profile(2, v),
    lambda v: osculating_chern(v, 2),
    lambda v: osculating_chern(2, v),
    lambda v: curve_inflection_degree(4, 0, v),
    lambda v: double_point_check(v, 3, 0),
    lambda v: CoeffPoly({(v, 0): 1}),
    lambda v: CoeffPoly({(0, v): 1}),
    lambda v: D**v,
    lambda v: ChowClass(v),
    lambda v: ChowClass(2, [(v, 1, 0)]),
    lambda v: ChowClass.unit(2).term(v),
    lambda v: ChowClass.hyperplane(2) ** v,
]
RATIONAL_SLOTS = [
    lambda v: curve_inflection_degree(v, 0, 2),
    lambda v: curve_inflection_degree(4, v, 2),
    lambda v: double_point_check(2, v, 0),
    lambda v: double_point_check(2, 4, v),
    lambda v: (D + G).substitute(d=v),
    lambda v: (D + G).substitute(g=v),
    lambda v: (D + G).evaluate(v, 1),
    lambda v: (D + G).evaluate(1, v),
    lambda v: ChowClass.hyperplane(2).evaluate(d=v),
    lambda v: ChowClass.hyperplane(2).degree(v, 0),
]
inexact = st.one_of(st.booleans(), st.floats())
non_integers = st.one_of(
    inexact,
    st.fractions(max_denominator=9).filter(lambda q: q.denominator > 1),
    st.integers(-3, 3).map(Fraction),
)


@settings(max_examples=300)
@given(st.sampled_from(range(len(INTEGER_SLOTS))), non_integers)
def test_integer_slots_reject_inexact_values(slot, value):
    with pytest.raises(ValueError):
        INTEGER_SLOTS[slot](value)


@given(st.sampled_from(range(len(RATIONAL_SLOTS))), inexact)
def test_rational_slots_reject_inexact_values(slot, value):
    with pytest.raises(ValueError):
        RATIONAL_SLOTS[slot](value)


# Every integer bound is one exactness gate: an int outside its range is a
# ValueError in the gate's single message form, whatever the entry point.
RANGE_SCROLL = DecomposableScroll((1, 2))  # N = 4, n = 2: the jet order runs in 1..2
OUT_OF_RANGE = [
    lambda: segre_term(2, 2, 0),
    lambda: segre_term(2, 2, 3),
    lambda: ChowClass.unit(2).term(3),
    lambda: ChowClass(2, [(-1, 1, 0)]),
    lambda: classify_uninflected(2, 2, 0),
    lambda: classify_uninflected(2, 2, 3),
    lambda: osculating_chern(2, 0),
    lambda: segre_closed_form(2, 2, 3),
    lambda: D**-1,
    lambda: CoeffPoly({(-1, 0): 1}),
    lambda: ScrollParams(n=2, ambient=2),
    lambda: DecomposableScroll((0,)),
    lambda: ScrollPoint("0", 0, 0),
    lambda: rank_scan(RANGE_SCROLL, k=3),
    lambda: scan_points(RANGE_SCROLL, 0, 1),
    lambda: rank_profile(0, 2),
]


@pytest.mark.parametrize("slot", range(len(OUT_OF_RANGE)))
def test_integer_slots_reject_out_of_range_values(slot):
    gate_message = r"must (be at least -?\d+|lie in -?\d+\.\.\d+), got -?\d+$"
    with pytest.raises(ValueError, match=gate_message):
        OUT_OF_RANGE[slot]()
