import json
import numbers
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from scrolljets.chow import ChowClass
from scrolljets.formulas import ScrollParams, inflectional_class
from scrolljets.scanner import (
    HYPOTHESIS_VIOLATED,
    MATCH,
    GenericRankFailure,
    cross_validate,
    determinant_divisor,
    rank_scan,
    scan_points,
    wronskian_weights,
)
from scrolljets.scrollmodel import (
    BASE_INF,
    BASE_ZERO,
    DecomposableScroll,
    ScrollPoint,
    evaluate_jet_template,
    exact_rank,
    fiber_coordinate,
    jet_columns,
    jet_matrix,
    jet_rank,
)

MONOMIAL_QUARTIC = [[1], [0, 1], [0, 0, 1], [0, 0, 0, 0, 1]]


def random_spanning_basis(rng, d, k):
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(d + 1)] for _ in range(k + 1)]
        if all(any(row) for row in rows) and any(row[d] for row in rows):
            if exact_rank(rows) == k + 1:
                return rows


def reference_wronskians(rows, k):
    """Both-chart Wronskians by differentiating the basis polynomials.

    Rows have full length d+1; the chart at infinity reverses them.
    """
    u = sp.Symbol("u")
    texts = []
    for coeffs in (rows, [row[::-1] for row in rows]):
        polys = [sum(c * u**i for i, c in enumerate(row)) for row in coeffs]
        w = sp.Matrix(k + 1, k + 1, lambda r, c: sp.diff(polys[c], u, r)).det(method="domain-ge")
        texts.append(sp.sstr(sp.expand(w)))
    return tuple(texts)


# ---------------------------------------------------------------------------
# Wronskian oracle
# ---------------------------------------------------------------------------


def test_wronskian_rational_normal_cubic():
    report = wronskian_weights([[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]], 3)
    assert report.wronskian == "12"
    assert report.total == 0
    assert report.rational_points == ()
    assert report.infinity_weight == 0
    # inexact coefficients are rejected, not truncated
    for bad in (1.9, True, Fraction(1, 2)):
        with pytest.raises(ValueError):
            wronskian_weights([[1], [0, bad], [0, 0, 1], [0, 0, 0, 1]], 3)


def test_wronskian_monomial_quartic_both_charts():
    report = wronskian_weights(MONOMIAL_QUARTIC, 3)
    assert report.wronskian == "48*u"
    assert report.wronskian_at_infinity == "48*u**3"
    assert report.rational_points == ((Fraction(0), 1),)
    assert report.infinity_weight == 3
    assert report.total == 4


def test_wronskian_scroll_input_uses_full_basis():
    report = wronskian_weights(DecomposableScroll((4,)), 4)
    assert report.total == 0
    with pytest.raises(ValueError):
        wronskian_weights(DecomposableScroll((4,)), 3)
    with pytest.raises(ValueError):
        wronskian_weights(DecomposableScroll((1, 2)), 2)


def test_wronskian_degenerate_basis():
    report = wronskian_weights([[1], [0, 1], [1, 1], [0, 0, 0, 1]], 3)
    assert report.degenerate
    assert "dependent" in report.notes[0]


def test_wronskian_random_spanning_bases():
    rng = random.Random(424242)
    for d, k in ((4, 3), (5, 3), (5, 4), (6, 4)):
        for trial in range(20):
            rows = random_spanning_basis(rng, d, k)
            report = wronskian_weights(rows, k)
            assert not report.degenerate
            assert report.total == (k + 1) * (d - k), (d, k, rows)
            if trial < 2:
                charts = (report.wronskian, report.wronskian_at_infinity)
                assert charts == reference_wronskians(rows, k), (d, k, rows)


def test_wronskian_weight_shift_under_translation():
    # moving the basis by u -> u + 1 moves the weights with it
    shifted = [[1], [1, 1], [1, 2, 1], [1, 4, 6, 4, 1]]
    report = wronskian_weights(shifted, 3)
    assert report.rational_points == ((Fraction(-1), 1),)
    assert report.total == 4


def test_wronskian_rational_roots_off_the_integers():
    # the basis 1, t, t^2, t^4 in t = 2u - 1 resp. t = 3u + 2: a root is
    # -(constant term)/(leading coefficient) of its linear factor
    for rows, root, text in (
        ([[1], [-1, 2], [1, -4, 4], [1, -8, 24, -32, 16]], Fraction(1, 2), "6144*u - 3072"),
        ([[1], [2, 3], [4, 12, 9], [16, 96, 216, 216, 81]], Fraction(-2, 3), "104976*u + 69984"),
    ):
        report = wronskian_weights(rows, 3)
        assert report.rational_points == ((root, 1),)
        assert report.wronskian == text
        assert report.total == 4


# ---------------------------------------------------------------------------
# determinant divisor
# ---------------------------------------------------------------------------


def test_determinant_divisor_case_i_surface():
    X = DecomposableScroll((1, 2))
    result = determinant_divisor(X, 2)
    assert result.factors == (("v2", 1),)
    assert result.divisor_class == ChowClass(2, [(1, 1, -2)])
    assert sp.expand(result.delta.as_expr() / sp.Symbol("v2")).is_number


def test_determinant_divisor_case_i_family():
    # degrees (k-1, ..., k-1, k): determinant vanishes exactly on the
    # section cut by the last fiber coordinate, with class L - kF
    for degrees, k in (((1, 2), 2), ((2, 3), 3), ((1, 1, 2), 2)):
        X = DecomposableScroll(degrees)
        result = determinant_divisor(X, k)
        last = f"v{X.n}"
        assert result.factors == ((last, 1),)
        assert all(type(mult) is int for _, mult in result.factors)
        assert result.divisor_class == ChowClass(X.n, [(1, 1, -k)])
        formula = inflectional_class(ScrollParams(n=X.n, ambient=X.N, d=X.d, g=0))
        assert result.divisor_class == formula


def test_determinant_divisor_affine_linear_in_fibers():
    for degrees, k in (((1, 2), 2), ((2, 3), 3), ((1, 1, 2), 2), ((3, 4), 4)):
        X = DecomposableScroll(degrees)
        delta = determinant_divisor(X, k).delta.as_expr()
        for j in range(2, X.n + 1):
            symbol = sp.Symbol(f"v{j}")
            assert sp.degree(delta, symbol) <= 1


def differentiated_jet_matrix(scroll, k, base, iota, u, vs):
    """The reduced jet matrix of a chart by differentiating the section monomials."""
    return sp.Matrix(
        [
            [
                sp.diff(f, u, col[1], *([vs[col[2]]] if col[0] == "uv" else []))
                for col in jet_columns(scroll.n, k, iota)
            ]
            for f in (vs.get(s.summand, 1) * u**s.exponent for s in scroll.section_basis(base, iota))
        ]
    )


def reference_chart_determinants(scroll, k):
    """Every chart determinant by sympy's own elimination over symbols."""
    texts = {}
    for base in (BASE_ZERO, BASE_INF):
        for iota in range(1, scroll.n + 1):
            vs = {j: sp.Symbol(f"v{j}") for j in range(1, scroll.n + 1) if j != iota}
            matrix = differentiated_jet_matrix(scroll, k, base, iota, sp.Symbol("u"), vs)
            texts[(base, iota)] = sp.sstr(sp.expand(matrix.det(method="domain-ge")))
    return texts


def test_determinant_divisor_matches_sympy_determinants():
    # the oracle is checked against an independent elimination, not only
    # against its own; (1, 4) and (1, 3, 3) are generic-rank failures
    failures = 0
    for degrees in ((1, 2), (2, 3), (1, 4), (3, 4), (1, 1, 2), (2, 2, 3), (1, 3, 3), (1, 1, 1, 2)):
        X = DecomposableScroll(degrees)
        k = X.N // X.n
        reference = reference_chart_determinants(X, k)
        if set(reference.values()) == {"0"}:
            with pytest.raises(GenericRankFailure):
                determinant_divisor(X, k)
            failures += 1
            continue
        result = determinant_divisor(X, k)
        assert result.charts == reference, degrees
        assert sp.sstr(result.delta) == reference[(BASE_ZERO, 1)]
        summary = result.to_dict()
        assert summary["determinant"] == reference[(BASE_ZERO, 1)]
        assert summary["divisor_class"] == str(result.divisor_class)
    assert failures == 2


def test_determinant_divisor_requires_square_case():
    with pytest.raises(ValueError):
        determinant_divisor(DecomposableScroll((2, 2)), 2)
    with pytest.raises(ValueError):
        determinant_divisor(DecomposableScroll((1, 3)), 2)


def test_determinant_divisor_generic_rank_failure():
    # a summand of degree >= k+1 gives sections with identically vanishing
    # reduced jets, so the determinant is identically zero
    with pytest.raises(GenericRankFailure):
        determinant_divisor(DecomposableScroll((1, 4)), 3)
    with pytest.raises(GenericRankFailure):
        determinant_divisor(DecomposableScroll((2, 5)), 4)


def test_generic_rank_failure_builds_no_ring_determinant(monkeypatch):
    # the full-support ranks decide a failure before any chart determinant
    import scrolljets.scanner as scanner_mod

    def refuse(*args):
        raise AssertionError("a ring determinant was built")

    monkeypatch.setattr(scanner_mod, "_chart_determinant", refuse)
    for degrees, k in (((1, 4), 3), ((2, 5), 4)):
        with pytest.raises(GenericRankFailure):
            determinant_divisor(DecomposableScroll(degrees), k)


def test_determinant_divisor_square_census():
    # all g=0 scrolls with n <= 3, d <= 8 and N = kn: the extraction must
    # agree with the formula whenever the generic-rank hypothesis holds.
    # In the square case a summand of degree a contributes
    # max(0, a - k + 1) independent sections vanishing to jet order k at a
    # point, and one linear condition relates them, so the hypothesis holds
    # iff the degrees are a permutation of (k-1, ..., k-1, k).
    from itertools import product as iproduct

    seen = genuine = 0
    for n in (2, 3):
        for degrees in iproduct(range(1, 9), repeat=n):
            X = DecomposableScroll(degrees)
            if X.d > 8:
                continue
            k, rem = divmod(X.N, n)
            if rem or k < 1:
                continue
            seen += 1
            if sorted(degrees) == [k - 1] * (n - 1) + [k]:
                genuine += 1
                result = determinant_divisor(X, k)
                formula = inflectional_class(
                    ScrollParams(n=n, ambient=X.N, d=X.d, g=0)
                )
                assert result.divisor_class == formula, degrees
            else:
                with pytest.raises(GenericRankFailure):
                    determinant_divisor(X, k)
    assert seen >= 10 and genuine >= 5


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(1, 3),
    small_fractions,
    st.lists(small_fractions, min_size=2, max_size=2),
)
def test_numeric_jet_matrix_is_symbolic_one_at_the_point(degrees, k, u, v):
    # both evaluate the shared template; the symbolic one is also checked
    # against differentiating the section monomials directly
    X = DecomposableScroll(tuple(degrees))
    v = tuple(v[: X.n - 1])
    for base in (BASE_ZERO, BASE_INF):
        for iota in range(1, X.n + 1):
            usym = sp.Symbol("u")
            vs = {j: sp.Symbol(f"v{j}") for j in range(1, X.n + 1) if j != iota}
            matrix = sp.Matrix(evaluate_jet_template(X, k, base, iota, usym, vs))
            assert matrix == differentiated_jet_matrix(X, k, base, iota, usym, vs)
            at_point = {usym: u, **{vs[j]: x for j, x in zip(sorted(vs), v)}}
            numeric = jet_matrix(X, k, ScrollPoint(base, u, iota, v)).entries
            assert matrix.subs(at_point) == sp.Matrix(numeric)


# ---------------------------------------------------------------------------
# rank scan
# ---------------------------------------------------------------------------


def test_scan_points_deterministic_and_structured():
    X = DecomposableScroll((1, 3))
    pts1 = scan_points(X, 120, seed=5)
    pts2 = scan_points(X, 120, seed=5)
    assert pts1 == pts2
    assert len(pts1) >= 120
    assert len(set(pts1)) == len(pts1)
    structured = {
        (base, u)
        for base in (BASE_ZERO, BASE_INF)
        for u in (0, 1, -1, 2, -2)
    }
    found = {(p.base_chart, p.u) for p in pts1}
    assert structured <= found
    assert any(p.v == (Fraction(0),) for p in pts1)


def test_rank_scan_balanced_finds_nothing():
    report = rank_scan(DecomposableScroll((2, 2)), samples=200)
    assert report.k == 2
    assert report.inflected == ()
    assert report.clean_count == report.points_examined
    assert any("no inflected sample" in note for note in report.notes)


def test_rank_scan_unbalanced_detects_directrix():
    X = DecomposableScroll((1, 3))
    report = rank_scan(X, k=2, samples=300)
    assert report.inflected
    for sample in report.inflected:
        assert sample.corank == 1
        assert fiber_coordinate(X, sample.point, 2) == 0
        # certificate is independently checkable
        assert exact_rank(sample.matrix) == sample.rank
        assert jet_rank(jet_matrix(X, 2, sample.point)) == sample.rank
    assert any("w2 = 0" in note for note in report.notes)
    clean_points = report.points_examined - len(report.inflected)
    assert clean_points == report.clean_count > 0


def test_rank_scan_semibalanced_at_its_own_order_is_clean():
    # P(O(k) + O(k+1)) carries full k-jets everywhere
    for k in (1, 2):
        X = DecomposableScroll((k, k + 1))
        report = rank_scan(X, k=k, samples=200)
        assert report.inflected == ()


def test_rank_scan_semibalanced_at_top_order_finds_directrix():
    # at the derived order k+1 the minimal section drops rank: the pure
    # derivative column of order k+1 vanishes along it
    X = DecomposableScroll((2, 3))
    report = rank_scan(X, k=3, samples=200)
    assert report.inflected
    for sample in report.inflected:
        assert fiber_coordinate(X, sample.point, 2) == 0
        assert sample.corank == 1


def test_rank_scan_rejects_large_order():
    with pytest.raises(ValueError):
        rank_scan(DecomposableScroll((1, 2)), k=3)
    for samples in (0, -5, 2.5, True):
        with pytest.raises(ValueError):
            rank_scan(DecomposableScroll((2, 2)), samples=samples)
    for seed in (1.5, True):
        with pytest.raises(ValueError):
            rank_scan(DecomposableScroll((1, 3)), samples=20, seed=seed)
    # the jet order is checked before any point is built
    for k in (True, 1.0, 2.5, 0, -1):
        with pytest.raises(ValueError):
            rank_scan(DecomposableScroll((2, 2)), k=k)
    # the structured block alone would hold 10 n 2^(n-1) points
    for n in (8, 20):
        with pytest.raises(ValueError):
            scan_points(DecomposableScroll((1,) * n), 1, seed=0)


class OtherIntegral:
    """An integral type that is not int, as numpy.int64 is."""

    def __init__(self, value):
        self.value = value

    def __int__(self):
        return self.value

    __index__ = __int__


numbers.Integral.register(OtherIntegral)


def test_reports_record_the_integers_their_gates_return():
    # the gates accept any numbers.Integral; the report must keep the int the
    # gate returned, or its document cannot be serialised
    X = DecomposableScroll((1, 3))
    for report in (
        rank_scan(X, samples=20, seed=OtherIntegral(3)),
        rank_scan(X, samples=OtherIntegral(20), seed=3),
    ):
        assert type(report.seed) is int and type(report.samples_requested) is int
        assert (report.seed, report.samples_requested) == (3, 20)
        json.dumps(report.to_dict())
    summary = cross_validate(X, samples=OtherIntegral(20), seed=3).to_dict()
    assert type(summary["oracle_result"]["samples_requested"]) is int
    json.dumps(summary)


# ---------------------------------------------------------------------------
# cross validation
# ---------------------------------------------------------------------------


def test_cross_validate_case_i_match():
    report = cross_validate(DecomposableScroll((1, 2)))
    assert report.verdict == MATCH
    assert report.oracle == "determinant-divisor"
    assert report.formula_class == "L - 2*F"
    assert report.oracle_summary["divisor_class"] == "L - 2*F"


def test_cross_validate_curve_full_basis():
    report = cross_validate(DecomposableScroll((4,)))
    assert report.verdict == MATCH
    assert report.k == 4
    assert report.formula_degree == "0"


def test_cross_validate_curve_generic_projection():
    report = cross_validate(DecomposableScroll((4,)), k=3)
    assert report.verdict == MATCH
    assert report.formula_degree == "4"
    assert report.oracle == "wronskian"


def test_cross_validate_hypothesis_violation():
    report = cross_validate(DecomposableScroll((1, 3)), samples=250)
    assert report.verdict == HYPOTHESIS_VIOLATED
    assert report.oracle == "rank-scan"
    assert report.formula_degree == "0"
    assert any("wrong dimension" in note for note in report.notes)


def test_cross_validate_generic_rank_failure_is_violation():
    report = cross_validate(DecomposableScroll((1, 4)))
    assert report.verdict == HYPOTHESIS_VIOLATED
    assert report.oracle == "determinant-divisor"


def test_cross_validate_generic_rank_failure_off_square():
    # a generic jet rank below kn+1 inflects the whole scroll, whatever the
    # scan's sample count; the scan summary still carries certificates
    for degrees in (
        (1, 1, 6), (1, 2, 5), (1, 3, 4), (1, 4, 6), (1, 5, 5),
        (2, 3, 6), (2, 4, 5), (2, 6, 6), (3, 5, 6),
    ):
        report = cross_validate(DecomposableScroll(degrees), samples=20)
        assert report.verdict == HYPOTHESIS_VIOLATED, degrees
        assert report.oracle == "rank-scan"
        assert any("the whole scroll is inflected" in note for note in report.notes)
        assert report.oracle_summary["clean_count"] == 0
        assert report.oracle_summary["inflected"]
    # the section P(O(a_1)) is the locus, of the expected class
    for degrees in ((1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 5, 5), (5, 6, 6)):
        report = cross_validate(DecomposableScroll(degrees), samples=20)
        assert report.verdict == MATCH, degrees
        assert not any("whole scroll" in note for note in report.notes)


def test_cross_validate_balanced_scan():
    report = cross_validate(DecomposableScroll((2, 2)))
    assert report.verdict == MATCH
    assert report.oracle == "rank-scan"
    assert report.formula_degree == "0"


def test_cross_validate_rejects_explicit_order_on_surfaces():
    with pytest.raises(ValueError):
        cross_validate(DecomposableScroll((1, 2)), k=1)


def test_cross_validate_rejects_inexact_order():
    for degrees in ((3,), (1, 2), (2, 2)):
        for k in (True, 1.0, 2.5, 0, -1):
            with pytest.raises(ValueError):
                cross_validate(DecomposableScroll(degrees), k=k)
    for degrees, k in (((5,), 3), ((1, 3), None)):
        for seed in (1.5, True):
            with pytest.raises(ValueError):
                cross_validate(DecomposableScroll(degrees), k=k, seed=seed)


def test_cross_validate_deterministic():
    a = cross_validate(DecomposableScroll((1, 3)), samples=220, seed=99)
    b = cross_validate(DecomposableScroll((1, 3)), samples=220, seed=99)
    assert a.to_dict() == b.to_dict()
