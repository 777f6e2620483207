import dataclasses
import itertools
import json
import math
import numbers
import random
import re
import sys
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from scrolljets.chow import ChowClass
from scrolljets.formulas import ScrollParams, classify_uninflected, inflectional_class
import scrolljets.scanner as scanner_mod
from scrolljets.scanner import (
    HYPOTHESIS_VIOLATED,
    MATCH,
    MISMATCH,
    MAX_STRUCTURED_POINTS,
    GenericRankFailure,
    InflectedSample,
    ScanReport,
    WronskianReport,
    _chart_determinant,
    _draws,
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
    _chart_support,
    _representative_rank,
    evaluate_jet_template,
    exact_rank,
    fiber_coordinate,
    jet_columns,
    jet_matrix,
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


def test_reports_store_only_what_their_oracles_measured():
    # k, degree and degenerate are read off the basis rows and the Wronskian,
    # and a sample's corank off its certificate's kn + 1 columns, so neither
    # report can contradict itself
    names = lambda report: [field.name for field in dataclasses.fields(report)]
    assert names(WronskianReport) == [
        "coefficients", "wronskian", "wronskian_at_infinity", "finite_total",
        "rational_points", "infinity_weight",
    ]
    assert names(InflectedSample) == ["point", "rank", "rows"]
    assert names(ScanReport) == [
        "scroll", "k", "seed", "samples_requested", "points_examined", "inflected", "orbit_ranks",
    ]
    rows = ((1,), (0, 1), (1, 1), (0, 0, 0, 1))
    report = wronskian_weights(rows, 3)
    assert report == WronskianReport(rows)
    assert (report.k, report.degree, report.degenerate, report.total) == (3, 3, True, 0)
    report = wronskian_weights([[1], [0, 1], [0, 0, 1], [0, 0, 0, 0, 1]], 3)
    assert (report.k, report.degree, report.degenerate) == (3, 4, False)
    report = wronskian_weights(DecomposableScroll((5,)), 5)
    assert (report.k, report.degree, report.degenerate) == (5, 5, False)
    scan = rank_scan(DecomposableScroll((1, 1, 4)), samples=100, seed=7)
    assert scan.inflected
    for sample in scan.inflected:
        assert sample.corank == scan.full_rank - sample.rank == 1
        assert sample.to_dict()["corank"] == sample.corank


def _digits(n):
    """The decimal text of an int n >= 0, written 1,000 digits at a time, so
    below Python's limit on int-to-text conversion."""
    chunks = []
    while n:
        n, chunk = divmod(n, 10**1000)
        chunks.append(f"{chunk:01000d}")
    return "".join(reversed(chunks)).lstrip("0") or "0"


def test_wronskians_past_the_int_to_text_limit_print_exactly():
    # the Wronskian of the full monomial basis of degree d is the constant
    # prod h! over h <= d: 4,400 digits at d = 82, past the 4,300 that str
    # prints by default, and no interpreter setting may change to print it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for d, length in ((82, 4400), (90, 5451)):
        report = wronskian_weights(DecomposableScroll((d,)), d)
        expected = _digits(math.prod(math.factorial(h) for h in range(d + 1)))
        assert len(expected) == length
        assert report.wronskian == expected
        assert report.wronskian_at_infinity.lstrip("-") == expected
        assert (report.total, report.notes) == (0, ())
        assert json.loads(json.dumps(report.to_dict()))["wronskian"] == expected
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


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


def test_wronskian_read_back_of_large_signed_coefficients():
    # coefficients of both signs up to 10^6 make the coefficient bound, not
    # the degree bound, decide how far apart the packed digits sit; the
    # charts must still equal the independent sympy determinant
    rng = random.Random(20261018)
    bases = [
        ([[10**6, -(10**6), 1], [-999_999, 0, 0, 10**6], [0, 1, -(10**6), 0, 10**6]], 2),
        # the Wronskian -999983 * 10^6 is half the bound B: a radix of B / 2 misreads it
        ([[-999_983], [0, 10**6]], 1),
        # every polynomial divisible by u^2: the chart at infinity has no constant row
        ([[0, 0, 10**6, -1], [0, 0, 0, -(10**6), 0, 7], [0, 0, -3, 0, 0, 10**6]], 2),
        # linearly dependent: the third row is the first minus the second
        ([[10**6, -5, 0, 1], [-(10**6), 0, 10**6, 0], [2 * 10**6, -5, -(10**6), 1]], 2),
    ]
    for d, k in ((3, 1), (4, 2), (5, 3), (6, 2), (8, 1)):
        rows = [[rng.randint(-(10**6), 10**6) for _ in range(d + 1)] for _ in range(k + 1)]
        rows[0][d] = rng.choice((-(10**6), 10**6))
        bases.append((rows, k))
    for rows, k in bases:
        report = wronskian_weights(rows, k)
        degree = max(len(row) for row in rows) - 1
        full = [row + [0] * (degree + 1 - len(row)) for row in rows]
        charts = (report.wronskian, report.wronskian_at_infinity)
        assert charts == reference_wronskians(full, k), rows
        assert report.degenerate == (charts == ("0", "0"))
    assert wronskian_weights(*bases[3]).degenerate
    assert not wronskian_weights(*bases[2]).degenerate


def test_scroll_form_wronskian_is_the_identity_basis_wronskian():
    # the scroll form eliminates the jet matrix itself and the identity basis
    # the product of its rows with it; both are square, so u keeps its one
    # exponent and is set to 1: the determinants and the reports must agree
    for d in range(1, 9):
        curve = DecomposableScroll((d,))
        identity = [[int(i == m) for i in range(d + 1)] for m in range(d + 1)]
        for base in (BASE_ZERO, BASE_INF):
            assert _chart_determinant(curve, d, base, 1) == _chart_determinant(
                curve, d, base, 1, identity
            )
        scroll_form = wronskian_weights(curve, d).to_dict()
        basis_form = wronskian_weights(identity, d).to_dict()
        assert scroll_form == {**basis_form, "basis": scroll_form["basis"]}


# ---------------------------------------------------------------------------
# determinant divisor
# ---------------------------------------------------------------------------


def sympy_expression(poly):
    """An IntPoly as a sympy expression, built from its terms, not its printing."""
    symbols = [sp.Symbol(name) for name in poly.names]
    return sp.Add(*(c * sp.Mul(*(x**e for x, e in zip(symbols, m))) for m, c in poly.terms))


def test_determinant_divisor_case_i_surface():
    X = DecomposableScroll((1, 2))
    result = determinant_divisor(X, 2)
    assert result.factors == (("v2", 1),)
    assert result.divisor_class == ChowClass(2, [(1, 1, -2)])
    assert sp.expand(sympy_expression(result.delta) / sp.Symbol("v2")).is_number


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
        delta = sympy_expression(determinant_divisor(X, k).delta)
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
            for f in (vs.get(s.summand, 1) * u**s.exponent for s in scroll.section_basis(base))
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
        assert {key: str(chart) for key, chart in result.charts.items()} == reference, degrees
        assert sp.sstr(result.delta) == reference[(BASE_ZERO, 1)]
        summary = result.to_dict()
        assert summary["determinant"] == reference[(BASE_ZERO, 1)]
        assert summary["divisor_class"] == str(result.divisor_class)
    assert failures == 2


def test_row_block_chart_determinants_match_sympy():
    # a seeded integer row block A against sympy's determinant of A times
    # the differentiated jet matrix, on square scrolls (det A * det M, every
    # variable fixed) and projected ones, where the variables whose exponent
    # box is wider than one point are packed: (1, 1, 4) in chart ("0", 3)
    # packs u alone with both v_j fixed at exponent 0, and (1, 6) in chart
    # ("0", 2) fixes v1 at its top exponent -1, so its determinant is 0
    rng = random.Random(8)
    types = (((1, 2), 2), ((2, 3), 2), ((3, 4), 3), ((1, 1, 2), 2), ((1, 2, 2), 2))
    cases = [(degrees, k, chart) for degrees, k in types
             for chart in ((BASE_ZERO, 1), (BASE_INF, len(degrees)))]
    cases += [((1, 1, 4), 2, (BASE_ZERO, 3)), ((1, 6), 3, (BASE_ZERO, 2))]
    for degrees, k, (base, iota) in cases:
        X = DecomposableScroll(degrees)
        rows = [[rng.randint(-3, 3) for _ in range(X.N + 1)] for _ in range(k * X.n + 1)]
        vs = {j: sp.Symbol(f"v{j}") for j in range(1, X.n + 1) if j != iota}
        jets = differentiated_jet_matrix(X, k, base, iota, sp.Symbol("u"), vs)
        reference = sp.expand((sp.Matrix(rows) * jets).det(method="domain-ge"))
        ours = _chart_determinant(X, k, base, iota, rows)
        assert str(ours) == sp.sstr(reference), (degrees, base, iota)
        assert bool(ours) == (degrees != (1, 6)), (degrees, base, iota)
        if X.N == k * X.n:
            identity = [[int(r == c) for c in range(X.N + 1)] for r in range(X.N + 1)]
            square = _chart_determinant(X, k, base, iota)
            assert _chart_determinant(X, k, base, iota, identity) == square


def square_types(max_n, max_degree):
    """Every splitting type with n <= max_n and a_j <= max_degree whose jet matrix is square."""
    for n in range(1, max_n + 1):
        for degrees in itertools.combinations_with_replacement(range(1, max_degree + 1), n):
            if (sum(degrees) + n - 1) % n == 0:
                yield DecomposableScroll(degrees)


def test_chart_determinants_are_the_integer_determinants_at_a_point():
    # every chart of every square type with n <= 4 and a_j <= 6, vanishing
    # determinants included: the determinant, one elimination at u = v_j = 1
    # put at the one point of its exponent box, evaluated at u = 2 and
    # v = (3, 5, 7), against sympy's integer determinant of the jet matrix there
    charts = 0
    for X in square_types(4, 6):
        k, (u, *v) = X.N // X.n, (2, 3, 5, 7)[:X.n]
        for base in (BASE_ZERO, BASE_INF):
            for iota in range(1, X.n + 1):
                det = _chart_determinant(X, k, base, iota)
                value = sum(c * prod(x**e for x, e in zip((u, *v), m)) for m, c in det.terms)
                jets = jet_matrix(X, k, ScrollPoint(base, u, iota, tuple(v)))
                assert all(x.denominator == 1 for row in jets for x in row)
                integers = [[int(x) for x in row] for row in jets]
                reference = DomainMatrix(integers, (X.N + 1, X.N + 1), sp.ZZ).det()
                assert value == reference, (X, base, iota)
                charts += 1
    assert charts == 396


def fraction_determinant(rows):
    """The determinant by Gaussian elimination over Fractions."""
    rows, det = [[Fraction(x) for x in row] for row in rows], Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot], det = rows[pivot], rows[c], -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return det


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_scaled_chart_determinants_are_the_determinants_at_rational_points(data):
    # the square monomial evaluated at a random rational point of a random
    # chart is the Fraction determinant of the jet matrix there, so every
    # exponent, e_j included, and the coefficient are checked at once
    X = data.draw(st.sampled_from(list(square_types(4, 6))))
    k = X.N // X.n
    base = data.draw(st.sampled_from((BASE_ZERO, BASE_INF)))
    iota = data.draw(st.integers(1, X.n))
    coordinate = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    u = data.draw(coordinate)
    v = tuple(data.draw(st.lists(coordinate, min_size=X.n - 1, max_size=X.n - 1)))
    det = _chart_determinant(X, k, base, iota)
    value = sum(c * prod(x**e for x, e in zip((u, *v), m)) for m, c in det.terms)
    assert value == fraction_determinant(jet_matrix(X, k, ScrollPoint(base, u, iota, v)))


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
            numeric = jet_matrix(X, k, ScrollPoint(base, u, iota, v))
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
        # certificate is independently checkable, and its Fractions print as its text
        assert exact_rank(sample.matrix) == sample.rank
        assert [[str(x) for x in row] for row in sample.matrix] == [list(r) for r in sample.rows]
        assert exact_rank(jet_matrix(X, 2, sample.point)) == sample.rank
    assert any("w2 = 0" in note for note in report.notes)
    clean_points = report.points_examined - len(report.inflected)
    assert clean_points == report.clean_count > 0


def test_derived_notes_are_the_notes_the_reports_printed_before():
    # the scan's and the Wronskian's notes are worked out from what they
    # measured; each tuple here is the text the stored notes held
    assert rank_scan(DecomposableScroll((2, 2))).notes == (
        "no inflected sample found (sampling cannot certify emptiness)",
    )
    assert rank_scan(DecomposableScroll((1, 2, 2))).notes == (
        "14 inflected samples among 200 points; each carries its exact jet matrix as certificate",
        "every inflected sample lies on the section w2 = 0",
        "every inflected sample lies on the section w3 = 0",
    )
    dependent = wronskian_weights([[1], [0, 1], [1, 1], [0, 0, 0, 1]], 3)
    assert dependent.notes == ("basis is linearly dependent; weights are undefined",)
    assert wronskian_weights([[1], [0, 1], [0, 0, 0, 1]], 2).notes == ()
    # W = u**4 + 2*u**2 + 1 = (u**2 + 1)**2 has no rational root
    irrational = wronskian_weights([[1, 0, 1], [0, 1, 0, 1]], 1)
    assert irrational.wronskian == "u**4 + 2*u**2 + 1" and irrational.rational_points == ()
    assert irrational.notes == ("4 of the finite weights sit at irrational or complex points",)
    for report in (dependent, irrational):
        assert report.to_dict()["notes"] == list(report.notes)


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


def test_certificates_parse_back_to_the_jet_matrix_at_their_points():
    # a certificate is written by int-pair arithmetic (_jet_text) and
    # jet_matrix evaluates the template at the point's Fractions: on the
    # benchmark's certified shapes, over three seeds, every inflected sample's
    # parsed text is that matrix, its support lies in the locus, and its rank
    # is the orbit rank of its support's largest degree
    shapes = (((1, 3), None), ((2, 3), 3), ((1, 1, 4), None), ((3, 5), None), ((5, 7), None))
    checked = 0
    for degrees, k in shapes:
        X = DecomposableScroll(degrees)
        for seed in (1, 2, 3):
            report = rank_scan(X, k, samples=100, seed=seed)
            for sample in report.inflected:
                assert sample.matrix == jet_matrix(X, report.k, sample.point), (degrees, seed)
                on = tuple(j for j in range(1, X.n + 1) if fiber_coordinate(X, sample.point, j))
                assert set(on) <= set(report.locus), (degrees, seed)
                top = max(X.degrees[j - 1] for j in on)
                assert report.orbit_ranks[top] == sample.rank < report.full_rank, (degrees, seed)
                checked += 1
    assert checked == 420


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_rank_scan_ranks_every_point_as_its_fraction_jet_matrix(data):
    # a scan eliminates once per support stratum; its inflected samples
    # must still be exactly the points whose own Fraction jet matrix drops
    # rank, with that rank, in scan order
    X = DecomposableScroll(tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))))
    k = data.draw(st.integers(1, X.N // X.n))
    samples = data.draw(st.integers(1, 150))
    seed = data.draw(st.integers(0, 2**32))
    full_rank = k * X.n + 1
    expected = []
    for point in scan_points(X, samples, seed):
        rank = exact_rank(jet_matrix(X, k, point))
        if rank < full_rank:
            expected.append((point, rank))
    report = rank_scan(X, k, samples=samples, seed=seed)
    assert [(sample.point, sample.rank) for sample in report.inflected] == expected


def full_stratum_table(scroll, k):
    """The reference table: every one of the 2^n - 1 supports ranked by its own elimination."""
    summands = range(1, scroll.n + 1)
    return {support: _representative_rank(scroll, k, support)
            for size in summands for support in itertools.combinations(summands, size)}


def expanded_table(report):
    """A scan's orbit ranks spread over every support, each by its largest degree, in the
    order of :func:`full_stratum_table`."""
    degrees, summands = report.scroll.degrees, range(1, report.scroll.n + 1)
    return {support: report.orbit_ranks[max(degrees[j - 1] for j in support)]
            for size in summands for support in itertools.combinations(summands, size)}


def test_rank_scan_eliminates_once_per_summand_degree(monkeypatch):
    # a support is a nonempty set of summands, and there are 2^n - 1, but a
    # scan ranks one support per distinct summand degree, whatever its sample
    # count, and keeps one rank per degree; spread over the supports, those
    # are the full table; a non-square cross-validate reads its generic rank
    # off the same ranks, with no further elimination
    import scrolljets.scrollmodel as scrollmodel_mod

    calls = []
    echelon = scrollmodel_mod._echelon

    def counted(rows):
        calls.append(rows)
        return echelon(rows)

    X, Y = DecomposableScroll((2, 3)), DecomposableScroll((1, 1, 1, 1, 1, 1, 2))
    references = {X: full_stratum_table(X, 3), Y: full_stratum_table(Y, 2)}
    monkeypatch.setattr(scrollmodel_mod, "_echelon", counted)
    report = rank_scan(X, k=3, samples=200)
    assert report.points_examined == 200 and report.inflected
    assert len(calls) == 2 and len(report.orbit_ranks) == 2
    assert expanded_table(report) == references[X]
    calls.clear()
    report = rank_scan(Y, samples=1)
    assert report.points_examined == 10 * 7 * 2**6
    assert len(calls) == 2 and len(report.orbit_ranks) == 2
    assert expanded_table(report) == references[Y]
    calls.clear()
    assert cross_validate(DecomposableScroll((1, 1, 3)), samples=50).oracle == "rank-scan"
    assert len(calls) == 2
    calls.clear()
    # a balanced scroll has one degree, so its 127 strata are one orbit and take one elimination
    report = rank_scan(DecomposableScroll((3,) * 7), samples=4480)
    assert len(calls) == 1 and report.orbit_ranks == {3: report.full_rank}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=5))
@example([3, 1, 2])
@example([2, 1, 1, 3])
def test_stratum_table_ranks_each_support_by_its_largest_degree(degrees):
    # a map O(a_i) -> O(a_j) of degree a_j - a_i >= 0 switches w_i on or off
    # where w_j != 0, so every support of one largest degree b is one orbit:
    # the scan's one elimination per degree ranks every support as its own
    # elimination does, every {m} with a_m = b has the same rank, and the
    # locus is the union of the inflected supports, itself one of them
    X = DecomposableScroll(tuple(degrees))
    for k in range(1, X.N // X.n + 1):
        reference = full_stratum_table(X, k)
        with mock.patch.object(scanner_mod, "_draws", lambda *args: []):  # the ranks only
            scan = rank_scan(X, k, samples=1)
        assert set(scan.orbit_ranks) == set(X.degrees)
        by_degree = {}
        for m, a in enumerate(X.degrees, 1):
            by_degree.setdefault(a, set()).add(_representative_rank(X, k, (m,)))
        for support, rank in reference.items():
            top = max(X.degrees[j - 1] for j in support)
            assert scan.orbit_ranks[top] == rank and by_degree[top] == {rank}, support
        assert list(expanded_table(scan).items()) == list(reference.items())
        inflected = [support for support, rank in reference.items() if rank < scan.full_rank]
        assert set(scan.locus) == set().union(*inflected)
        assert all(set(support) <= set(scan.locus) for support in inflected)
        assert not inflected or reference[scan.locus] < scan.full_rank  # itself inflected


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=7),
    st.integers(0, 2**32),
)
def test_scan_points_meet_every_support_stratum(degrees, seed):
    # the structured block runs over every fiber chart and zero pattern, so
    # one sample already meets all 2^n - 1 supports; rank_scan's table holds
    # exactly those, so each point's rank is a lookup and no entry is wasted
    X = DecomposableScroll(tuple(degrees))
    summands = range(1, X.n + 1)
    supports = set()
    for point in scan_points(X, 1, seed):
        support = _chart_support(point.fiber_chart, point.v)
        assert support == tuple(j for j in summands if fiber_coordinate(X, point, j))
        supports.add(support)
    every = {t for size in summands for t in itertools.combinations(summands, size)}
    assert supports == every


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
    st.integers(0, 2**32),
    st.integers(1, 400),
    st.integers(1, 400),
)
def test_scan_points_are_prefix_stable_in_samples(degrees, seed, s1, s2):
    # points come in first-draw order without duplicates, the structured
    # block first: for one seed, asking for more samples only appends points
    s1, s2 = sorted((s1, s2))
    X = DecomposableScroll(tuple(degrees))
    a, b = scan_points(X, s1, seed), scan_points(X, s2, seed)
    assert b[:len(a)] == a
    assert len(set(b)) == len(b)
    assert len(a) == max(s1, len(scan_points(X, 1, seed)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_section_notes_name_exactly_the_coordinates_vanishing_on_every_inflected_sample(data):
    # the notes are read off the samples' supports; fiber_coordinate is the
    # independent route: a named w_j is 0 at every inflected sample, and
    # every summand not named is nonzero at some inflected sample
    X = DecomposableScroll(tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))))
    k = data.draw(st.integers(1, X.N // X.n))
    samples = data.draw(st.integers(1, 150))
    seed = data.draw(st.integers(0, 2**32))
    report = rank_scan(X, k, samples=samples, seed=seed)
    pattern = re.compile(r"every inflected sample lies on the section w(\d+) = 0")
    named = {int(m.group(1)) for m in map(pattern.fullmatch, report.notes) if m}
    if not report.inflected:
        assert named == set()
    for j in range(1, X.n + 1):
        values = [fiber_coordinate(X, sample.point, j) for sample in report.inflected]
        if j in named:
            assert not any(values), (j, report.notes)
        elif report.inflected:
            assert any(values), (j, report.notes)


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


def test_scan_points_draws_at_most_the_points_the_sampler_can_build():
    # u takes the 251 values a/b with |a| <= 24, b <= 8 and each v_j the 51
    # values with |a| <= 9, b <= 4, in 2 base charts and n fiber charts
    curve = DecomposableScroll((3,))
    for seed in (0, 1, 1729):
        points = scan_points(curve, 502, seed)
        assert len(points) == len(set(points)) == 502
    with pytest.raises(ValueError, match="could not sample 503 distinct points on"):
        scan_points(curve, 503, seed=0)


def _randint_rational(rng, nonzero=False, wide=False):
    """The code of a random rational (0 for zero)."""
    bound, den = scanner_mod._WIDE if wide else scanner_mod._NARROW
    while True:
        code = scanner_mod._RATIONALS[rng.randint(-bound, bound), rng.randint(1, den)]
        if code or not nonzero:
            return code


def _randint_zero_pattern(rng, n, pattern):
    """Fiber coordinate codes, zero where ``pattern`` has a bit, random nonzero elsewhere."""
    return tuple(
        0 if pattern & (1 << slot) else _randint_rational(rng, nonzero=True)
        for slot in range(n - 1)
    )


def randint_draws(scroll, samples, seed):
    """The sampler as it was written on Random.randint and Random.choice: the
    reference model of the stream that scanner._draws reads from getrandbits."""
    rng = random.Random(seed)
    n = scroll.n
    structured_u = [scanner_mod._RATIONALS[x, 1] for x in (0, 1, -1, 2, -2)]
    structured = 2 * n * len(structured_u) * 2 ** (n - 1)
    if structured > MAX_STRUCTURED_POINTS:
        raise ValueError(
            f"scroll {scroll} has {n} summands: its structured scan block of {structured} "
            f"points exceeds the limit of {MAX_STRUCTURED_POINTS}"
        )
    if samples > 2 * n * scanner_mod._U_VALUES * scanner_mod._V_VALUES ** (n - 1):
        raise ValueError(f"could not sample {samples} distinct points on {scroll}")
    points = {}
    for base_chart in (BASE_ZERO, BASE_INF):
        for fiber_chart in range(1, n + 1):
            for u in structured_u:
                for pattern in range(2 ** (n - 1)):
                    v = _randint_zero_pattern(rng, n, pattern)
                    points[base_chart, u, fiber_chart, v] = None

    attempts = 0
    while len(points) < samples:
        attempts += 1
        if attempts > 100 * samples:
            raise ValueError(f"could not sample {samples} distinct points on {scroll}")
        base_chart = rng.choice((BASE_ZERO, BASE_INF))
        fiber_chart = rng.randint(1, n)
        u = _randint_rational(rng, wide=True)
        if attempts % 2 == 0 and n > 1:
            v = _randint_zero_pattern(rng, n, rng.randint(1, 2 ** (n - 1) - 1))
        else:
            v = tuple(_randint_rational(rng) for _ in range(n - 1))
        points[base_chart, u, fiber_chart, v] = None
    return list(points)


def _outcome(sampler, *args):
    try:
        return sampler(*args)
    except ValueError as error:
        return str(error)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=5),
    st.integers(0, 2**40),
    st.one_of(st.integers(1, 600), st.just(502)),
)
def test_draws_are_the_stream_randint_would_draw(degrees, seed, samples):
    # _draws reads getrandbits by the rejection rule of randint and choice, so
    # its keys, their order and its errors are those of the randint sampler
    X = DecomposableScroll(tuple(degrees))
    assert _outcome(_draws, X, samples, seed) == _outcome(randint_draws, X, samples, seed)


def test_draws_match_randint_up_to_the_capacity_of_a_curve():
    # a curve's 502 points take thousands of random draws to collect; one more
    # sample than that raises at once, with the same message
    curve = DecomposableScroll((3,))
    for seed in (0, 1, 1729, 2**40):
        assert _draws(curve, 502, seed) == randint_draws(curve, 502, seed)
    message = "could not sample 503 distinct points on (3)"
    assert _outcome(randint_draws, curve, 503, 0) == message
    with pytest.raises(ValueError, match=re.escape(message)):
        scan_points(curve, 503, 0)


def test_negative_seeds_are_rejected():
    # Random seeds with abs(seed), so a negative seed would repeat its positive twin
    X = DecomposableScroll((1, 3))
    for call in (lambda: rank_scan(X, samples=20, seed=-7), lambda: scan_points(X, 20, -7),
                 lambda: _draws(X, 20, -1), lambda: cross_validate(X, seed=-7),
                 lambda: cross_validate(DecomposableScroll((5,)), k=3, seed=-7)):
        with pytest.raises(ValueError, match="the seed must be at least 0, got -"):
            call()
    assert rank_scan(X, samples=20, seed=0).seed == 0


def test_a_clean_stratum_table_reads_no_sample(monkeypatch):
    # when every orbit has full rank no sample can be inflected, so a scan
    # reads no sample's degrees; it draws none, and counts them
    def refuse(*args):
        raise AssertionError("a sample's degrees were read")

    def undrawn(*args):
        raise AssertionError("a sample was drawn")

    clean = [DecomposableScroll(degrees) for degrees in ((2, 2), (2, 2, 2))]
    drawn = {X: len(_draws(X, 150, 3)) for X in clean}
    monkeypatch.setattr(scanner_mod, "compress", refuse)
    monkeypatch.setattr(scanner_mod, "_draws", undrawn)
    for X in clean:
        report = rank_scan(X, samples=150, seed=3)
        assert min(report.orbit_ranks.values()) == report.full_rank
        assert report.inflected == ()
        assert report.points_examined == drawn[X] == report.clean_count
    # an inflected orbit makes the scan draw, and read every sample's degrees
    monkeypatch.setattr(scanner_mod, "_draws", _draws)
    X = DecomposableScroll((1, 2, 2))
    looked_up = []

    def counted(degrees, codes):
        looked_up.append(codes)
        return itertools.compress(degrees, codes)

    monkeypatch.setattr(scanner_mod, "compress", counted)
    report = rank_scan(X, samples=150, seed=3)
    assert len(looked_up) == report.points_examined == len(_draws(X, 150, 3))
    assert report.inflected
    for sample in report.inflected:
        support = _chart_support(sample.point.fiber_chart, sample.point.v)
        top = max(X.degrees[j - 1] for j in support)
        assert report.orbit_ranks[top] == sample.rank < report.full_rank


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 5),
    st.one_of(st.integers(1, 600), st.just(502)),
    st.integers(0, 2**64),
)
def test_a_clean_scan_counts_the_samples_it_would_draw(a, n, samples, seed):
    # a balanced scroll's table is clean, so its scan draws nothing, yet it
    # counts exactly the keys that _draws would return, or raises its error
    X = DecomposableScroll((a,) * n)
    counted = _outcome(lambda: rank_scan(X, samples=samples, seed=seed).points_examined)
    assert counted == _outcome(lambda: len(_draws(X, samples, seed)))


def test_oversized_scan_raises_before_any_rank(monkeypatch):
    # the structured-block cap and the sampler's capacity are checked when the
    # samples are counted, before any stratum is ranked or table built
    def refuse(*args):
        raise AssertionError("a stratum was ranked")

    monkeypatch.setattr(scanner_mod, "_representative_rank", refuse)
    wide = DecomposableScroll((1,) * 20)
    block = "has 20 summands: its structured scan block of 104857600 points exceeds the limit"
    for call in (lambda: rank_scan(wide, samples=1), lambda: cross_validate(wide, samples=1)):
        with pytest.raises(ValueError, match=block):
            call()
    X, samples = DecomposableScroll((2, 2)), 2 * 2 * 251 * 51 + 1
    for call in (lambda: rank_scan(X, samples=samples), lambda: cross_validate(X, samples=samples)):
        with pytest.raises(ValueError, match="could not sample 51205 distinct points on"):
            call()


def test_oversized_scan_raises_before_building_a_point(monkeypatch):
    def refuse(*args):
        raise AssertionError("a scan point was built")

    monkeypatch.setattr(ScrollPoint, "_make", refuse)
    with pytest.raises(ValueError, match="could not sample 51205 distinct points on"):
        scan_points(DecomposableScroll((2, 2)), 2 * 2 * 251 * 51 + 1, seed=0)


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


def test_cross_validate_verdict_census():
    # every non-square scroll with n <= 3 and a_j <= 6, at every ell: the
    # locus is the union of the inflected strata X_T, of dimension |T|, so a
    # whole scroll or a stratum X_T of dimension above n - ell violates the
    # hypothesis even where the generic rank is full.  By the closed form of
    # the strata ranks the scroll is wholly inflected iff some a_j < k - 1,
    # and otherwise its locus is X_S, S = {j : a_j = k - 1}
    census = {}
    for n in (2, 3):
        for degrees in itertools.combinations_with_replacement(range(1, 7), n):
            X = DecomposableScroll(degrees)
            k = X.N // X.n
            if X.N > k * n:
                census[degrees] = cross_validate(X, samples=1)
    assert len(census) == 50
    for degrees, report in census.items():
        n, k = len(degrees), report.k
        ell = sum(degrees) + n - k * n
        assert report.ell == ell
        section = [a for a in degrees if a == k - 1]
        violated = min(degrees) < k - 1 or len(section) > n - ell
        assert report.verdict == (HYPOTHESIS_VIOLATED if violated else MATCH), degrees
        # the paper's headline, from the exact orbit ranks: only the balanced
        # scroll is uninflected
        scan = rank_scan(report.scroll, k, samples=1)
        own = classify_uninflected(n, k, ell) == report.scroll
        assert all(rank == scan.full_rank for rank in scan.orbit_ranks.values()) == own, degrees
    assert [report.verdict for report in census.values()].count(MATCH) == 17
    # where ell = n the formula expects no locus, so any inflected stratum has the wrong dimension
    assert "support (1,) has dimension 1 > n - ell = 0" in census[(1, 3)].notes[-1]
    census = {d: r for d, r in census.items() if r.ell < len(d)}
    assert len(census) == 18
    wrong_dimension = {(1, 1, 3), (2, 2, 4), (3, 3, 5), (4, 4, 6)}
    matches = {(1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 5, 5), (5, 6, 6)}
    verdicts = {d: report.verdict for d, report in census.items()}
    assert verdicts == {d: MATCH if d in matches else HYPOTHESIS_VIOLATED for d in census}
    whole = {d for d, r in census.items() if any("whole scroll" in note for note in r.notes)}
    assert len(whole) == 9 and not whole & wrong_dimension
    for degrees in wrong_dimension:
        assert census[degrees].formula_degree != "0"
        assert "support (1, 2) has dimension 2 > n - ell = 1" in census[degrees].notes[-1]


def test_the_classified_scroll_is_uninflected_to_both_oracles():
    # the formula side's answer is a scroll the oracles take as it is: its
    # one orbit, every support, has full rank at order k, and cross-validate matches
    for n in range(1, 5):
        for k in range(1, 5):
            scroll = classify_uninflected(n, k, n)
            assert scroll == DecomposableScroll((k,) * n)
            scan = rank_scan(scroll, samples=1)
            assert scan.k == k and scan.orbit_ranks == {k: k * n + 1}, (n, k)
            assert scan.locus == (), (n, k)
            report = cross_validate(scroll)
            assert (report.verdict, report.ell) == (MATCH, n), (n, k)


def test_only_the_balanced_scroll_has_full_rank_on_every_orbit(monkeypatch):
    # the paper's headline on the rank side: among all types of degree nk
    # (ell = n) with n <= 4 and k <= 5, 181 of them, exactly (k, ..., k) has
    # jet rank kn + 1 on every orbit, so it alone is uninflected
    monkeypatch.setattr(scanner_mod, "_draws", lambda *args: [])  # the ranks only
    types = clean = 0
    for n in range(1, 5):
        for k in range(1, 6):
            for degrees in itertools.combinations_with_replacement(range(1, n * k + 1), n):
                if sum(degrees) != n * k:
                    continue
                scan = rank_scan(DecomposableScroll(degrees), k, samples=1)
                full = all(rank == k * n + 1 for rank in scan.orbit_ranks.values())
                assert full == (degrees == (k,) * n), (degrees, k, scan.orbit_ranks)
                types += 1
                clean += full
    assert (types, clean) == (181, 20)


def test_cross_validate_mismatch_on_the_locus_class(capsys, monkeypatch):
    # the locus of (1, 2, 2) is the section X_(1,), of class (L - 2F)^2; a
    # formula class that differs is a MISMATCH that names the locus class
    import scrolljets.scanner as scanner_mod
    from scrolljets.cli import main

    assert cross_validate(DecomposableScroll((1, 2, 2))).formula_class == "L^2 - 4*L*F"
    wrong = ChowClass(3, [(2, 1, -3)])  # L^2 - 3*L*F
    monkeypatch.setattr(scanner_mod, "inflectional_class", lambda params: wrong)
    report = cross_validate(DecomposableScroll((1, 2, 2)))
    assert report.verdict == MISMATCH
    assert report.notes[-1] == "the inflected stratum of support (1,) has class L^2 - 4*L*F"
    assert main(["cross-validate", "--scroll", "1,2,2"]) == 1
    assert "verdict: MISMATCH" in capsys.readouterr().out


def test_cross_validate_mismatch_on_an_empty_locus(monkeypatch):
    # no stratum of (2, 2) is inflected, so the locus is certified empty,
    # against any positive formula degree
    import scrolljets.scanner as scanner_mod

    monkeypatch.setattr(scanner_mod, "inflectional_degree", lambda params: 1)
    report = cross_validate(DecomposableScroll((2, 2)))
    assert report.verdict == MISMATCH
    assert report.formula_degree == "1"
    assert report.notes[-1] == "clean scan is consistent with an empty locus"


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


def test_cross_validate_prints_ten_certificates_and_counts_every_sample():
    # the summary renders only the certificates it keeps, yet counts them all
    X = DecomposableScroll((1, 1, 4))
    summary = cross_validate(X, samples=2000, seed=11).to_dict()["oracle_result"]
    scan = rank_scan(X, samples=2000, seed=11)
    assert len(scan.inflected) > 10
    assert summary["inflected"] == [sample.to_dict() for sample in scan.inflected[:10]]
    assert summary["inflected_count"] == len(scan.inflected)
    assert summary["clean_count"] == scan.clean_count == scan.points_examined - len(scan.inflected)
    # at the default samples and seed, the cut document keeps the whole scan's counts and notes
    X = DecomposableScroll((1, 2, 2))
    summary, full = cross_validate(X).oracle_summary, rank_scan(X).to_dict()
    assert summary["inflected"] == full["inflected"][:10] and len(full["inflected"]) == 14
    assert (summary["inflected_count"], summary["clean_count"]) == (14, 186)
    assert summary["notes"] == full["notes"] == list(rank_scan(X).notes)
    assert {key: value for key, value in summary.items() if key != "inflected"} == {
        key: value for key, value in full.items() if key != "inflected"}


def test_cross_validate_deterministic():
    a = cross_validate(DecomposableScroll((1, 3)), samples=220, seed=99)
    b = cross_validate(DecomposableScroll((1, 3)), samples=220, seed=99)
    assert a.to_dict() == b.to_dict()
