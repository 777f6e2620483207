import itertools
import random
import sys
from fractions import Fraction
from math import perm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scrolljets.scrollmodel import (
    BASE_INF,
    BASE_ZERO,
    DecomposableScroll,
    JetEntry,
    ScrollPoint,
    _echelon,
    _jet_text,
    _rational,
    _representative_rank,
    _text,
    bareiss,
    evaluate_jet_template,
    exact_rank,
    fiber_coordinate,
    full_support_rank,
    jet_columns,
    jet_matrix,
    jet_order,
    jet_template,
    other_summands,
    point_rank,
)
from scrolljets.scanner import rank_scan


def pt(u, v=(), fiber_chart=1, base_chart=BASE_ZERO):
    return ScrollPoint(base_chart, Fraction(u), fiber_chart, tuple(Fraction(x) for x in v))


def random_point(rng, scroll):
    base = rng.choice((BASE_ZERO, BASE_INF))
    iota = rng.randint(1, scroll.n)
    u = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
    v = tuple(
        Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(scroll.n - 1)
    )
    return ScrollPoint(base, u, iota, v)


# ---------------------------------------------------------------------------
# scroll construction
# ---------------------------------------------------------------------------


def test_scroll_examples():
    X = DecomposableScroll((2, 2))
    assert (X.n, X.d, X.N) == (2, 4, 5)
    X = DecomposableScroll((1, 2))
    assert (X.n, X.d, X.N) == (2, 3, 4)
    X = DecomposableScroll((1, 3))
    assert (X.n, X.d, X.N) == (2, 4, 5)


def test_scroll_rejects_bad_degrees():
    with pytest.raises(ValueError):
        DecomposableScroll(())
    with pytest.raises(ValueError):
        DecomposableScroll((2, 0))
    with pytest.raises(ValueError):
        DecomposableScroll((-1,))
    with pytest.raises(ValueError):
        DecomposableScroll((1.7, 2))
    with pytest.raises(ValueError):
        DecomposableScroll((True, 2))


def test_scroll_from_text():
    assert DecomposableScroll.from_text("1,2").degrees == (1, 2)
    with pytest.raises(ValueError):
        DecomposableScroll.from_text("1,x")


def test_section_basis_size_and_reversal():
    X = DecomposableScroll((1, 2))
    basis0 = X.section_basis(BASE_ZERO)
    assert len(basis0) == X.N + 1
    assert [(s.summand, s.exponent) for s in basis0] == [
        (1, 0),
        (1, 1),
        (2, 0),
        (2, 1),
        (2, 2),
    ]
    basis_inf = X.section_basis(BASE_INF)
    assert [(s.summand, s.exponent) for s in basis_inf] == [
        (1, 1),
        (1, 0),
        (2, 2),
        (2, 1),
        (2, 0),
    ]


# ---------------------------------------------------------------------------
# jet matrix
# ---------------------------------------------------------------------------


def test_jet_columns_shape_and_order():
    cols = jet_columns(2, 2, 1)
    assert cols == (("u", 0), ("u", 1), ("uv", 0, 2), ("u", 2), ("uv", 1, 2))
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            assert len(jet_columns(n, k, 1)) == k * n + 1


def test_jet_matrix_explicit_five_by_five():
    X = DecomposableScroll((1, 2))
    u, v = Fraction(3, 2), Fraction(-4, 3)
    m = jet_matrix(X, 2, pt(u, (v,)))
    expected = [
        [1, 0, 0, 0, 0],
        [u, 1, 0, 0, 0],
        [v, 0, 1, 0, 0],
        [v * u, v, u, 0, 1],
        [v * u**2, 2 * u * v, u**2, 2 * v, 2 * u],
    ]
    assert [list(row) for row in m] == expected


def test_jet_matrix_balanced_shape():
    for n, k in ((2, 2), (3, 2), (2, 3)):
        X = DecomposableScroll((k,) * n)
        p = pt(1, (1,) * (n - 1))
        m = jet_matrix(X, k, p)
        assert len(m) == X.N + 1 == k * n + n
        assert {len(row) for row in m} == {k * n + 1}


def test_jet_matrix_curve_is_derivative_vandermonde():
    X = DecomposableScroll((4,))
    u = Fraction(2)
    m = jet_matrix(X, 3, pt(u))
    assert len(m) == 5 and {len(row) for row in m} == {4}
    from math import perm

    for row, e in zip(m, range(5)):
        for col, h in zip(row, range(4)):
            assert col == (perm(e, h) * u ** (e - h) if h <= e else 0)


def test_jet_matrix_rejects_bad_input():
    X = DecomposableScroll((1, 2))
    with pytest.raises(ValueError):
        jet_matrix(X, 0, pt(1, (1,)))
    jet_matrix(X, 1, pt(1, (1,)))
    with pytest.raises(ValueError):  # not served the cached k = 1 template
        jet_matrix(X, True, pt(1, (1,)))
    with pytest.raises(ValueError):
        jet_matrix(X, 2, pt(1, (1,), fiber_chart=3))
    with pytest.raises(ValueError):
        jet_matrix(X, 2, pt(1, ()))
    # points are exact: no binary expansion of floats, no bool as a number
    for args in (
        (BASE_ZERO, 0.1),
        (BASE_ZERO, True),
        (BASE_ZERO, Fraction(1), True),
        (BASE_ZERO, Fraction(1), 1.0),
        (BASE_ZERO, Fraction(1), 1, (0.5,)),
    ):
        with pytest.raises(ValueError):
            ScrollPoint(*args)
    assert ScrollPoint(BASE_ZERO, 1, 2, (Fraction(1, 2),)).u == Fraction(1)
    # the base chart is "0" or "inf", in a point and in a section basis alike
    for chart in ("1", "infinity", 0, None):
        with pytest.raises(ValueError, match="base chart must be one of"):
            ScrollPoint(chart, 1)
        with pytest.raises(ValueError, match="base chart must be one of"):
            X.section_basis(chart)


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------


def test_exact_rank_basics():
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == 2
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([]) == 0


def test_exact_rank_matches_float_free_reference():
    # compare against sympy's rank on random small rational matrices
    import sympy as sp

    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        entries = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        reference = sp.Matrix(
            [[sp.Rational(x.numerator, x.denominator) for x in row] for row in entries]
        ).rank()
        assert exact_rank(entries) == reference
    # the determinant, sign included, on square integer matrices
    for _ in range(60):
        size = rng.randint(1, 5)
        entries = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        rank, det = bareiss([list(row) for row in entries])
        assert rank == sp.Matrix(entries).rank()
        assert det == sp.Matrix(entries).det()


def test_exact_rank_rejects_inexact_entries():
    # a float would be binary-expanded and a bool read as 1
    # and ragged rows would raise IndexError or drop entries
    for rows in (
        [[0.1, 0.2], [1, 2]],
        [[True, 2], [1, 2]],
        [[1, 2], [Fraction(1), 2.0]],
        [[1, 2], [3]],
        [[1], [3, 4]],
    ):
        with pytest.raises(ValueError):
            exact_rank(rows)
    assert exact_rank([[Fraction(1, 10), Fraction(1, 5)], [1, 2]]) == 1


# Every summand or fiber-chart index is an exact int in 1..n: a bool, a
# float, a Fraction or an index out of range is a ValueError, never a
# TypeError or a silent read of True as summand 1.
INDEX_SCROLL = DecomposableScroll((1, 2, 3))
INDEX_POINT = pt(1, (2, 3))
INDEX_SLOTS = [
    lambda v: INDEX_SCROLL.degree_of(v),
    lambda v: jet_template(INDEX_SCROLL, 2, BASE_ZERO, v),
    lambda v: fiber_coordinate(INDEX_SCROLL, INDEX_POINT, v),
    lambda v: jet_columns(3, 2, v),
]
bad_indices = st.one_of(
    st.booleans(),
    st.floats(),
    st.fractions(max_denominator=9),
    st.sampled_from([0, -1, 4]),
)


@settings(max_examples=200)
@given(st.sampled_from(range(len(INDEX_SLOTS))), bad_indices)
def test_index_slots_reject_inexact_or_outside_values(slot, value):
    with pytest.raises(ValueError):
        INDEX_SLOTS[slot](value)


def test_jet_order_is_a_positive_integer():
    assert jet_order(3) == 3
    for k in (0, -1, True, 1.0, 2.5, Fraction(1, 2)):
        with pytest.raises(ValueError):
            jet_order(k)


def sympy_rank(entries) -> int:
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    rows = [[QQ(x.numerator, x.denominator) for x in row] for row in entries]
    return DomainMatrix(rows, (len(rows), len(rows[0])), QQ).rank()


coordinates = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-6, max_value=6, max_denominator=5)
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
    coordinates,
    st.lists(coordinates, min_size=3, max_size=3),
)
@example([1, 3], Fraction(3, 2), [Fraction(0)] * 3)
@example([2, 3, 4], Fraction(0), [Fraction(5, 3), Fraction(-2, 5), Fraction(0)])
@example([1, 1, 2, 4], Fraction(-4, 5), [Fraction(1, 2), Fraction(0), Fraction(3, 4)])
@example([2, 3, 3], Fraction(5), [Fraction(0), Fraction(-3, 4), Fraction(0)])
def test_point_rank_is_the_fraction_rank(degrees, u, v):
    # u -> u + c and v_j -> t_j v_j preserve the linear system, so the orbit
    # representative's integer rows (u = 0, v_j in {0, 1}) have the rank of
    # the Fraction jet matrix, in every chart, at every order, on every stratum
    X = DecomposableScroll(tuple(degrees))
    v = tuple(v[: X.n - 1])
    for k in range(1, X.N // X.n + 1):
        for base in (BASE_ZERO, BASE_INF):
            for iota in range(1, X.n + 1):
                p = ScrollPoint(base, u, iota, v)
                entries = jet_matrix(X, k, p)
                rank = exact_rank(entries)
                assert point_rank(X, k, p) == rank == sympy_rank(entries)


def test_jet_rank_balanced_everywhere_full():
    X = DecomposableScroll((2, 2))
    rng = random.Random(3)
    for _ in range(25):
        p = random_point(rng, X)
        assert exact_rank(jet_matrix(X, 2, p)) == 5


def test_jet_rank_unbalanced_directrix_drop():
    X = DecomposableScroll((1, 3))
    assert exact_rank(jet_matrix(X, 2, pt(2, (0,)))) == 4
    assert exact_rank(jet_matrix(X, 2, pt(2, (5,)))) == 5
    assert exact_rank(jet_matrix(X, 2, pt(0, (0,), base_chart=BASE_INF))) == 4


# ---------------------------------------------------------------------------
# osculating dimension (jet rank - 1) and inflection (jet rank below kn+1)
# ---------------------------------------------------------------------------


def test_osculating_dim_examples():
    assert point_rank(DecomposableScroll((2, 2)), 2, pt(3, (2,))) == 4 + 1
    assert point_rank(DecomposableScroll((1, 3)), 2, pt(1, (0,))) == 3 + 1
    X = DecomposableScroll((3,))
    for u in (0, 1, -2, Fraction(1, 3)):
        assert point_rank(X, 3, pt(u)) == 3 + 1


def test_osculating_dim_bound():
    rng = random.Random(5)
    for degrees in ((1, 2), (1, 3), (2, 2), (1, 1, 2), (2, 2, 2)):
        X = DecomposableScroll(degrees)
        k = X.N // X.n
        for _ in range(10):
            p = random_point(rng, X)
            assert point_rank(X, k, p) <= k * X.n + 1


def test_is_inflected_examples():
    balanced = DecomposableScroll((2, 2))
    rng = random.Random(9)
    for _ in range(10):
        assert not point_rank(balanced, 2, random_point(rng, balanced)) < 2 * 2 + 1
    X = DecomposableScroll((1, 2))
    assert point_rank(X, 2, pt(4, (0,))) < 2 * 2 + 1
    assert not point_rank(X, 2, pt(4, (Fraction(1, 2),))) < 2 * 2 + 1


def test_rank_bound_invariant():
    rng = random.Random(13)
    for degrees in ((2,), (4,), (1, 2), (2, 3), (1, 1, 2), (3, 3)):
        X = DecomposableScroll(degrees)
        for k in range(1, X.N // X.n + 1):
            for _ in range(5):
                p = random_point(rng, X)
                rank = exact_rank(jet_matrix(X, k, p))
                assert rank <= min(k * X.n + 1, X.N + 1)


def test_first_jets_have_immersion_rank():
    rng = random.Random(17)
    for degrees in ((1, 2), (1, 3), (2, 2, 2), (5,)):
        X = DecomposableScroll(degrees)
        for _ in range(10):
            p = random_point(rng, X)
            assert exact_rank(jet_matrix(X, 1, p)) == X.n + 1


def test_rank_monotonic_in_jet_order():
    rng = random.Random(19)
    for degrees in ((1, 3), (2, 3), (1, 1, 2)):
        X = DecomposableScroll(degrees)
        kmax = X.N // X.n
        for _ in range(8):
            p = random_point(rng, X)
            ranks = [exact_rank(jet_matrix(X, k, p)) for k in range(1, kmax + 1)]
            assert ranks == sorted(ranks)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


def test_rank_is_chart_independent():
    # one point over u != 0 with every homogeneous fiber coordinate w_j != 0
    # lies in all 2n charts: chart ("0", i) has u and v_j = w_j / w_i, chart
    # ("inf", i) has 1/u and v_j = (w_j / w_i) u^(a_i - a_j)
    rng = random.Random(23)
    for degrees in ((1, 2), (1, 3), (2, 3), (1, 1, 2)):
        X = DecomposableScroll(degrees)
        k = X.N // X.n
        for _ in range(8):
            u = Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 3))
            w = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 3))
                 for _ in degrees]
            ranks = set()
            for i, a_i in enumerate(degrees, start=1):
                others = other_summands(X.n, i)
                v_zero = tuple(w[j - 1] / w[i - 1] for j in others)
                v_inf = tuple(x * u ** (a_i - X.degree_of(j)) for j, x in zip(others, v_zero))
                for point in (pt(u, v_zero, i), pt(1 / u, v_inf, i, BASE_INF)):
                    ranks.add(exact_rank(jet_matrix(X, k, point)))
            assert len(ranks) == 1, (degrees, u, w, ranks)


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)
nonzero_coordinates = small_fractions.filter(bool)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_full_support_rank_is_the_rank_on_the_open_orbit(data):
    # GL_2 x (C*)^n acts on the scroll and preserves its sections, and the
    # points with every fiber coordinate nonzero form one orbit, which meets
    # all 2n charts: a random full-support point of each chart has the rank
    # of the one representative u = 0, v_j = 1 of chart ("0", 1)
    X = DecomposableScroll(tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))))
    k = data.draw(st.integers(1, X.N // X.n))
    generic = full_support_rank(X, k)
    for base in (BASE_ZERO, BASE_INF):
        for iota in range(1, X.n + 1):
            u = data.draw(st.fractions(min_value=-6, max_value=6, max_denominator=5))
            v = tuple(data.draw(st.lists(nonzero_coordinates, min_size=X.n - 1, max_size=X.n - 1)))
            p = ScrollPoint(base, u, iota, v)
            rank = exact_rank(jet_matrix(X, k, p))
            assert point_rank(X, k, p) == rank == generic, (base, iota)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_jet_template_is_diagonally_scaled_by_powers_of_u(data):
    # M(u, v) = diag(u^e_r) M(1, v) diag(u^-h_c), with e_r the section's
    # exponent and h_c the column's u-order: entry by entry in every chart,
    # and on the integer determinant of a square scroll as u^s det M(1, v)
    # with s = sum e_r - sum h_c, which is how chart determinants factor u out
    X = DecomposableScroll(tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))))
    k = data.draw(st.integers(1, X.N // X.n))
    u = data.draw(st.integers(-7, 7).filter(bool))
    v = data.draw(st.lists(st.integers(-7, 7), min_size=X.n - 1, max_size=X.n - 1))
    for base in (BASE_ZERO, BASE_INF):
        for iota in range(1, X.n + 1):
            values = dict(zip(other_summands(X.n, iota), v))
            for order in {k, X.N // X.n}:
                exponents = [section.exponent for section in X.section_basis(base)]
                orders = [column[1] for column in jet_columns(X.n, order, iota)]
                at_u = evaluate_jet_template(X, order, base, iota, u, values)
                at_one = evaluate_jet_template(X, order, base, iota, 1, values)
                for r, e in enumerate(exponents):
                    for c, h in enumerate(orders):
                        assert at_u[r][c] * u**h == u**e * at_one[r][c], (base, iota, r, c)
                if X.N == order * X.n:
                    s = sum(exponents) - sum(orders)
                    det_one = bareiss([list(row) for row in at_one])[1]
                    assert bareiss([list(row) for row in at_u])[1] == u**s * det_one
                    # GL_2 moves u = 0, so no power of u divides a nonzero determinant
                    assert s == 0 or det_one == 0


def dense_jet_matrix(scroll, k, base, iota, u, values):
    """The chart's jet matrix by the falling-factorial rule, every entry written out.

    Section v_j u^e, column of order h: perm(e, h) u^(e-h), times v_j on a
    pure column (v_j = 1 on the chart summand); a mixed column d/dv_i keeps
    only the sections of summand i.
    """
    matrix = []
    for section in scroll.section_basis(base):
        e, j = section.exponent, section.summand
        row = []
        for column in jet_columns(scroll.n, k, iota):
            h = column[1]
            if h > e or (column[0] == "uv" and column[2] != j):
                row.append(0)
            else:
                fiber = values.get(j, 1) if column[0] == "u" else 1
                row.append(perm(e, h) * u ** (e - h) * fiber)
        matrix.append(row)
    return matrix


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_template_evaluates_to_the_dense_jet_matrix(data):
    # the template stores only the nonzero partials and the evaluator fills
    # only those: entry by entry it is the dense falling-factorial matrix,
    # at ints, at Fractions (in u's own number type, zeros included) and at
    # sympy symbols, in both base charts and every fiber chart
    import sympy as sp

    X = DecomposableScroll(tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))))
    k = data.draw(st.integers(1, X.N // X.n))
    kind = data.draw(st.sampled_from(("int", "fraction", "symbol")))
    if kind == "symbol":
        u, v = sp.Symbol("u"), [sp.Symbol(f"v{slot}") for slot in range(X.n - 1)]
    else:
        number = st.integers(-7, 7) if kind == "int" else small_fractions
        u = data.draw(number)
        v = data.draw(st.lists(number, min_size=X.n - 1, max_size=X.n - 1))
    for base in (BASE_ZERO, BASE_INF):
        for iota in range(1, X.n + 1):
            values = dict(zip(other_summands(X.n, iota), v))
            matrix = evaluate_jet_template(X, k, base, iota, u, values)
            expected = dense_jet_matrix(X, k, base, iota, u, values)
            assert len(matrix) == len(expected) == X.N + 1
            for r, (row, dense) in enumerate(zip(matrix, expected)):
                assert len(row) == len(dense) == k * X.n + 1
                for c, (entry, reference) in enumerate(zip(row, dense)):
                    assert entry == reference, (base, iota, r, c)
                    if kind != "symbol":
                        assert type(entry) is type(u), (base, iota, r, c)
            # a stored entry is a partial that does not vanish identically
            generic = dense_jet_matrix(X, k, base, iota, 2, dict.fromkeys(values, 3))
            stored = jet_template(X, k, base, iota)
            assert stored.ncols == k * X.n + 1
            assert sum(map(len, stored.rows)) == sum(map(bool, itertools.chain(*generic)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_jet_template_is_diagonally_scaled_by_the_fiber_coordinates(data):
    # M(u, v) = D_rows(v) M(u, 1) D_cols(v)^-1: a row of summand j other than
    # the chart summand carries v_j, and so do the k mixed columns d/dv_j, the
    # only columns where those rows carry no v_j; this is how a square chart
    # determinant becomes u^s prod v_j^e_j det M(1, 1)
    X = DecomposableScroll(tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))))
    k = data.draw(st.integers(1, X.N // X.n + 1))
    base = data.draw(st.sampled_from((BASE_ZERO, BASE_INF)))
    iota = data.draw(st.integers(1, X.n))
    u = data.draw(small_fractions)
    v = dict(zip(other_summands(X.n, iota), data.draw(
        st.lists(nonzero_coordinates, min_size=X.n - 1, max_size=X.n - 1))))
    rows = [v.get(section.summand, 1) for section in X.section_basis(base)]
    columns = [v[column[2]] if column[0] == "uv" else 1 for column in jet_columns(X.n, k, iota)]
    at_v = evaluate_jet_template(X, k, base, iota, u, v)
    at_one = evaluate_jet_template(X, k, base, iota, u, dict.fromkeys(v, 1))
    for r, row_scale in enumerate(rows):
        for c, column_scale in enumerate(columns):
            assert at_v[r][c] == row_scale * at_one[r][c] / column_scale, (r, c)


def column_filter_template(scroll, k, base, iota):
    """A chart's template by testing every jet column against every section, densely."""
    columns = jet_columns(scroll.n, k, iota)
    rows = []
    for section in scroll.section_basis(base):
        e, j = section.exponent, section.summand
        fiber = None if j == iota else j
        rows.append(tuple(
            (c, perm(e, column[1]), e - column[1], fiber if column[0] == "u" else None)
            for c, column in enumerate(columns)
            if column[1] <= e and (column[0] == "u" or column[2] == j)
        ))
    return len(columns), tuple(rows)


def test_jet_template_is_the_column_filter_of_every_section():
    # the template emits each section's at most 2(k+1) partials directly, in
    # column order; they are exactly the columns a dense filter keeps
    templates = 0
    for n in range(1, 5):
        for degrees in itertools.combinations_with_replacement(range(1, 6), n):
            X = DecomposableScroll(degrees)
            for k in range(1, 6):
                for base in (BASE_ZERO, BASE_INF):
                    for iota in range(1, n + 1):
                        template = jet_template(X, k, base, iota)
                        assert template == column_filter_template(X, k, base, iota)
                        entries = itertools.chain(*template.rows)
                        assert all(type(entry) is JetEntry for entry in entries)
                        templates += 1
    assert templates == 4200


@st.composite
def sparse_matrices(draw):
    """Small sparse integer matrices whose later rows include combinations of earlier ones."""
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-5, 5))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        (a, i), (b, j) = (draw(st.tuples(st.integers(-3, 3), st.sampled_from(range(len(rows)))))
                          for _ in range(2))
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_echelon_ranks_sparse_matrices_as_bareiss_does(rows):
    # the stratum ranks' elimination against the dense one it replaced: the
    # same rank, each pivot row led by its key, in the row space, and the
    # pivots below column m are the rank of the first m columns
    pivots = _echelon({c: x for c, x in enumerate(row) if x} for row in rows)
    ncols = len(rows[0])
    assert len(pivots) == bareiss([list(row) for row in rows])[0]
    dense = [[pivot.get(c, 0) for c in range(ncols)] for pivot in pivots.values()]
    assert bareiss([list(row) for row in rows] + dense)[0] == len(pivots)
    for lead, pivot in pivots.items():
        assert lead == min(pivot) and all(pivot.values())
    for m in range(ncols + 1):
        assert sum(lead < m for lead in pivots) == bareiss([row[:m] for row in rows])[0]


def test_stratum_ranks_are_the_dense_bareiss_ranks():
    # every stratum representative of the small types, by the sparse
    # elimination of its u^0 entries and by dense Bareiss of the evaluated template
    strata = 0
    for n in range(1, 5):
        for degrees in itertools.combinations_with_replacement(range(1, 6), n):
            X = DecomposableScroll(degrees)
            for k in range(1, 6):
                for size in range(1, n + 1):
                    for support in itertools.combinations(range(1, n + 1), size):
                        v = {j: int(j in support) for j in other_summands(n, support[0])}
                        dense = evaluate_jet_template(X, k, BASE_ZERO, support[0], 0, v)
                        assert _representative_rank(X, k, support) == bareiss(dense)[0]
                        strata += 1
    assert strata == 6725


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=3),
    coordinates,
    st.lists(coordinates, min_size=2, max_size=2),
)
@example([2, 3, 4], Fraction(0), [Fraction(-5, 3), Fraction(0)])
@example([1, 4], Fraction(0), [Fraction(0)])
@example([3, 1, 2], Fraction(-7, 4), [Fraction(0), Fraction(2, 5)])
@example([1, 3, 3], Fraction(-5, 2), [Fraction(4, 3), Fraction(-9, 2)])
@example([2, 5], Fraction(-3), [Fraction(2), Fraction(0)])
@example([1, 2, 4], Fraction(2), [Fraction(-1), Fraction(3)])
def test_jet_matrix_is_the_fraction_evaluation_of_the_template(degrees, u, v):
    # jet_matrix is the generic evaluator at the point's Fractions, with each
    # v_j on its own summand, and a certificate writes each nonzero entry a/b
    # from at most one gcd and every zero (u = 0, v_j = 0) as "0"; entry by
    # entry the text is that Fraction arithmetic, in lowest terms, in both base charts
    # and every fiber chart (the fourth example cancels v's denominator 3
    # against the coefficients 3 and 6, and its numerator 4 against u's 2^e;
    # the last two have integral u and v, whose entries are written with no gcd)
    X = DecomposableScroll(tuple(degrees))
    v = tuple(v[: X.n - 1])
    for k in range(1, X.N // X.n + 1):
        for base in (BASE_ZERO, BASE_INF):
            for iota in range(1, X.n + 1):
                point = ScrollPoint(base, u, iota, v)
                entries = jet_matrix(X, k, point)
                values = dict(zip(other_summands(X.n, iota), v))
                expected = evaluate_jet_template(X, k, base, iota, u, values)
                assert len(entries) == len(expected) == X.N + 1
                for row, reference in zip(entries, expected):
                    assert all(type(x) is Fraction for x in row), (k, base, iota)
                    assert [(x.numerator, x.denominator) for x in row] == [
                        (x.numerator, x.denominator) for x in reference
                    ], (k, base, iota)
                assert [list(row) for row in _jet_text(X, k, point)] == [
                    [str(x) for x in row] for row in expected
                ], (k, base, iota)


def stratum_rank(degrees, support, k):
    """rho(T, k) = sum_j min(k, a_j + 1) + [max_{j in T} a_j >= k], in closed form."""
    return sum(min(k, a + 1) for a in degrees) + (max(degrees[j - 1] for j in support) >= k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_point_rank_is_constant_on_each_support_stratum(data):
    # the support T of a point is the set of summands whose fiber coordinate
    # is nonzero; GL_2 x (C*)^n acts transitively on the points of one
    # support, so the rank there is that of u = 0 in fiber chart min T with
    # v_j = 1 on T, and it has the closed form rho(T, k)
    X = DecomposableScroll(tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))))
    k = data.draw(st.integers(1, X.N // X.n))
    summands = range(1, X.n + 1)
    for size in summands:
        for support in itertools.combinations(summands, size):
            base = data.draw(st.sampled_from((BASE_ZERO, BASE_INF)))
            iota = data.draw(st.sampled_from(support))
            u = data.draw(st.fractions(min_value=-6, max_value=6, max_denominator=5))
            v = tuple(
                data.draw(nonzero_coordinates) if j in support else Fraction(0)
                for j in summands
                if j != iota
            )
            ones = tuple(Fraction(j in support) for j in summands if j != support[0])
            representative = ScrollPoint(BASE_ZERO, Fraction(0), support[0], ones)
            rank = point_rank(X, k, representative)
            point = ScrollPoint(base, u, iota, v)
            # the Fraction rank at the sampled point itself, which does not
            # go through the representative that point_rank ranks
            fraction_rank = exact_rank(jet_matrix(X, k, point))
            assert fraction_rank == rank, (support, base, iota, u, v)
            assert point_rank(X, k, point) == rank, (support, base, iota, u, v)
            assert rank == stratum_rank(X.degrees, support, k), (support, k)


def test_scan_strata_are_the_closed_form_on_every_small_type():
    # a census of every nondecreasing type with n <= 3 and a_j <= 6, at
    # every order k <= N // n (313 cases): a scan's orbit ranks, one
    # elimination per degree, read off each support T by its largest degree,
    # must be the closed form rho(T, k)
    cases = 0
    for n in (1, 2, 3):
        for degrees in itertools.combinations_with_replacement(range(1, 7), n):
            X = DecomposableScroll(degrees)
            summands = range(1, n + 1)
            supports = [t for size in summands for t in itertools.combinations(summands, size)]
            for k in range(1, X.N // n + 1):
                expected = {t: stratum_rank(degrees, t, k) for t in supports}
                ranks = rank_scan(X, k, samples=1).orbit_ranks
                assert set(ranks) == set(degrees), (degrees, k)
                table = {t: ranks[max(degrees[j - 1] for j in t)] for t in supports}
                assert table == expected, (degrees, k)
                cases += 1
    assert cases == 313


def test_no_stratum_has_corank_two_where_the_generic_rank_is_full():
    # the oracle side of the vanishing Porteous classes of corank r >= 2: on
    # every nondecreasing type with n <= 4 and a_j <= 6, at every order
    # k <= N // n of full generic rank kn + 1, every orbit, and so every
    # support stratum, has rank at least kn, so no point has corank 2 or more
    pairs = orbits = 0
    for n in (1, 2, 3, 4):
        for degrees in itertools.combinations_with_replacement(range(1, 7), n):
            X = DecomposableScroll(degrees)
            for k in range(1, X.N // n + 1):
                if full_support_rank(X, k) < k * n + 1:
                    continue
                ranks = rank_scan(X, k, samples=1).orbit_ranks
                assert set(ranks) == set(degrees), (degrees, k, ranks)
                assert min(ranks.values()) >= k * n, (degrees, k, ranks)
                pairs += 1
                orbits += len(ranks)
    assert (pairs, orbits) == (640, 1488)


# ---------------------------------------------------------------------------
# exact number text
# ---------------------------------------------------------------------------


def test_number_text_round_trips_past_the_int_to_text_limit():
    # str(int) and int(text) stop at 4,300 digits by default; the codec
    # writes and reads exact numbers of any size, and leaves the limit as it was
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    big = 10**5000 + 1
    top, bottom = 10**4999 + 7, 3 * 10**4999 + 1  # coprime parts of 5,000 digits
    for value in (big, -big, Fraction(top, bottom), Fraction(-top, bottom), 0, Fraction(-3, 7)):
        assert _rational(_text(value)) == value
    digits = "1" + "0" * 4999 + "1"  # big
    assert _text(-big) == f"-{digits}"
    assert _text(Fraction(top, bottom)) == f"1{'0' * 4998}7/3{'0' * 4998}1"
    assert _rational(f"  -1{'0' * 4998}7/3{'0' * 4998}1 ") == Fraction(-top, bottom)
    assert _rational(f"{digits}.5e-1") == Fraction(2 * big + 1, 20)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_number_reader_accepts_exactly_what_fraction_accepts():
    # the same value, or the same error type and message, as Fraction(text)
    for text in ("nan", "inf", "-inf", "1/0", "0x10", "1.5", " \t-3/4\n", "1e3", "", "1/", "x"):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)) as info:
                _rational(text)
            assert str(info.value) == str(exc), text
        else:
            assert type(_rational(text)) is Fraction and _rational(text) == expected, text
    # past the limit: a malformed text is still refused, and an exponent too long
    # for any power to be built fails as Fraction(text) does
    with pytest.raises(ValueError, match="Invalid literal"):
        _rational("0x" + "1" * 5000)
    with pytest.raises(ValueError):
        _rational("1e" + "9" * 5000)
    with pytest.raises(ZeroDivisionError):
        _rational("1" * 5000 + "/0")


def test_long_certificate_entries_are_their_fractions_canonical_text():
    # past the int-to-text limit the reduced parts are written one by one, in
    # the digits that str(Fraction) would print: integral entries at an
    # integral u, and fractions at u = (10^30 + 1)/7
    X = DecomposableScroll((1, 160))
    big = 10**30 + 1
    for u, v, integral in ((big, -2, True), (Fraction(big, 7), Fraction(-2, 3), False)):
        point = ScrollPoint(BASE_ZERO, u, 1, (v,))
        rows = _jet_text(X, 2, point)
        long = [x for row in rows for x in row if len(x) > 4300]
        assert long and all(("/" not in x) == integral for x in long)
        assert rows == tuple(tuple(map(_text, row)) for row in jet_matrix(X, 2, point))


def test_a_certificate_past_the_int_to_text_limit_parses_back_to_the_jet_matrix():
    # at u = (10^30 + 1)/7 the powers u^e of (1, 160) reach 4,939 digits, past
    # the 4,300 that str prints by default, in both base charts
    X = DecomposableScroll((1, 160))
    for base, iota in ((BASE_ZERO, 1), (BASE_INF, 2)):
        point = ScrollPoint(base, Fraction(10**30 + 1, 7), iota, (Fraction(-2, 3),))
        rows = _jet_text(X, 2, point)
        assert max(len(x) for row in rows for x in row) > 4300
        assert tuple(tuple(map(_rational, row)) for row in rows) == jet_matrix(X, 2, point)
