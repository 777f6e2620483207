import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scrolljets.scrollmodel import (
    BASE_INF,
    BASE_ZERO,
    DecomposableScroll,
    ScrollPoint,
    bareiss,
    exact_rank,
    fiber_coordinate,
    full_support_rank,
    is_inflected,
    jet_columns,
    jet_matrix,
    jet_order,
    jet_rank,
    osculating_dim,
    point_rank,
    to_fiber_chart,
    to_other_base_chart,
)


def pt(u, v=(), fiber_chart=1, base_chart=BASE_ZERO):
    return ScrollPoint(base_chart, Fraction(u), fiber_chart, tuple(Fraction(x) for x in v))


def random_point(rng, scroll, allow_zero=True):
    base = rng.choice((BASE_ZERO, BASE_INF))
    iota = rng.randint(1, scroll.n)
    u = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
    v = tuple(
        Fraction(rng.randint(-8, 8) if allow_zero else rng.randint(1, 8), rng.randint(1, 3))
        for _ in range(scroll.n - 1)
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
    basis0 = X.section_basis(BASE_ZERO, 1)
    assert len(basis0) == X.N + 1
    assert [(s.summand, s.exponent) for s in basis0] == [
        (1, 0),
        (1, 1),
        (2, 0),
        (2, 1),
        (2, 2),
    ]
    basis_inf = X.section_basis(BASE_INF, 1)
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
    assert [list(row) for row in m.entries] == expected


def test_jet_matrix_balanced_shape():
    for n, k in ((2, 2), (3, 2), (2, 3)):
        X = DecomposableScroll((k,) * n)
        p = pt(1, (1,) * (n - 1))
        m = jet_matrix(X, k, p)
        assert m.nrows == X.N + 1 == k * n + n
        assert m.ncols == k * n + 1


def test_jet_matrix_curve_is_derivative_vandermonde():
    X = DecomposableScroll((4,))
    u = Fraction(2)
    m = jet_matrix(X, 3, pt(u))
    assert m.nrows == 5 and m.ncols == 4
    from math import perm

    for row, e in zip(m.entries, range(5)):
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
    lambda v: INDEX_SCROLL.section_basis(BASE_ZERO, v),
    lambda v: fiber_coordinate(INDEX_SCROLL, INDEX_POINT, v),
    lambda v: to_fiber_chart(INDEX_SCROLL, INDEX_POINT, v),
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
def test_point_rank_is_the_fraction_rank(degrees, u, v):
    # the integer rows differ from the Fraction jet matrix by invertible row
    # and column scalings, in every chart, at every order and on every stratum
    X = DecomposableScroll(tuple(degrees))
    v = tuple(v[: X.n - 1])
    for k in range(1, X.N // X.n + 1):
        for base in (BASE_ZERO, BASE_INF):
            for iota in range(1, X.n + 1):
                p = ScrollPoint(base, u, iota, v)
                entries = jet_matrix(X, k, p).entries
                rank = exact_rank(entries)
                assert point_rank(X, k, p) == rank == sympy_rank(entries)
                assert osculating_dim(X, k, p) == rank - 1
                assert is_inflected(X, k, p) == (rank < k * X.n + 1)


def test_jet_rank_balanced_everywhere_full():
    X = DecomposableScroll((2, 2))
    rng = random.Random(3)
    for _ in range(25):
        p = random_point(rng, X)
        assert jet_rank(jet_matrix(X, 2, p)) == 5


def test_jet_rank_unbalanced_directrix_drop():
    X = DecomposableScroll((1, 3))
    assert jet_rank(jet_matrix(X, 2, pt(2, (0,)))) == 4
    assert jet_rank(jet_matrix(X, 2, pt(2, (5,)))) == 5
    assert jet_rank(jet_matrix(X, 2, pt(0, (0,), base_chart=BASE_INF))) == 4


# ---------------------------------------------------------------------------
# osculating dimension and inflection predicate
# ---------------------------------------------------------------------------


def test_osculating_dim_examples():
    assert osculating_dim(DecomposableScroll((2, 2)), 2, pt(3, (2,))) == 4
    assert osculating_dim(DecomposableScroll((1, 3)), 2, pt(1, (0,))) == 3
    X = DecomposableScroll((3,))
    for u in (0, 1, -2, Fraction(1, 3)):
        assert osculating_dim(X, 3, pt(u)) == 3


def test_osculating_dim_bound():
    rng = random.Random(5)
    for degrees in ((1, 2), (1, 3), (2, 2), (1, 1, 2), (2, 2, 2)):
        X = DecomposableScroll(degrees)
        k = X.N // X.n
        for _ in range(10):
            p = random_point(rng, X)
            assert osculating_dim(X, k, p) <= k * X.n


def test_is_inflected_examples():
    balanced = DecomposableScroll((2, 2))
    rng = random.Random(9)
    for _ in range(10):
        assert not is_inflected(balanced, 2, random_point(rng, balanced))
    X = DecomposableScroll((1, 2))
    assert is_inflected(X, 2, pt(4, (0,)))
    assert not is_inflected(X, 2, pt(4, (Fraction(1, 2),)))


def test_is_inflected_rejects_large_order():
    X = DecomposableScroll((1, 2))
    with pytest.raises(ValueError):
        is_inflected(X, 3, pt(1, (1,)))


def test_rank_bound_invariant():
    rng = random.Random(13)
    for degrees in ((2,), (4,), (1, 2), (2, 3), (1, 1, 2), (3, 3)):
        X = DecomposableScroll(degrees)
        for k in range(1, X.N // X.n + 1):
            for _ in range(5):
                p = random_point(rng, X)
                rank = jet_rank(jet_matrix(X, k, p))
                assert rank <= min(k * X.n + 1, X.N + 1)


def test_first_jets_have_immersion_rank():
    rng = random.Random(17)
    for degrees in ((1, 2), (1, 3), (2, 2, 2), (5,)):
        X = DecomposableScroll(degrees)
        for _ in range(10):
            p = random_point(rng, X)
            assert jet_rank(jet_matrix(X, 1, p)) == X.n + 1


def test_rank_monotonic_in_jet_order():
    rng = random.Random(19)
    for degrees in ((1, 3), (2, 3), (1, 1, 2)):
        X = DecomposableScroll(degrees)
        kmax = X.N // X.n
        for _ in range(8):
            p = random_point(rng, X)
            ranks = [jet_rank(jet_matrix(X, k, p)) for k in range(1, kmax + 1)]
            assert ranks == sorted(ranks)


# ---------------------------------------------------------------------------
# chart transitions
# ---------------------------------------------------------------------------


def test_base_chart_transition_roundtrip():
    X = DecomposableScroll((1, 3))
    p = pt(Fraction(3, 2), (Fraction(5),))
    q = to_other_base_chart(X, p)
    assert q.base_chart == BASE_INF and q.u == Fraction(2, 3)
    assert to_other_base_chart(X, q) == p
    with pytest.raises(ValueError):
        to_other_base_chart(X, pt(0, (1,)))


def test_fiber_chart_transition_roundtrip():
    X = DecomposableScroll((1, 1, 2))
    p = pt(2, (Fraction(3), Fraction(-5)))
    q = to_fiber_chart(X, p, 3)
    assert q.fiber_chart == 3
    assert fiber_coordinate(X, q, 1) == Fraction(-1, 5)
    assert to_fiber_chart(X, q, 1) == p
    with pytest.raises(ValueError):
        to_fiber_chart(X, pt(2, (0, 1)), 2)


def test_rank_is_chart_independent():
    rng = random.Random(23)
    for degrees in ((1, 2), (1, 3), (2, 3), (1, 1, 2)):
        X = DecomposableScroll(degrees)
        k = X.N // X.n
        for _ in range(8):
            p = random_point(rng, X, allow_zero=False)
            if p.u == 0:
                continue
            rank = jet_rank(jet_matrix(X, k, p))
            assert jet_rank(jet_matrix(X, k, to_other_base_chart(X, p))) == rank
            for iota in range(1, X.n + 1):
                q = to_fiber_chart(X, p, iota)
                assert jet_rank(jet_matrix(X, k, q)) == rank


nonzero_coordinates = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_full_support_rank_is_the_rank_on_the_open_orbit(data):
    # GL_2 x (C*)^n acts on the scroll and preserves its sections, and the
    # points with every fiber coordinate nonzero form one orbit: the rank
    # there is that of the representative u = 0, v_j = 1, in every chart
    X = DecomposableScroll(tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))))
    k = data.draw(st.integers(1, X.N // X.n))
    base = data.draw(st.sampled_from((BASE_ZERO, BASE_INF)))
    iota = data.draw(st.integers(1, X.n))
    u = data.draw(st.fractions(min_value=-6, max_value=6, max_denominator=5))
    v = tuple(data.draw(st.lists(nonzero_coordinates, min_size=X.n - 1, max_size=X.n - 1)))
    rank = point_rank(X, k, ScrollPoint(base, u, iota, v))
    assert rank == full_support_rank(X, k, base, iota) == full_support_rank(X, k, BASE_ZERO, 1)


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
            rank = point_rank(X, k, ScrollPoint(base, u, iota, v))
            assert rank == point_rank(X, k, representative), (support, base, iota, u, v)
            assert rank == stratum_rank(X.degrees, support, k), (support, k)
