"""The integer polynomials of the oracles against reference models: rational
roots against the linear factors of sympy's ``factor_list``, the heuristic gcd
against the primitive PRS, printing against ``PolyElement``, and monomial
factors against ``factor_list``."""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, ring

from scrolljets import intpoly
from scrolljets.intpoly import IntPoly, _balanced_digits, _divide, _gcd, _primitive, rational_roots
from scrolljets.scanner import (
    BASE_ZERO,
    _chart_determinant,
    _monomial_factors,
    _random_spanning_basis,
)
from scrolljets.scrollmodel import DecomposableScroll

NAMES = ("u", "v2", "v3", "v10")


def reference_roots(poly):
    """The rational roots of a sympy ring element, from its linear factors."""
    return tuple(sorted(
        (-Fraction(int(factor.coeff(1)), int(factor.LC)), mult)
        for factor, mult in poly.factor_list()[1]
        if factor.degree() == 1
    ))


def dense(poly):
    coeffs = [0] * (poly.degree() + 1)
    for (e,), c in poly.terms():
        coeffs[e] = int(c)
    return coeffs


nonzero = st.integers(-30, 30).filter(bool)
linear_powers = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(1, 12), st.integers(1, 12)), max_size=3
)
cofactors = st.lists(st.integers(-9, 9), max_size=6)


@settings(max_examples=150, deadline=None)
@given(nonzero, linear_powers, cofactors)
@example(1, [(0, 1, 12)], [])  # u^12: root 0 only
@example(-4, [(3, 2, 12), (-1, 1, 2)], [1, 0, 1])  # a 12-fold root, negative content
@example(-7, [], [])  # a constant has no root
@example(5, [], [3, 0, -2])  # an irreducible cofactor only
@example(-1, [(2, 3, 1), (4, 6, 1)], [])  # 2/3 twice, as (3u - 2)(6u - 4)
def test_rational_roots_match_the_linear_factors_of_factor_list(content, powers, cofactor):
    R, u = ring("u", ZZ)
    f = R(content) * (R.from_dict({(i,): c for i, c in enumerate(cofactor)}) or R(1))
    for a, b, mult in powers:
        f *= (b * u - a) ** mult
    roots = rational_roots(dense(f))
    assert roots == reference_roots(f)
    assert all(type(mult) is int for _, mult in roots)


def prs_gcd(f, g):
    """The primitive gcd of f and g (deg f >= deg g >= 0) by the primitive PRS: the reference
    for intpoly._gcd, exact but slow, as its pseudo-remainders' coefficients grow."""
    f, g = _primitive(f), _primitive(g)
    while g:
        for i in reversed(range(len(f) - len(g) + 1)):  # f becomes prem(f, g)
            top, f = f[i + len(g) - 1], [g[-1] * a for a in f]
            for j, b in enumerate(g):
                f[i + j] -= top * b
        f = f[:max((i + 1 for i, a in enumerate(f) if a), default=0)]
        f, g = g, _primitive(f) if f else []
    return f


def prs_pair(f, g):
    """The PRS gcd h of f and g with the cofactor primitive(f) / h, as intpoly._gcd returns them."""
    h = prs_gcd(f, g)
    return h, _divide(_primitive(f), h)


def prs_roots(coeffs):
    """rational_roots with the primitive PRS as its gcd."""
    with mock.patch.object(intpoly, "_gcd", prs_pair):
        return rational_roots(coeffs)


def derivative(f):
    return [i * a for i, a in enumerate(f)][1:]


def times(f, g):
    product = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            product[i + j] += a * b
    return product


def assert_gcds_agree(f, g):
    """_gcd of f and g (deg f >= deg g), and of f and f', is the PRS gcd with its cofactor of f,
    and f's roots are the PRS-based ones."""
    assert _gcd(f, g) == prs_pair(f, g), (f, g)
    assert _gcd(f, derivative(f)) == prs_pair(f, derivative(f)), f
    assert rational_roots(f) == prs_roots(f), f


# degree >= 1 for the shared factor, >= 0 for the cofactors; leading coefficients nonzero
shared = st.lists(st.integers(-12, 12), min_size=2, max_size=4).filter(lambda f: f[-1])
cofactor_lists = st.lists(st.integers(-12, 12), min_size=1, max_size=5).filter(lambda f: f[-1])


@settings(max_examples=200, deadline=None)
@given(shared, st.integers(1, 3), cofactor_lists, cofactor_lists)
@example([-2, 1], 3, [-2], [6])  # (u - 2)^3 twice: a start at X = 3, where u - 2 is 1, reads 1
@example([0, 1], 2, [1], [0, 0, 1])  # u^2 and u^4: a monomial gcd
@example([1, 1], 1, [1, 1], [-1, 1])  # u + 1 once in g, twice in f
def test_gcd_is_the_prs_gcd_on_products_sharing_a_factor(common, power, p, q):
    # the gcd of the two products is divisible by common^power, so it is not 1
    for _ in range(power - 1):
        p, q = times(p, common), times(q, common)
    f, g = sorted((times(common, p), times(common, q)), key=len, reverse=True)
    assert len(prs_gcd(f, g)) > 1
    assert_gcds_agree(f, g)


def test_gcd_takes_a_second_point_when_the_first_misreads():
    # f = 2 + 2u - u^2 and f' = 2 - 2u are coprime; primitive, they are u^2 - 2u - 2
    # and u - 1, of norms 2 and 1, so the first X is 4, where gcd(f(4), f'(4)) = 3
    # reads as u - 1: it divides f' but not f, so X grows to 9, and the gcd is 1
    f = [2, 2, -1]
    assert _balanced_digits(gcd(6, 3), 4, 3) == [-1, 1, 0]
    assert _divide(derivative(f), [-1, 1]) is not None and _divide(f, [-1, 1]) is None
    assert _gcd(f, derivative(f)) == prs_pair(f, derivative(f)) == ([1], _primitive(f))
    assert rational_roots(f) == prs_roots(f) == ()


def wronskian(rows, k):
    """The dense finite Wronskian of integer basis rows, as wronskian_weights passes it on."""
    degree = max(len(row) for row in rows) - 1
    terms = dict(_chart_determinant(DecomposableScroll((degree,)), k, BASE_ZERO, 1, rows).terms)
    return [terms.get((e,), 0) for e in range(max(e for (e,) in terms) + 1)]


def test_wronskian_gcds_are_the_prs_gcds():
    # criterion 4's bases: the monomial quartic, whose Wronskian c u has a
    # constant derivative, and random spanning bases, whose Wronskians are
    # squarefree; bases with one repeated root off 0 (t^2, t^3, t^5 in t = 2u - 1,
    # and in t = u + 3); and a monomial basis u^3, u^5, u^8, of Wronskian c u^13
    bases = [([[1], [0, 1], [0, 0, 1], [0, 0, 0, 0, 1]], 3),
             ([[1, -4, 4], [-1, 6, -12, 8], [-1, 10, -40, 80, -80, 32]], 2),
             ([[9, 6, 1], [27, 27, 9, 1], [243, 405, 270, 90, 15, 1]], 2),
             ([[0, 0, 0, 1], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0, 0, 1]], 2)]
    rng = random.Random(20260809)
    bases += [(_random_spanning_basis(rng, d, k), k) for d, k in ((4, 3), (5, 3), (5, 4), (6, 4))]
    for rows, k in bases:
        f = wronskian(rows, k)
        assert_gcds_agree(f, derivative(f))


coefficients = st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-10**6, 10**6))
polynomials = st.integers(1, len(NAMES)).flatmap(lambda n: st.dictionaries(
    st.tuples(*[st.integers(0, 4)] * n), coefficients, max_size=6
))


@settings(max_examples=200, deadline=None)
@given(polynomials)
@example({})  # zero
@example({(0, 0): -1})  # a negative constant
@example({(0,): 7, (1,): -1})  # -u + 7
@example({(2, 1, 0): 1, (0, 0, 0): -1, (1, 0, 3): -1})
def test_intpoly_prints_as_sympy_polyelement(terms):
    n = len(next(iter(terms), (0,)))
    names = NAMES[:n]
    reference = ring(list(names), ZZ)[0].from_dict(terms)
    ours = IntPoly(names, terms)
    assert str(ours) == str(reference)
    assert bool(ours) == bool(reference)
    assert list(ours.monoms()) == reference.monoms()
    if ours:
        assert ours.degree() == reference.degree()
    assert ours == IntPoly(names, list(reversed(ours.terms)))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([-5, -1, 1, 2, 7]),
    st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=len(NAMES), max_size=len(NAMES)),
)
def test_monomial_factors_match_factor_list(coeff, exponents):
    monomial = {tuple(exponents): coeff}
    reference = ring(list(NAMES), ZZ)[0].from_dict(monomial).factor_list()[1]
    expected = tuple((str(factor), mult) for factor, mult in reference)
    assert _monomial_factors(IntPoly(NAMES, monomial)) == expected
