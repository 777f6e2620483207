"""The integer polynomials of the oracles against sympy's reference models:
rational roots against the linear factors of ``factor_list``, printing
against ``PolyElement``, and monomial factors against ``factor_list``."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, ring

from scrolljets.intpoly import IntPoly, rational_roots
from scrolljets.scanner import _monomial_factors

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
