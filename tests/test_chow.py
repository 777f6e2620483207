import numbers
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

from scrolljets.chern import osculating_chern
from scrolljets.chow import ChowClass, CoeffPoly, D, G, _addmul

scalars = st.integers(min_value=-9, max_value=9)
monomials = st.tuples(st.integers(0, 3), st.integers(0, 3))
coeff_polys = st.dictionaries(monomials, scalars, max_size=4).map(CoeffPoly)
small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def chow_pairs(draw, count=2, n=None):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=4))
    out = []
    for _ in range(count):
        terms = [(0, draw(coeff_polys), 0)]
        terms += [(j, draw(coeff_polys), draw(coeff_polys)) for j in range(1, n + 1)]
        out.append(ChowClass(n, terms))
    return out


# ---------------------------------------------------------------------------
# CoeffPoly
# ---------------------------------------------------------------------------


def test_coeffpoly_drops_zero_terms():
    p = CoeffPoly({(1, 0): 0, (0, 1): 2, (2, 2): Fraction(0)})
    assert p.terms() == {(0, 1): 2}
    assert (p - p).is_zero()
    assert not (D - D)


def test_coeffpoly_rejects_bad_input():
    with pytest.raises(ValueError):
        CoeffPoly({(-1, 0): 1})
    with pytest.raises(TypeError):
        CoeffPoly({(0, 0): 1.5})
    with pytest.raises(TypeError):
        CoeffPoly.coerce("d")


def test_coeffpoly_constants_and_eq():
    assert CoeffPoly.const(3) == 3
    assert CoeffPoly.const(Fraction(6, 2)) == 3
    assert D != G
    assert (D + G) - D == G


def test_coerce_builds_the_public_constant():
    # coerce makes a number's CoeffPoly by the trusted _make, the public
    # constructor by its checks: the terms, their types and the hash agree
    for c in (0, 1, -3, Fraction(0, 5), Fraction(4, 2), Fraction(-2, 3)):
        made, public = CoeffPoly.coerce(c), CoeffPoly({(0, 0): c})
        assert made == public and hash(made) == hash(public)
        assert [(key, type(x)) for key, x in made.terms().items()] == [
            (key, type(x)) for key, x in public.terms().items()
        ]


class OtherRational:
    """An exact rational type that is neither int nor Fraction."""

    def __init__(self, numerator, denominator):
        self.numerator, self.denominator = numerator, denominator


numbers.Rational.register(OtherRational)


def test_values_of_another_rational_type_substitute_as_ints_or_fractions():
    # _exact passes an int or a Fraction as it is and converts any other exact
    # rational: each value must give the terms, and term types, of its Fraction
    # or, when integral, of its int
    poly = 3 * D**2 * G - D + Fraction(1, 2) * G + 5
    cls = ChowClass(2, [(0, 1, 0), (1, poly, D), (2, 0, poly * G)])
    for top, bottom in ((3, 2), (-7, 4), (4, 1), (-5, 1), (0, 1)):
        other = OtherRational(top, bottom)
        exact = top if bottom == 1 else Fraction(top, bottom)
        for got, expected in (
            (poly.substitute(d=other), poly.substitute(d=exact)),
            (poly.substitute(g=other), poly.substitute(g=exact)),
            (CoeffPoly.const(poly.evaluate(other, other)),
             CoeffPoly.const(poly.evaluate(exact, exact))),
            *zip(cls.evaluate(d=other, g=other).term(2), cls.evaluate(d=exact, g=exact).term(2)),
        ):
            assert got == expected
            assert [type(x) for x in got.terms().values()] == [
                type(x) for x in expected.terms().values()
            ]


def test_coeffpoly_power_and_constant_value():
    assert (D + 1) ** 3 == D * D * D + 3 * D * D + 3 * D + 1
    assert (D - G) ** 0 == 1 and (D - G) ** 1 == D - G
    assert CoeffPoly.const(Fraction(5, 2)).constant_value() == Fraction(5, 2)
    assert CoeffPoly().constant_value() == 0
    with pytest.raises(ValueError, match="is not constant"):
        (2 * D + 1).constant_value()


def test_coeffpoly_evaluate_is_ring_hom_examples():
    p = 2 * D + 4 * (G - 1)
    assert p.evaluate(3, 1) == 6
    assert p.evaluate(Fraction(1, 2), 0) == -3
    q = D * G - 5
    assert (p * q).evaluate(2, 3) == p.evaluate(2, 3) * q.evaluate(2, 3)


def test_coeffpoly_substitute_partial():
    p = D * G + D + 1
    only_d = p.substitute(d=2)
    assert only_d == 2 * G + 3
    assert p.substitute(g=0) == D + 1
    assert p.substitute(d=2, g=Fraction(1, 2)) == 4


def test_coeffpoly_str_canonical_order():
    assert str(2 * D - 4 * G + 7) == "2*d - 4*g + 7"
    assert str(D * D + D * G + G * G) == "d^2 + d*g + g^2"
    assert str(CoeffPoly()) == "0"
    assert str(-D) == "-d"
    assert str(CoeffPoly.const(Fraction(3, 2)) * D) == "3/2*d"


def test_coefficients_past_the_int_to_text_limit_print_exactly():
    # str(int) stops at 4,300 digits by default; a coefficient is printed in
    # full past that, an int or a Fraction, and the limit is left as it was
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    big = 10**5000 + 1
    digits = "1" + "0" * 4999 + "1"
    assert str(CoeffPoly.const(big)) == digits
    assert str(-big * D + 1) == f"-{digits}*d + 1"
    assert str(CoeffPoly.const(Fraction(big, 3)) * G) == f"{digits}/3*g"
    assert str(CoeffPoly.const(Fraction(1, big))) == f"1/{digits}"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@settings(max_examples=150)
@given(coeff_polys, coeff_polys, coeff_polys)
def test_coeffpoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100)
@given(coeff_polys, coeff_polys, small_fractions, small_fractions)
def test_coeffpoly_evaluation_commutes(a, b, d0, g0):
    assert (a + b).evaluate(d0, g0) == a.evaluate(d0, g0) + b.evaluate(d0, g0)
    assert (a * b).evaluate(d0, g0) == a.evaluate(d0, g0) * b.evaluate(d0, g0)


# ---------------------------------------------------------------------------
# ChowClass construction
# ---------------------------------------------------------------------------


def test_make_unit_class():
    one = ChowClass(2, [(0, 1, 0)])
    assert one == ChowClass.unit(2)
    assert str(one) == "1"


def test_make_case_i_class():
    k = 2
    cls = ChowClass(3, [(1, 1, -k)])
    assert cls.term(1) == (CoeffPoly.const(1), CoeffPoly.const(-2))
    assert str(cls) == "L - 2*F"


def test_terms_of_one_codimension_add_up():
    cls = ChowClass(2, [(1, 1, 2), (0, 3, 0), (1, D, -2), (1, 0, G), (0, -3, 0)])
    assert cls == ChowClass(2, [(1, D + 1, G)])
    assert cls.term(0) == (CoeffPoly(), CoeffPoly())


def test_class_str_pins_every_printer_branch():
    # a negative codim-0 Fraction, +-1 on L and on L^2*F, a Fraction on F,
    # a magnitude on L*F and a d/g polynomial with a negative lead on L^2
    terms = [(0, Fraction(-3, 2), 0), (1, 1, Fraction(5, 3)), (2, 2 * G - D, 3), (3, 0, -1)]
    assert str(ChowClass(3, terms)) == "-3/2 + L + 5/3*F + (-d + 2*g)*L^2 + 3*L*F - L^2*F"
    flipped = [(0, Fraction(-3, 2), 0), (1, -1, Fraction(5, 3)), (2, 2 * G - D, 3), (3, 0, 1)]
    assert str(ChowClass(3, flipped)) == "-3/2 - L + 5/3*F + (-d + 2*g)*L^2 + 3*L*F + L^2*F"
    # a polynomial in codimension 0 is printed bare
    assert str(ChowClass(2, [(0, D - 1, 0), (1, 0, -2)])) == "(d - 1) - 2*F"
    # the zero class, and repr names the dimension
    assert str(ChowClass(2)) == "0"
    assert repr(ChowClass(2)) == "ChowClass(n=2, 0)"
    assert repr(ChowClass(3, [(1, 1, -D)])) == "ChowClass(n=3, L + (-d)*F)"


def test_make_fiber_class():
    f = ChowClass(2, [(1, 0, 1)])
    assert f == ChowClass.fiber(2)


def test_make_rejections():
    with pytest.raises(ValueError):
        ChowClass(2, [(3, 1, 0)])
    with pytest.raises(ValueError):
        ChowClass(2, [(-1, 1, 0)])
    with pytest.raises(ValueError):
        ChowClass(2, [(0, 1, 5)])
    with pytest.raises(ValueError):
        ChowClass(0, [])


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def test_fiber_squares_to_zero():
    for n in range(1, 5):
        f = ChowClass.fiber(n)
        assert (f * f).is_zero()


def test_mul_distributes_simple():
    n = 3
    a = 5
    one = ChowClass.unit(n)
    L = ChowClass.hyperplane(n)
    F = ChowClass.fiber(n)
    lhs = (one + a * F) * (one + L)
    rhs = one + L + a * F + a * (L * F)
    assert lhs == rhs


def test_mul_difference_of_squares_kills_fiber():
    L = ChowClass.hyperplane(2)
    F = ChowClass.fiber(2)
    assert (L - 2 * F) * (L + 2 * F) == L * L


def test_mul_mismatched_dimension():
    with pytest.raises(ValueError):
        ChowClass.unit(2) * ChowClass.unit(3)


def test_coefficient_times_class_either_order():
    classes = (
        ChowClass.hyperplane(2),
        ChowClass(3, [(0, 1, 0), (1, D, G - 1), (3, Fraction(1, 2), 4)]),
    )
    for x in classes:
        for c in (D, G - 1, CoeffPoly.const(Fraction(2, 3)), 2 * D * G):
            assert c * x == x * c
            assert hash(c * x) == hash(x * c)
    assert str(D * ChowClass.hyperplane(2)) == "(d)*L"
    for bad in (True, 1.5):
        with pytest.raises(TypeError):
            ChowClass.hyperplane(2) * bad
        with pytest.raises(TypeError):
            bad * ChowClass.hyperplane(2)
        with pytest.raises(TypeError):
            D * bad


@settings(max_examples=80)
@given(chow_pairs(count=3))
def test_chow_ring_axioms(classes):
    x, y, z = classes
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=60)
@given(chow_pairs(count=2), small_fractions, small_fractions)
def test_chow_evaluation_commutes_with_mul(classes, d0, g0):
    x, y = classes
    assert (x * y).evaluate(d0, g0) == x.evaluate(d0, g0) * y.evaluate(d0, g0)


@settings(max_examples=80)
@given(chow_pairs(count=2))
def test_grading_of_products(classes):
    x, y = classes
    n = x.n
    for jx, ax, bx in x.pieces():
        xs = ChowClass(n, [(jx, ax, bx)])
        for jy, ay, by in y.pieces():
            ys = ChowClass(n, [(jy, ay, by)])
            prod = xs * ys
            if not prod.is_zero():
                assert prod.homogeneous_codim() == jx + jy


# ---------------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------------


def test_inverse_of_unit():
    one = ChowClass.unit(3)
    assert one.inverse() == one


def test_inverse_geometric_series():
    # (1 - bF - L)^(-1) truncates to sum_j (bF + L)^j; term j is (1, j*b)
    for n in (2, 4, 6):
        for b in (3, -2):
            x = ChowClass(n, [(0, 1, 0), (1, -1, -b)])
            inv = x.inverse()
            assert x * inv == ChowClass.unit(n)
            for j in range(n + 1):
                assert inv.term(j) == (CoeffPoly.const(1), CoeffPoly.const(j * b))


def test_inverse_of_pure_fiber_factor():
    # (1 - cF)^(-1) = 1 + cF for any coefficient polynomial c
    for n in (1, 2, 3):
        for i in (0, 1, 2):
            c = D + (2 * i * n) * (G - 1)
            x = ChowClass(n, [(0, 1, 0), (1, 0, -c)])
            assert x.inverse() == ChowClass(n, [(0, 1, 0), (1, 0, c)])


def test_inverse_requires_unit():
    with pytest.raises(ValueError):
        ChowClass(2, [(0, 2, 0)]).inverse()
    with pytest.raises(ValueError):
        ChowClass.fiber(2).inverse()


def test_inverse_on_random_unit_classes():
    # 1000 random unit classes with small coefficients, all n <= 6
    rng = random.Random(20260809)
    for trial in range(1000):
        n = rng.randint(1, 6)
        terms = [(0, 1, 0)]
        for j in range(1, n + 1):
            a = CoeffPoly({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4)})
            b = CoeffPoly({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4)})
            terms.append((j, a, b))
        x = ChowClass(n, terms)
        assert x * x.inverse() == ChowClass.unit(n)


# ---------------------------------------------------------------------------
# term and degree
# ---------------------------------------------------------------------------


def test_term_examples():
    x = ChowClass.unit(2) + 5 * ChowClass.fiber(2)
    assert x.term(1) == (CoeffPoly(), CoeffPoly.const(5))
    assert x.term(0) == (CoeffPoly.const(1), CoeffPoly())
    with pytest.raises(ValueError):
        x.term(3)
    with pytest.raises(ValueError):
        x.term(-1)


def test_degree_examples():
    L = ChowClass.hyperplane(2)
    F = ChowClass.fiber(2)
    assert (L - 2 * F).degree(3, 0) == 1
    assert F.degree(7, 5) == 1
    assert (L * L).degree(Fraction(11, 2), 0) == Fraction(11, 2)
    for n in range(1, 5):
        assert (ChowClass.hyperplane(n) ** n).degree(9, 1) == 9


def test_degree_matches_pairing_with_hyperplane_power():
    # degree of a codim-j class must agree with reading the top piece of
    # x * L^(n-j)
    n = 4
    L = ChowClass.hyperplane(n)
    x = ChowClass(n, [(2, D + 1, 3 * G)])
    top = x * L ** (n - 2)
    a, b = top.term(n)
    assert x.degree_poly() == a * D + b


def test_degree_rejects_mixed_classes():
    x = ChowClass.unit(2) + ChowClass.hyperplane(2)
    with pytest.raises(ValueError):
        x.degree(1, 1)


def test_degree_of_zero_class():
    zero = ChowClass(3)
    assert zero.degree_poly().is_zero()
    assert zero.degree(4, 2) == 0


# ---------------------------------------------------------------------------
# independent reference model: QQ[d, g][L, F] / (F^2, codim > n) on sympy rings
# ---------------------------------------------------------------------------

REF, REF_D, REF_G, REF_L, REF_F = ring("d,g,L,F", QQ)

ref_coeffs = st.dictionaries(
    monomials, st.one_of(scalars, small_fractions), max_size=3
).map(CoeffPoly)
ref_slots = st.one_of(st.just(CoeffPoly()), ref_coeffs)


# every slot one nonzero Fraction term of degree at most 1 in d and in g, so
# classes up to n = 12 stay small enough for the sympy model
dense_slots = st.builds(
    lambda key, num, den: CoeffPoly({key: Fraction(num or 5, den)}),
    st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]),
    st.integers(-5, 4),
    st.integers(1, 6),
)


@st.composite
def ref_classes(draw, count=2, unit=False, n_range=(1, 6), slots=ref_slots):
    n = draw(st.integers(*n_range))
    out = []
    for _ in range(count):
        head = 1 if unit else draw(slots)
        terms = [(0, head, 0)]
        terms += [(j, draw(slots), draw(slots)) for j in range(1, n + 1)]
        out.append(ChowClass(n, terms))
    return out


def ref_reduce(p, n):
    """Kill F^2 and everything of codimension beyond n."""
    return REF.from_dict({m: c for m, c in p.items() if m[3] < 2 and m[2] + m[3] <= n})


def ref_coeff(poly):
    out = REF.zero
    for (ed, eg), c in poly.terms().items():
        c = Fraction(c)
        out += QQ(c.numerator, c.denominator) * REF_D**ed * REF_G**eg
    return out


def to_ref(x):
    out = REF.zero
    for j, a, b in x.pieces():
        out += ref_coeff(a) * REF_L**j
        if j:
            out += ref_coeff(b) * REF_L ** (j - 1) * REF_F
    return out


def ref_inverse(p, n):
    """Neumann series sum_m (1 - p)^m, exact as 1 - p is nilpotent."""
    nilpotent = REF.one - p
    total, power = REF.one, REF.one
    for _ in range(n):
        power = ref_reduce(power * nilpotent, n)
        total += power
    return total


def assert_canonical(x):
    polys = [x] if isinstance(x, CoeffPoly) else [p for _, a, b in x.pieces() for p in (a, b)]
    for poly in polys:
        for c in poly.terms().values():
            assert c != 0
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@settings(max_examples=80, deadline=None)
@given(ref_classes(count=2))
def test_products_match_reference_model(classes):
    x, y = classes
    n = x.n
    prod = x * y
    assert to_ref(prod) == ref_reduce(to_ref(x) * to_ref(y), n)
    assert to_ref(x + y) == to_ref(x) + to_ref(y)
    assert to_ref(x - y) == to_ref(x) - to_ref(y)
    for z in (prod, x + y, x - y, -x, x * Fraction(3, 2)):
        assert_canonical(z)
    rebuilt = ChowClass(n, prod.pieces())
    assert y * x == prod == rebuilt
    assert hash(y * x) == hash(prod) == hash(rebuilt)


@settings(max_examples=80, deadline=None)
@given(ref_classes(count=1, unit=True))
def test_inverse_matches_reference_model(classes):
    (x,) = classes
    n = x.n
    inv = x.inverse()
    assert to_ref(inv) == ref_inverse(to_ref(x), n)
    assert ref_reduce(to_ref(x) * to_ref(inv), n) == REF.one
    assert_canonical(inv)
    assert hash(inv) == hash(ChowClass(n, inv.pieces()))


def fraction_substitute(poly, d, g):
    """Term-by-term reference: every coefficient and value a Fraction, None left formal."""
    out = {}
    for (ed, eg), c in poly.terms().items():
        value = Fraction(c)
        if d is not None:
            value, ed = value * Fraction(d) ** ed, 0
        if g is not None:
            value, eg = value * Fraction(g) ** eg, 0
        out[ed, eg] = out.get((ed, eg), 0) + value
    return {key: c for key, c in out.items() if c}


non_integral_fractions = small_fractions.filter(lambda q: q.denominator > 1)


@settings(max_examples=100, deadline=None)
@given(
    ref_classes(count=1),
    st.integers(-9, 9),
    st.integers(-9, 9),
    non_integral_fractions,
    non_integral_fractions,
)
def test_substitution_matches_a_fraction_reference(classes, d_int, g_int, d_frac, g_frac):
    # integral values go in as ints, the same values as Fractions give the
    # same terms, and so do non-integral Fractions, with every integral
    # coefficient stored as an int
    (x,) = classes
    polys = [p for _, a, b in x.pieces() for p in (a, b)] or [CoeffPoly()]
    for d, g in ((d_int, g_int), (Fraction(d_int), Fraction(g_int)), (d_frac, g_frac)):
        for values in ((d, g), (d, None), (None, g)):
            for poly in polys:
                got = poly.substitute(*values)
                assert got.terms() == fraction_substitute(poly, *values)
                assert_canonical(got)
            evaluated = x.evaluate(*values)
            assert_canonical(evaluated)
            for j in range(x.n + 1):
                for coeff, poly in zip(evaluated.term(j), x.term(j)):
                    assert coeff.terms() == fraction_substitute(poly, *values)
        for poly in polys:
            value = poly.evaluate(d, g)
            assert type(value) is Fraction
            assert value == fraction_substitute(poly, d, g).get((0, 0), 0)


@settings(max_examples=80, deadline=None)
@given(
    ref_coeffs,
    coeff_polys,
    st.sampled_from([1, -1, 0, 7, -4, Fraction(2, 3), Fraction(-5, 4)]),
)
def test_constant_factor_matches_reference_model(p, q, c):
    # 6q has integer coefficients, so scaling it by 1/6 or -1/3 comes out integral
    for poly, const in ((p, c), (6 * q, Fraction(1, 6)), (6 * q, Fraction(-1, 3))):
        boxed = CoeffPoly.const(const)
        expected = ref_coeff(poly) * ref_coeff(boxed)
        for prod in (poly * const, const * poly, poly * boxed, boxed * poly):
            assert ref_coeff(prod) == expected
            assert_canonical(prod)
            rebuilt = CoeffPoly(prod.terms())
            assert prod == rebuilt and hash(prod) == hash(rebuilt)


term_dicts = st.dictionaries(monomials, st.one_of(scalars, small_fractions), max_size=4)
constant_dicts = st.one_of(scalars, small_fractions).map(lambda c: {(0, 0): c})


def double_loop(acc, x, y):
    """acc + x*y on term dicts by the plain pair loop."""
    out = dict(acc)
    for (ed1, eg1), c1 in x.items():
        for (ed2, eg2), c2 in y.items():
            out[ed1 + ed2, eg1 + eg2] = out.get((ed1 + ed2, eg1 + eg2), 0) + c1 * c2
    return out


@settings(max_examples=150, deadline=None)
@given(term_dicts, st.one_of(term_dicts, constant_dicts), st.one_of(term_dicts, constant_dicts))
def test_addmul_constant_branch_is_the_double_loop(acc, x, y):
    # _addmul scales the other factor's terms when one factor is a constant;
    # on either side, and with zeros left untidied, that is the pair loop
    for left, right in ((x, y), (y, x)):
        got = dict(acc)
        _addmul(got, left, right)
        assert got == double_loop(acc, left, right)


@settings(max_examples=30, deadline=None)
@given(ref_classes(count=2, unit=True, n_range=(7, 12), slots=dense_slots))
def test_dense_large_classes_match_reference_model(classes):
    # the benchmark's dimensions, with no zero coefficient for the kernels to skip
    x, y = classes
    n = x.n
    inv, prod = x.inverse(), x * y
    assert to_ref(inv) == ref_inverse(to_ref(x), n)
    assert to_ref(prod) == ref_reduce(to_ref(x) * to_ref(y), n)
    for z in (inv, prod):
        assert_canonical(z)
        rebuilt = ChowClass(n, z.pieces())
        assert z == rebuilt and hash(z) == hash(rebuilt)


@pytest.mark.parametrize("k", [1, 2, 7, 27])
def test_osculating_inverse_matches_reference_model(k):
    # every n of the benchmark's Segre grid; a_2 = 0 there, so a skipped
    # fiber term would show
    for n in range(1, 13):
        total = osculating_chern(n, k)
        assert to_ref(total.inverse()) == ref_inverse(to_ref(total), n)


def test_arithmetic_collapses_integral_fractions():
    half = CoeffPoly.const(Fraction(1, 2)) * D
    assert (half + half).terms() == {(1, 0): 1}
    assert type((half * 2).terms()[(1, 0)]) is int
    assert (half - half).terms() == {}
    x = ChowClass(2, [(0, 1, 0), (1, Fraction(1, 2), Fraction(3, 2))])
    assert type((x * 2).term(1)[1].terms()[(0, 0)]) is int
    assert hash(half + half) == hash(D)
    # a constant equals its number, so it hashes as that number and a set holds one of them
    for c in (0, 3, Fraction(1, 2)):
        assert CoeffPoly.const(c) == c and hash(CoeffPoly.const(c)) == hash(c)
        assert len({CoeffPoly.const(c), c}) == 1
    assert len({CoeffPoly(), 0, CoeffPoly.const(0)}) == 1
