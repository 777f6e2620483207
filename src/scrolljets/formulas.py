"""Closed-form results: inflectional locus class and degree of a scroll,
the curve and double-point identities, and the classification of
uninflected scrolls.

Every formula runs in two modes: with d and g left formal it returns exact
polynomials (CoeffPoly / ChowClass with polynomial coefficients); with
rational values supplied it returns numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .chern import segre_closed_form
from .chow import ChowClass, CoeffPoly, D, G, _exact
from .scrollmodel import DecomposableScroll, exact_int, exact_rational, jet_order, scroll_dimension

Numeric = Union[int, Fraction]
Value = Union[Fraction, CoeffPoly]


def _as_value(poly: CoeffPoly) -> Value:
    """Constant polynomials collapse to plain Fractions."""
    if poly.is_constant():
        return Fraction(poly.constant_value())
    return poly


@dataclass(frozen=True)
class ScrollParams:
    """Numeric/formal parameters of an embedded scroll.

    n is the dimension, ambient the dimension of the surrounding projective
    space, d the degree and g the genus of the base curve (either may be
    None to stay formal; an integral value is kept as an int, any other as
    a Fraction).  The jet order k is always derived as the largest integer
    with k*n <= ambient, and ell = ambient + 1 - k*n is the expected
    codimension of the inflectional locus, which automatically satisfies
    1 <= ell <= n.
    """

    n: int
    ambient: int
    d: Optional[Numeric] = None
    g: Optional[Numeric] = None

    def __post_init__(self) -> None:
        n = scroll_dimension(self.n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ambient", exact_int(self.ambient, "ambient dimension", n + 1))
        for name in ("d", "g"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _exact(value, name))

    @property
    def k(self) -> int:
        return self.ambient // self.n

    @property
    def ell(self) -> int:
        return self.ambient + 1 - self.k * self.n


def inflectional_class(params: ScrollParams) -> ChowClass:
    """Class of the inflectional locus: the codimension-ell Segre term.

    Formal when d, g are formal; numeric coefficients otherwise.
    """
    return segre_closed_form(params.n, params.k, params.ell).evaluate(d=params.d, g=params.g)


def inflectional_degree(params: ScrollParams) -> Value:
    """Degree of the inflectional locus:

    (k+1)d + k(2(N+1) - (k+1)n)(g-1),  N the ambient dimension.

    Agrees with the degree of :func:`inflectional_class` and specializes to
    (k+1)(d + nk(g-1)) when N = (k+1)n - 1 and to (k+1)(d + k(g-1)) when
    n = 1.  It is built as (k+1)d + t*g - t from its three int terms, all
    nonzero as t = k(2(N+1) - (k+1)n) = k(n(k-1) + 2*ell) >= 2.
    """
    k = params.k
    t = k * (2 * (params.ambient + 1) - (k + 1) * params.n)
    poly = CoeffPoly._make({(1, 0): k + 1, (0, 1): t, (0, 0): -t})
    return _as_value(poly.substitute(d=params.d, g=params.g))


def curve_inflection_degree(
    d: Optional[Numeric],
    g: Optional[Numeric],
    k: int,
) -> Value:
    """Weighted number of inflection points of a degree-d genus-g curve
    spanning projective k-space: (k+1)(d + k(g-1))."""
    k = jet_order(k)
    poly = (k + 1) * (D + k * (G - 1))
    return _as_value(poly.substitute(d=d, g=g))


def double_point_check(n: int, d: Numeric, g: Numeric) -> bool:
    """Self-intersection identity for a smooth n-dimensional scroll living
    in projective 2n-space: (d-n)(d-n-1) = n(n+1)g."""
    n = scroll_dimension(n)
    d, g = exact_rational(d, "d"), exact_rational(g, "g")
    return (d - n) * (d - n - 1) == n * (n + 1) * g


def classify_uninflected(n: int, k: int, ell: int) -> Optional[DecomposableScroll]:
    """Which scrolls of dimension n in projective (kn+ell-1)-space are
    uninflected?

    For ell < n none are (intersecting the vanishing locus class with
    L^(n-ell-1)F would force L^(n-1)F = 0, but that degree is 1), so None
    is returned, meaning "necessarily inflected".  For ell = n the unique
    answer is the balanced rational normal scroll itself,
    ``DecomposableScroll((k,) * n)``: genus 0, degree d = kn, in projective
    N = ((k+1)n - 1)-space.
    """
    n, k = scroll_dimension(n), jet_order(k)
    if exact_int(ell, "expected codimension ell", 1, n) < n:
        return None
    return DecomposableScroll((k,) * n)
