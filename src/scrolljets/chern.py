"""Chern-class pipeline for the bundle controlling k-th order osculation.

On an n-dimensional scroll the osculating behaviour at order k is governed
by a locally free quotient of the dual jet bundle, of rank kn+1.  Its total
Chern class factors as a product of k classes pulled back from the base
curve and one line-bundle twist factor; inverting the product and reading
off graded terms produces the classes of the inflectional loci.  All
arithmetic happens in the exact L/F algebra of :mod:`scrolljets.chow`.

Each curve factor is 1 - c_i F, and F*F = 0, so the k of them multiply to
1 - (sum of the c_i)F: the total class is built as that one sum and one
class product.  Only its inverse is cached, per (n, k), so the Segre terms
of one (n, k) share one inversion; no Segre term or closed form is cached,
and each piece still comes from the product and the recurrence, so every
check of a Segre term against ``segre_closed_form`` stays independent.

The ranks of the sheaves appearing along the way are pure combinatorics
and are tracked by :class:`RankProfile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .chow import _ONE, _ZERO, ChowClass, CoeffPoly, _tidy
from .scrollmodel import exact_int, jet_order, scroll_dimension


@dataclass(frozen=True)
class RankProfile:
    """Ranks of the jet bundle and its companions at order k on dimension n.

    rank_jet        -- full jet (principal parts) bundle, C(n+k, n)
    rank_osculating -- the locally free quotient that evaluates jets, kn+1
    rank_cokernel   -- dual of the jet-evaluation cokernel,
                       C(n+k, n) - (kn+1)
    rank_order_step -- the new corank contributed when passing from order
                       k-1 to order k, C(n+k-1, n-1) - n
    """

    n: int
    k: int
    rank_jet: int
    rank_osculating: int
    rank_cokernel: int
    rank_order_step: int


def rank_profile(n: int, k: int) -> RankProfile:
    n, k = scroll_dimension(n), jet_order(k)
    return RankProfile(
        n=n,
        k=k,
        rank_jet=comb(n + k, n),
        rank_osculating=k * n + 1,
        rank_cokernel=comb(n + k, n) - (k * n + 1),
        rank_order_step=comb(n + k - 1, n - 1) - n,
    )


def _fiber_coeff(d_part: int, twist: int) -> CoeffPoly:
    """-(d_part*d + twist*(g - 1)), the F coefficient of a curve or line twist factor."""
    return CoeffPoly._make(_tidy({(1, 0): -d_part, (0, 1): -twist, (0, 0): twist}))


def _linear_class(n: int, a: CoeffPoly, b: CoeffPoly) -> ChowClass:
    """The class 1 + a*L + b*F."""
    pad = (_ZERO,) * (n - 1)
    return ChowClass._make(n, (_ONE, a) + pad, (_ZERO, b) + pad)


def osculating_chern(n: int, k: int) -> ChowClass:
    """Total Chern class of the rank kn+1 osculating bundle at order k.

    Product of the k curve factors 1 - c_i F, c_i = d + 2in(g-1) for twist
    indices i = 0..k-1, and the line twist factor at k.  As F*F = 0 the
    curve factors multiply to 1 - (c_0 + ... + c_(k-1))F, so one class
    product remains; the c_i are summed coefficientwise as ints, in a loop
    over i.  It is not cached; ``segre_term`` reads its pieces off the
    cached inverse of this product, one per (n, k).
    """
    n, k = scroll_dimension(n), jet_order(k)
    d_part = twist = 0  # c_0 + ... + c_(k-1) = d_part*d + twist*(g - 1), summed as ints
    for i in range(k):
        d_part, twist = d_part + 1, twist + 2 * i * n
    curves = _linear_class(n, _ZERO, _fiber_coeff(d_part, twist))
    return curves * _linear_class(n, -_ONE, _fiber_coeff(0, 2 * k))


def _piece(n: int, j: int, alpha: CoeffPoly, beta: CoeffPoly) -> ChowClass:
    """The class alpha*L^j + beta*L^(j-1)*F for 1 <= j <= n, from trusted coefficients."""
    pad = (_ZERO,) * n
    return ChowClass._make(n, pad[:j] + (alpha,) + pad[j:], pad[:j] + (beta,) + pad[j:])


@lru_cache(maxsize=32)  # bounded: a grid check interleaves a few (n, k) at a time
def _segre_class(n: int, k: int) -> ChowClass:
    """The inverse of ``osculating_chern(n, k)``, for n and k validated as ints."""
    return osculating_chern(n, k).inverse()


def segre_term(n: int, k: int, j: int) -> ChowClass:
    """Codimension-j piece of the inverse total Chern class, via the product.

    The terms of one (n, k) share one inverse of ``osculating_chern(n, k)``,
    O(n) recurrence steps, and each call builds a new class from its piece.
    """
    n = scroll_dimension(n)
    j = exact_int(j, "codimension j", 1, n)
    return _piece(n, j, *_segre_class(n, jet_order(k)).term(j))


def segre_closed_form(n: int, k: int, j: int) -> ChowClass:
    """Closed form of the same graded piece:

    L^j + k*(d + (n(k-1) + 2j)(g-1)) * L^(j-1)*F

    The fiber coefficient k*d + t*(g - 1), t = k(n(k-1) + 2j), is written as
    its three int terms, all nonzero as k, t >= 1.  It is not built by
    ``_fiber_coeff``, which the product side uses, so the identity check
    stays independent.
    """
    n, k = scroll_dimension(n), jet_order(k)
    j = exact_int(j, "codimension j", 1, n)
    t = k * (n * (k - 1) + 2 * j)
    return _piece(n, j, _ONE, CoeffPoly._make({(1, 0): k, (0, 1): t, (0, 0): -t}))
