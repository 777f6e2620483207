"""Chern-class pipeline for the bundle controlling k-th order osculation.

On an n-dimensional scroll the osculating behaviour at order k is governed
by a locally free quotient of the dual jet bundle, of rank kn+1.  Its total
Chern class factors as a product of k classes pulled back from the base
curve and one line-bundle twist factor; inverting the product and reading
off graded terms produces the classes of the inflectional loci.  All
arithmetic happens in the exact L/F algebra of :mod:`scrolljets.chow`.

The ranks of the sheaves appearing along the way are pure combinatorics
and are tracked by :class:`RankProfile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .chow import ChowClass, CoeffPoly, D, G
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


def curve_factor(n: int, i: int, inverse: bool = False) -> ChowClass:
    """Chern factor pulled back from the base curve, for twist index i.

    The direct class is 1 - (d + 2in(g-1))F; with ``inverse=True`` the
    multiplicative inverse 1 + (d + 2in(g-1))F is returned (they agree up
    to the sign of the F term because F*F = 0).
    """
    n = scroll_dimension(n)
    if exact_int(i, "twist index i") < 0:
        raise ValueError("twist index i must be a nonnegative integer")
    coeff = D + (2 * i * n) * (G - 1)
    sign = 1 if inverse else -1
    return ChowClass(n, [(0, 1, 0), (1, 0, coeff * sign)])


def line_twist_factor(n: int, k: int) -> ChowClass:
    """Total Chern class of the line-bundle factor: 1 - 2k(g-1)F - L."""
    if exact_int(k, "jet order k") < 0:
        raise ValueError("jet order k must be a nonnegative integer")
    return ChowClass(n, [(0, 1, 0), (1, -1, (-2 * k) * (G - 1))])


def osculating_chern(n: int, k: int) -> ChowClass:
    """Total Chern class of the rank kn+1 osculating bundle at order k.

    Product of the k curve factors (twist indices 0..k-1) and the line
    twist factor at k.
    """
    n, k = scroll_dimension(n), jet_order(k)
    total = ChowClass.unit(n)
    for i in range(k):
        total = total * curve_factor(n, i)
    return total * line_twist_factor(n, k)


def _segre_codimension(n: int, j) -> int:
    """A Segre term's codimension j as an int in 1..n (n already checked)."""
    if not 1 <= exact_int(j, "codimension j") <= n:
        raise ValueError(f"codimension j must lie in 1..{n}")
    return int(j)


def segre_term(n: int, k: int, j: int) -> ChowClass:
    """Codimension-j piece of the inverse total Chern class, via the product."""
    n = scroll_dimension(n)
    j = _segre_codimension(n, j)
    inv = osculating_chern(n, k).inverse()
    alpha, beta = inv.term(j)
    return ChowClass(n, [(j, alpha, beta)])


def segre_closed_form(n: int, k: int, j: int) -> ChowClass:
    """Closed form of the same graded piece:

    L^j + k*(d + (n(k-1) + 2j)(g-1)) * L^(j-1)*F
    """
    n, k = scroll_dimension(n), jet_order(k)
    j = _segre_codimension(n, j)
    beta: CoeffPoly = k * (D + (n * (k - 1) + 2 * j) * (G - 1))
    return ChowClass(n, [(j, 1, beta)])
