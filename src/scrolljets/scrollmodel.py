"""Explicit decomposable scrolls over the projective line, with exact k-jet
matrices of the section basis and exact rank computation.

A scroll here is P(O(a_1) + ... + O(a_n)) embedded by its tautological
bundle, so it has degree d = sum a_i and spans projective N-space with
N = d + n - 1.  Around any point there are local coordinates
(u, v_2, ..., v_n): u on the base, the v's on the fiber, and every
hyperplane section restricts to a(u) + sum_j v_j b_j(u).  Consequently all
partial derivatives of order h >= 2 vanish identically except the pure
d/du^h ones and the mixed d/du^(h-1) d/dv_j ones, which is why the k-jet
matrix below keeps only those kn+1 columns.  That matrix is defined once,
as a per-chart template of falling-factorial monomials (:func:`jet_template`),
and every numeric, symbolic or Wronskian jet matrix evaluates it.

Charts: two base charts ("0" and "inf", exchanging u with 1/u, which
reverses the exponent m of a degree-a section to a - m) and n fiber charts
(fiber chart i normalizes the i-th homogeneous fiber coordinate to 1).
Everything is exact rational arithmetic; determinants and :func:`exact_rank` come from
one fraction-free elimination with deterministic pivoting (:func:`bareiss`), the only one here:
an orbit's rank is a count (below).  A template row stores only its nonzero entries, each an
index into one flat list of a point's powers (:class:`JetTemplate`), the template's one layout.

The orbit argument: GL_2 x (C*)^n acts on the scroll and preserves the complete linear system, so
the jet rank is constant on the support strata (a point's support T is its chart summand and every
j with v_j != 0): GL_2 moves any base point to u = 0 in chart "0", and v_j -> t_j v_j (t_j != 0)
scales the fiber coordinates on T to 1.  The automorphisms of E = O(a_1) + ... + O(a_n) join strata
(Maruyama, "On automorphism groups of ruled surfaces", J. Math. Kyoto Univ. 11, 1971, for n = 2):
a map O(a_i) -> O(a_j), times a g(u) of degree <= a_j - a_i, acts on the fiber coordinates w by
w_i -> w_i + g(u) w_j, linearly and invertibly on H^0(E), so it extends to P^N and keeps every
osculating rank; with w_j != 0 and a_j >= a_i it switches w_i on or off.  So T has the rank of {m}
for any m with a_m = max_{j in T} a_j, and the orbit of {m} holds the torus-fixed point
u = 0, v = 0 of chart ("0", m).  There every section is a torus eigenvector whose jet is one
monomial, so a row keeps at most one nonzero entry, of u-exponent 0 and no v factor, in its own
column, and the rank is the number of columns those entries fill (:func:`_representative_rank`;
Perkinson, "Inflections of toric varieties", Michigan Math. J. 2000): one count per degree ranks
every stratum.  The strata of the largest degree, {1..n} among them, are one open dense orbit, so
its rank is the generic rank (:func:`full_support_rank`), and a jet determinant, whose zero locus
is a union of orbits, is a monomial in every chart.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import _RATIONAL_FORMAT, Fraction
from functools import lru_cache
from math import gcd, lcm, perm
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

Rational = Union[int, Fraction]

BASE_ZERO = "0"
BASE_INF = "inf"
_BASE_CHARTS = (BASE_ZERO, BASE_INF)


def exact_int(value, what: str, low: Optional[int] = None, high: Optional[int] = None) -> int:
    """The value as an int in low..high; bools, floats and non-integral values are rejected.

    Both bounds are inclusive and a bound left as None is not checked; high
    is only given together with low.  An int out of range is a ValueError
    reading "{what} must be at least {low}, got {v}" or, with both bounds,
    "{what} must lie in {low}..{high}, got {v}".
    """
    if type(value) is not int:  # fast path: a plain int needs no ABC check
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{what} must be an integer, got {value!r}")
        value = int(value)
    if (low is not None and value < low) or (high is not None and value > high):
        bound = f"be at least {low}" if high is None else f"lie in {low}..{high}"
        raise ValueError(f"{what} must {bound}, got {value}")
    return value


def jet_order(k) -> int:
    """The jet order as an int; it must be a positive integer, not a bool or float."""
    return exact_int(k, "jet order k", 1)


def _admissible_order(scroll: DecomposableScroll, k=None) -> int:
    """A scroll's jet order k as an int in 1..N // n, where kn+1 rows fit its N+1 sections;
    None is the largest, N // n."""
    top = scroll.N // scroll.n
    return top if k is None else exact_int(k, "jet order k", 1, top)


def scroll_dimension(n) -> int:
    """The dimension n as an int; it must be a positive integer, not a bool or float."""
    return exact_int(n, "dimension n", 1)


def exact_rational(value, what: str) -> Fraction:
    """The value as a Fraction; bools, floats and other inexact values are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Rational):
        raise ValueError(f"{what} must be an exact rational, got {value!r}")
    return Fraction(value)


def _text(c: Rational) -> str:
    """str(c); past the int-to-text digit limit, the digits that Decimal prints exactly."""
    try:
        return str(c)
    except ValueError:
        top, bottom = str(Decimal(c.numerator)), str(Decimal(c.denominator))
        return top if bottom == "1" else f"{top}/{bottom}"


def _rational(text: str) -> Fraction:
    """Fraction(text) with no int-from-text digit limit: a text in Fraction's own grammar that
    it refuses for its length is read through Decimal, which has none."""
    try:
        return Fraction(text)
    except ValueError:
        top, _, bottom = text.partition("/")
        try:
            if _RATIONAL_FORMAT.match(text):
                return Fraction(Decimal(top)) / int(Decimal(bottom or "1"))
        except InvalidOperation:  # an exponent Decimal cannot hold: 10**exponent has no int
            pass
        raise


def other_summands(n: int, fiber_chart: int) -> List[int]:
    """The summands other than the chart summand, ascending: the order of a chart's v_j."""
    return [j for j in range(1, n + 1) if j != fiber_chart]


@dataclass(frozen=True)
class DecomposableScroll:
    """P(O(a_1) + ... + O(a_n)) over the projective line."""

    degrees: Tuple[int, ...]

    def __post_init__(self) -> None:
        degrees = tuple(exact_int(a, "a summand degree", 1) for a in self.degrees)
        if not degrees:
            raise ValueError("a scroll needs at least one summand")
        object.__setattr__(self, "degrees", degrees)

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def d(self) -> int:
        return sum(self.degrees)

    @property
    def N(self) -> int:
        return self.d + self.n - 1

    def degree_of(self, summand: int) -> int:
        """Degree of a summand, indexed 1..n."""
        return self.degrees[exact_int(summand, "summand index", 1, self.n) - 1]

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.degrees) + ")"


@dataclass(frozen=True)
class ScrollPoint:
    """A rational point in one chart of a scroll.

    base_chart is "0" or "inf" with u the base coordinate there;
    fiber_chart is the summand (1..n) whose homogeneous fiber coordinate is
    normalized to 1; v lists the remaining n-1 fiber coordinates, ordered
    by increasing summand index.
    """

    base_chart: str
    u: Fraction
    fiber_chart: int = 1
    v: Tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        if self.base_chart not in _BASE_CHARTS:
            raise ValueError(f"base chart must be one of {_BASE_CHARTS}")
        object.__setattr__(self, "u", exact_rational(self.u, "the base coordinate u"))
        object.__setattr__(self, "fiber_chart", exact_int(self.fiber_chart, "the fiber chart", 1))
        object.__setattr__(
            self, "v", tuple(exact_rational(x, "a fiber coordinate") for x in self.v)
        )

    @classmethod
    def _make(cls, base_chart: str, u: Fraction, fiber_chart: int, v: tuple) -> "ScrollPoint":
        """Trusted constructor: a valid base chart, an int fiber chart and Fractions."""
        point = object.__new__(cls)
        point.__dict__.update(base_chart=base_chart, u=u, fiber_chart=fiber_chart, v=v)
        return point


def _check_point(scroll: DecomposableScroll, point: ScrollPoint) -> None:
    # ScrollPoint has checked its base chart and made its fiber chart an int,
    # so a range check suffices; a scan checks none of its points, which it
    # builds from the draw keys of its own chart and summand counts
    exact_int(point.fiber_chart, "the fiber chart", 1, scroll.n)
    if len(point.v) != scroll.n - 1:
        raise ValueError(
            f"point carries {len(point.v)} fiber coordinates, expected {scroll.n - 1}"
        )


def fiber_coordinate(
    scroll: DecomposableScroll, point: ScrollPoint, summand: int
) -> Fraction:
    """Chart value of the fiber coordinate of a summand (1 on the chart summand)."""
    _check_point(scroll, point)
    summand = exact_int(summand, "summand index", 1, scroll.n)
    if summand == point.fiber_chart:
        return Fraction(1)
    return point.v[other_summands(scroll.n, point.fiber_chart).index(summand)]


# Column descriptors for the reduced jet matrix: ("u", h) is the pure
# derivative d^h/du^h, ("uv", h, j) is d^h/du^h d/dv_j.
Column = Tuple


def jet_columns(n: int, k: int, fiber_chart: int) -> Tuple[Column, ...]:
    """The kn+1 reduced derivative columns, graded by total order."""
    n, k = scroll_dimension(n), jet_order(k)
    others = other_summands(n, exact_int(fiber_chart, "the fiber chart", 1, n))
    cols: List[Column] = [("u", 0)]
    for h in range(1, k + 1):
        cols.append(("u", h))
        for j in others:
            cols.append(("uv", h - 1, j))
    return tuple(cols)


class JetTemplate(NamedTuple):
    """A chart's jet matrix, stored sparsely: each row's nonzero entries, by column, as plain
    (column, coeff, index) tuples.  The entry coeff u^e v_j has index = width c + e, for width
    = D + 1 with D the largest degree and c = 0 with no v factor, else 1 + the place of v_j
    among the chart's :func:`other_summands`: it indexes a point's one flat list of powers, the
    powers u^0..u^D and then each v_j times them."""

    ncols: int
    width: int
    rows: Tuple[Tuple[Tuple[int, int, int], ...], ...]


@lru_cache(maxsize=32, typed=True)
def jet_template(
    scroll: DecomposableScroll, k: int, base_chart: str, fiber_chart: int
) -> JetTemplate:
    """The reduced k-jet matrix of the N+1 basis sections in one chart, symbolically.

    Rows are the sections v_j u^e in every fiber chart (v_j = 1 on the chart
    summand): summands j = 1..n in turn, each with e = 0..a_j in base chart
    "0" and a_j..0 in chart "inf", where u -> 1/u reverses the exponents.
    Columns follow :func:`jet_columns`; a row lists its partials that do not
    vanish identically, in column order.  The section v_j u^e has pure
    derivative perm(e, h) u^(e-h) v_j and, for its own summand j only, the
    mixed d/dv_j derivative perm(e, h) u^(e-h): at most 2(k+1) entries,
    emitted directly.  Every numeric, symbolic, Wronskian and certificate jet
    matrix is this template evaluated, and an orbit's rank is read off it.
    The cache is bounded: a scan ranks its orbits in the charts ("0", i)
    and certifies in its points' own charts, so it needs at most 2n charts.
    """
    k, n = jet_order(k), scroll.n
    if base_chart not in _BASE_CHARTS:
        raise ValueError(f"base chart must be one of {_BASE_CHARTS}")
    others = other_summands(n, exact_int(fiber_chart, "the fiber chart", 1, n))
    width = max(scroll.degrees) + 1
    slot = {j: c for c, j in enumerate(others, start=1)}  # ("uv", h-1, j) is column (h-1)n + 1 + c
    rows = []
    for j, a in enumerate(scroll.degrees, start=1):
        c = slot.get(j, 0)
        for e in range(a + 1) if base_chart == BASE_ZERO else range(a, -1, -1):
            i = width * c + e  # u^e v_j
            entries = [(0, 1, i)]
            for h in range(1, min(e + 1, k) + 1):
                if h <= e:
                    entries.append(((h - 1) * n + 1, perm(e, h), i - h))
                if c:
                    entries.append(((h - 1) * n + 1 + c, perm(e, h - 1), e - h + 1))
            rows.append(tuple(entries))
    return JetTemplate(k * n + 1, width, tuple(rows))


def evaluate_jet_template(
    scroll: DecomposableScroll, k: int, base_chart: str, fiber_chart: int, u, v: Mapping
) -> List[list]:
    """The jet template of a chart with u and the fiber coordinates substituted.

    ``v`` maps every summand other than the chart summand to its fiber
    coordinate.  The package passes ints (chart determinants, each variable 1
    or Kronecker-packed) and, from :func:`jet_matrix`, a point's Fractions;
    sympy symbols come from the tests.  The powers of u are taken once, then
    each v_j times them, into the flat list that the template indexes; only
    the nonzero entries are filled, the zeros stay in u's own number type, and
    the rows are new lists.  (A symbol's u * u or 1 - 1 would build an Add,
    whose first use imports sympy's tensor module: hence u**e and 0 * u**0.)
    """
    ncols, width, template = jet_template(scroll, k, base_chart, fiber_chart)
    powers = [u**e for e in range(width)]
    flat = powers + [v[j] * p for j in other_summands(scroll.n, fiber_chart) for p in powers]
    zero = powers[0] * 0
    matrix = []
    for entries in template:
        row = [zero] * ncols
        for column, coeff, i in entries:
            row[column] = coeff * flat[i]
        matrix.append(row)
    return matrix


class _JetText(tuple):
    """A certificate's rows, built only by :func:`_jet_text`: tuples of exact ASCII str "a" or
    "a/b", which the JSON writer prints unchecked.  It equals and hashes as its plain tuple."""

    __slots__ = ()


def _jet_text(scroll: DecomposableScroll, k: int, point: ScrollPoint) -> _JetText:
    """The jet template of the point's chart at the point, each entry as its Fraction's text.

    At u = p/q and v_j = r_j/s_j, each ratio read once, a nonzero entry coeff u^e v_j is
    a/b = coeff r_j p^e / s_j q^e with b > 0, written as str(Fraction(a, b)), reduced by one
    g = gcd(a, b) only if b != 1 (b is 1 for about 70 % of a scan's nonzero entries); a zero
    is the shared "0".  Past the int-to-text digit limit a and b are written by :func:`_text`.
    Each entry is read off the chart's cached :func:`jet_template`, its index into the point's
    flat powers; the rows are a :class:`_JetText`.
    The point is not checked: :func:`~scrolljets.scanner.rank_scan`, the one caller, built it.
    """
    ncols, width, template = jet_template(scroll, k, point.base_chart, point.fiber_chart)
    p, q = point.u.as_integer_ratio()
    powers = [(p**e, q**e) for e in range(width)]
    flat = powers + [(r * a, s * b) for r, s in map(Fraction.as_integer_ratio, point.v)
                     for a, b in powers]
    rows = []
    for row in template:
        filled = ["0"] * ncols
        for column, coeff, i in row:
            a, b = flat[i]
            if a:
                a *= coeff
                if b != 1:
                    g = gcd(a, b)
                    a, b = a // g, b // g
                try:
                    filled[column] = str(a) if b == 1 else f"{a}/{b}"
                except ValueError:
                    filled[column] = _text(a) if b == 1 else f"{_text(a)}/{_text(b)}"
        rows.append(tuple(filled))
    return _JetText(rows)


def jet_matrix(scroll: DecomposableScroll, k: int, point: ScrollPoint) -> Tuple[tuple, ...]:
    """Evaluate all reduced partials of the section basis at the point, exactly: the rows of
    the point's chart template at its Fractions, in :func:`jet_columns` order."""
    _check_point(scroll, point)
    v = dict(zip(other_summands(scroll.n, point.fiber_chart), point.v))
    rows = evaluate_jet_template(scroll, k, point.base_chart, point.fiber_chart, point.u, v)
    return tuple(map(tuple, rows))


def bareiss(rows: List[list]) -> Tuple[int, int]:
    """Rank and determinant by one-step fraction-free (Bareiss) elimination.

    Entries are ints only, so every ``//`` is an exact integer quotient.
    Pivoting is deterministic: first nonzero entry in column order.  Reduces
    the rows in place; the determinant is 0 unless full rank.
    """
    if not rows:
        return 0, 1
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    prev = 1
    sign = 1
    for col in range(ncols):
        for r in range(rank, nrows):
            if rows[r][col]:
                break
        else:
            continue
        if r != rank:
            rows[rank], rows[r] = rows[r], rows[rank]
            sign = -sign
        top = rows[rank]
        pivot = top[col]
        rest = range(col + 1, ncols)
        for row in rows[rank + 1:]:
            factor = row[col]
            for c in rest:
                row[c] = (pivot * row[c] - factor * top[c]) // prev
            row[col] = 0
        prev = pivot
        rank += 1
    return rank, sign * prev if rank == nrows == ncols else 0


def exact_rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Exact rank of a rational matrix; each row is cleared of denominators first.

    Entries are ints or other exact rationals (Fractions); bools and floats
    are rejected rather than read as 1 or binary-expanded, and so are rows
    of unequal length.
    """
    cleared: List[List[int]] = []
    for row in rows:
        row = [exact_rational(x, "a matrix entry") for x in row]
        if cleared and len(row) != len(cleared[0]):
            raise ValueError(f"matrix rows differ in length: {len(cleared[0])} and {len(row)}")
        scale = lcm(*(x.denominator for x in row))
        cleared.append([x.numerator * (scale // x.denominator) for x in row])
    return bareiss(cleared)[0]


def _representative_rank(scroll: DecomposableScroll, k: int, summand: int) -> int:
    """The k-jet rank of the orbit of {summand}, at its torus-fixed point u = 0, v = 0 in chart
    ("0", summand): the number of columns filled by the template's entries of index 0, u^0 with
    no v factor, each row keeping at most one (the module's orbit argument)."""
    rows = jet_template(scroll, k, BASE_ZERO, summand).rows
    return len({column for row in rows for column, _, i in row if not i})


def full_support_rank(scroll: DecomposableScroll, k: int) -> int:
    """The generic k-jet rank: the rank of the orbit of a largest-degree summand.

    Exact, not a sample: by the module's orbit argument that orbit is the open dense one, the
    points with some w_j != 0 of the largest degree, which all have this rank.
    """
    return _representative_rank(scroll, k, scroll.degrees.index(max(scroll.degrees)) + 1)

