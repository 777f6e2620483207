"""Brute-force oracles that locate and weight inflectional loci on explicit
rational scrolls, independently of the symbolic class formulas.

Three oracles are provided:

* Wronskian counting for curves (n = 1): the Wronskian of a basis of
  sections is the curve case of the chart determinant, the coefficient
  rows times the jet matrix of the monomial curve, in both base charts;
  its vanishing orders are the inflection weights, with the weight at
  infinity read off from the second chart rather than from a degree defect.

* Determinant-divisor extraction for the square case N = kn: the k-jet
  matrix of the full section basis is square, and the inflectional locus
  is the zero divisor of its determinant.  Whether the generic rank
  reaches kn+1 is decided first, exactly, by one integer rank at the
  full-support point (the orbit argument of :mod:`scrolljets.scrollmodel`).
  Only then are the chart determinants built; each must be a monomial, and
  the divisor class L + bF is read off from the u-degrees against the
  summand degrees in every chart, and the charts must agree.

* Seeded exact-rank scans otherwise: deterministic pseudo-random rational
  sample points, getrandbits rejection draws that give Random.randint's
  stream for a nonnegative seed (plus structured points with fiber
  coordinates zeroed in all patterns and u in {0, +-1, +-2, inf}), are
  tested for jet-rank drop, each read off the rank of the orbit of its
  largest degree, one elimination per summand degree; when every orbit is
  clean no sample is drawn.  Each inflected sample carries its exact jet
  matrix as a certificate; a scan's notes never claim emptiness, but
  cross-validate's verdict does, from the orbit ranks, when none is inflected.

``cross_validate`` runs the applicable oracle, which answers ``None`` when it
certifies that the expected-codimension hypothesis of the class formula fails
(a scan: an inflected stratum T of dimension |T| above n - ell), else whether
its exact measurement equals the formula's; the report's verdict is
HYPOTHESIS-VIOLATED, MATCH or MISMATCH accordingly.  A report stores only
what its oracle measured, derives the rest (a scan's full rank, clean count,
locus and notes; a Wronskian's ``k``, ``degree``, ``degenerate``
flag, total weight and notes; an inflected sample's ``corank``; a determinant
divisor's primary-chart ``delta`` and ``factors``) and prints via ``to_dict``.

All three oracles read one sparse jet template,
:func:`scrolljets.scrollmodel.jet_template`: the scan ranks it once per
summand degree (a certificate at a rational point is text, one gcd per
nonzero entry, exact at any size, that parses back to
:func:`~scrolljets.scrollmodel.jet_matrix`, the template at the point's
Fractions), and the Wronskian and determinant oracles share one chart
determinant, so nothing here differentiates.  An orbit is ranked by the sparse
elimination :func:`scrolljets.scrollmodel._echelon`; a determinant is one dense integer
Bareiss (:func:`scrolljets.scrollmodel.bareiss`), with each variable set to 1 where the
exponent box that the section basis leaves it holds one point (every variable of a square
matrix) and packed elsewhere (Kronecker substitution), read back from its digits into an
:class:`~scrolljets.intpoly.IntPoly`.  No oracle factors one: a Wronskian's weights are its
rational roots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, islice, product, repeat
from math import factorial, gcd, prod
from operator import mul
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .chow import ChowClass
from .formulas import ScrollParams, curve_inflection_degree, inflectional_class, inflectional_degree
from .intpoly import IntPoly, rational_roots
from .scrollmodel import (
    BASE_INF,
    BASE_ZERO,
    DecomposableScroll,
    ScrollPoint,
    _admissible_order,
    _jet_text,
    _rational,
    _representative_rank,
    _text,
    bareiss,
    evaluate_jet_template,
    exact_int,
    exact_rank,
    full_support_rank,
    jet_columns,
    jet_order,
    jet_template,
    other_summands,
)

#: Fixed default seed so runs are reproducible; override per call.
DEFAULT_SEED = 1729

#: Largest structured block a scan builds.  The block has 10 n 2^(n-1)
#: points whatever the sample count, so this admits scrolls with n <= 7.
MAX_STRUCTURED_POINTS = 10_000

#: Seeded generic bases a curve is probed with when k is below its degree.
CURVE_TRIALS = 20


class GenericRankFailure(Exception):
    """The jet matrix is singular everywhere, so the generic-rank hypothesis fails: the
    full-support rank, the generic rank by the orbit argument of :mod:`scrolljets.scrollmodel`,
    is below kn+1."""


class InconsistentCharts(RuntimeError):
    """Chart determinants at full generic rank are not monomials of one class: a broken model."""


# ---------------------------------------------------------------------------
# Wronskian oracle (curves)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WronskianReport:
    """Weighted inflection count of a curve from its Wronskian; the measured fields default to a
    dependent basis's: Wronskian 0, no weights.  Derived: ``k``, ``degree`` and ``degenerate``
    from the rows and the Wronskian, the total, and notes on undefined or irrational weights."""

    coefficients: Tuple[Tuple[int, ...], ...]
    wronskian: str = "0"
    wronskian_at_infinity: str = "0"
    finite_total: int = 0
    rational_points: Tuple[Tuple[Fraction, int], ...] = ()
    infinity_weight: int = 0

    @property
    def k(self) -> int:
        return len(self.coefficients) - 1

    @property
    def degree(self) -> int:
        return max(len(row) for row in self.coefficients) - 1

    @property
    def degenerate(self) -> bool:
        return self.wronskian == "0"

    @property
    def total(self) -> int:
        return self.finite_total + self.infinity_weight

    @property
    def notes(self) -> Tuple[str, ...]:
        if self.degenerate:
            return ("basis is linearly dependent; weights are undefined",)
        irrational = self.finite_total - sum(mult for _, mult in self.rational_points)
        if not irrational:
            return ()
        return (f"{irrational} of the finite weights sit at irrational or complex points",)

    def to_dict(self) -> dict:
        return {
            "oracle": "wronskian",
            "k": self.k,
            "basis": [list(row) for row in self.coefficients],
            "degree": self.degree,
            "degenerate": self.degenerate,
            "wronskian": self.wronskian,
            "wronskian_at_infinity": self.wronskian_at_infinity,
            "finite_total": self.finite_total,
            "rational_points": [
                {"u": _text(root), "weight": mult} for root, mult in self.rational_points
            ],
            "infinity_weight": self.infinity_weight,
            "total": self.total,
            "notes": list(self.notes),
        }


def _basis_rows(curve) -> Tuple[Tuple[int, ...], ...]:
    if isinstance(curve, DecomposableScroll):
        if curve.n != 1:
            raise ValueError("the Wronskian oracle applies to curves (n = 1) only")
        d = curve.d
        return tuple(tuple(1 if i == m else 0 for i in range(d + 1)) for m in range(d + 1))
    rows = []
    for row in curve:
        trimmed = [exact_int(c, "a basis coefficient") for c in row]
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        if not trimmed:
            raise ValueError("a basis polynomial is identically zero")
        rows.append(tuple(trimmed))
    return tuple(rows)


def wronskian_weights(curve, k: int) -> WronskianReport:
    """Inflection weights of a rational curve from both-chart Wronskians.

    ``curve`` is either a one-dimensional :class:`DecomposableScroll`
    (whose full monomial basis is used; then k must equal its degree) or an
    explicit list of k+1 integer coefficient rows, constant term first.
    A linearly dependent basis is reported as degenerate, not as a weight.
    """
    k = jet_order(k)
    rows = _basis_rows(curve)
    if isinstance(curve, DecomposableScroll) and k != curve.d:
        raise ValueError(
            "the scroll form uses the full monomial basis, so k must equal its "
            f"degree {curve.d}; pass an explicit basis of k+1 polynomials instead"
        )
    if len(rows) != k + 1:
        raise ValueError(f"need exactly k+1 = {k + 1} basis polynomials, got {len(rows)}")
    degree = max(len(row) - 1 for row in rows)
    if k > degree:
        raise ValueError(f"jet order {k} exceeds the basis degree {degree}")

    # coefficient m of a basis polynomial multiplies section m of the monomial curve
    monomial_curve = DecomposableScroll((degree,))
    basis = None if isinstance(curve, DecomposableScroll) else rows
    wronskian = _chart_determinant(monomial_curve, k, BASE_ZERO, 1, basis)
    if not wronskian:
        return WronskianReport(rows)
    wronskian_inf = _chart_determinant(monomial_curve, k, BASE_INF, 1, basis)

    finite_total = wronskian.degree()
    terms = dict(wronskian.terms)
    rational_points = rational_roots([terms.get((e,), 0) for e in range(finite_total + 1)])

    infinity_weight = min(m[0] for m in wronskian_inf.monoms())
    return WronskianReport(
        coefficients=rows,
        wronskian=str(wronskian),
        wronskian_at_infinity=str(wronskian_inf),
        finite_total=finite_total,
        rational_points=rational_points,
        infinity_weight=infinity_weight,
    )


# ---------------------------------------------------------------------------
# Determinant divisor (square case N = kn)
# ---------------------------------------------------------------------------


class DeterminantDivisor(NamedTuple):
    """Determinant of the square jet matrix and its extracted divisor class.

    ``charts`` holds the determinant in every chart, an
    :class:`~scrolljets.intpoly.IntPoly` in u and the chart's v_j, and
    ``divisor_class`` the class L + bF as a :class:`~scrolljets.chow.ChowClass`,
    printed like ``L - 2*F``.  Derived: ``delta``, the determinant in the primary
    chart ("0", 1), and ``factors``, its irreducible factors with multiplicities,
    read off its one monomial (:func:`_monomial_factors`).
    """

    charts: Dict[Tuple[str, int], IntPoly]
    divisor_class: ChowClass

    @property
    def delta(self) -> IntPoly:
        return self.charts[(BASE_ZERO, 1)]

    @property
    def factors(self) -> Tuple[Tuple[str, int], ...]:
        return _monomial_factors(self.delta)

    def to_dict(self) -> dict:
        return {
            "oracle": "determinant-divisor",
            "determinant": str(self.delta),
            "divisor_class": str(self.divisor_class),
            "factors": [{"factor": f, "multiplicity": m} for f, m in self.factors],
            "charts": {f"{base},{iota}": str(chart) for (base, iota), chart in self.charts.items()},
        }


def _chart_determinant(
    scroll: DecomposableScroll, k: int, base_chart: str, fiber_chart: int, rows=None
) -> IntPoly:
    """Determinant of the jet matrix M of a chart, in ZZ[u, v_j (j != chart)], or with integer
    coefficient ``rows`` over the section basis det(rows x M), a Wronskian on a curve.

    Each entry of a column of u-order h_c is h_c! times a binomial, so one integer Bareiss runs
    on M' = M diag(1 / h_c!), scaled back.  A row of section v_j u^e carries u^e v_j and a
    column u^-h_c, and v_j^-1 on the k mixed columns of j, so by Cauchy-Binet a term comes from
    kn+1 sections: its u-exponent lies between the sums of the kn+1 smallest and largest
    section exponents, less sum h_c, and its v_j-exponent between c_j - (N - kn) - k and
    min(c_j, kn+1) - k, for c_j the sections of j, and no box starts below 0.  A variable whose
    box holds one exponent, as each does when M is square, is set to 1 and given it; the others
    are packed at X^w over 0..top (Kronecker substitution), X = 2B + 1 for B the product of the
    rows' l1 norms, and read back as balanced base-X digits.  A nonzero determinant with a
    negative top exponent is an inconsistent model.
    """
    others = other_summands(scroll.n, fiber_chart)
    template = jet_template(scroll, k, base_chart, fiber_chart).rows
    orders = [column[1] for column in jet_columns(scroll.n, k, fiber_chart)]
    divisors = [factorial(h) for h in orders]
    size, spare = len(orders), len(template) - len(orders)  # kn+1 sections, N - kn left out
    exponents = sorted(row[0].u_exponent for row in template)  # a row's first entry: its section
    boxes = [(sum(exponents[:size]) - sum(orders), sum(exponents[spare:]) - sum(orders)),
             *((a + 1 - spare - k, min(a + 1, size) - k) for a in map(scroll.degree_of, others))]
    ranges = [range(top + 1) if top > max(low, 0) else range(top, top + 1) for low, top in boxes]
    # a column's sections are distinct monomials, so l1 norms add along a row of rows x M'
    norms = [sum(entry.coeff // divisors[entry.column] for entry in row) for row in template]
    if rows is not None:
        norms = [sum(abs(c) * norm for c, norm in zip(row, norms)) for row in rows]
    radix, weight, values = 2 * prod(norms) + 1, 1, []
    for box in ranges:  # a packed variable is X^weight, a fixed one 1
        values.append(radix**weight if len(box) > 1 else 1)
        weight *= len(box)
    v = dict(zip(others, values[1:]))
    matrix = evaluate_jet_template(scroll, k, base_chart, fiber_chart, values[0], v)
    matrix = [[x // f for x, f in zip(row, divisors)] for row in matrix]
    if rows is not None:
        matrix = [[sum(map(mul, row, column)) for column in zip(*matrix)] for row in rows]
    det, tops = bareiss(matrix)[1], tuple(box[-1] for box in ranges)
    if det and min(tops) < 0:
        raise InconsistentCharts(f"chart determinant has a negative exponent: {tops}")
    terms, scale = {}, prod(divisors)
    for monom in product(*ranges[::-1]):  # u's digit is the least significant
        det, digit = divmod(det + radix // 2, radix)
        terms[monom[::-1]] = (digit - radix // 2) * scale  # IntPoly drops the zero digits
    return IntPoly(("u", *(f"v{j}" for j in others)), terms)


def _section_twist(scroll: DecomposableScroll, fiber_chart: int, monomial: IntPoly) -> int:
    """The b with a monomial determinant a section of L + bF.

    c*u^e is a section of L + bF for b = e - a_iota, and c*u^e*v_j for
    b = e - a_j.  Anything nonlinear in the fiber coordinates cannot come
    from a hyperplane-linear divisor.
    """
    [(e_u, *fiber)] = monomial.monoms()
    if sum(fiber) > 1:
        raise InconsistentCharts(
            "determinant is not affine-linear in the fiber coordinates; "
            "cannot extract a divisor class"
        )
    others = other_summands(scroll.n, fiber_chart)
    (carried,) = [j for j, exp in zip(others, fiber) if exp] or [fiber_chart]
    return e_u - scroll.degree_of(carried)


def _monomial_factors(monomial: IntPoly) -> Tuple[Tuple[str, int], ...]:
    """A monomial's variables and exponents: fiber variables by exponent, then index, then u."""
    [exponents] = monomial.monoms()
    u, *fibers = zip(monomial.names, exponents)
    return tuple(power for power in sorted(fibers, key=lambda power: power[1]) + [u] if power[1])


def determinant_divisor(scroll: DecomposableScroll, k: int) -> DeterminantDivisor:
    """Zero divisor of the determinant of the square k-jet matrix.

    Requires N = kn so the matrix is square.  The determinant vanishes
    identically iff the generic rank is below kn+1, which one rank at the
    full-support point decides without building it (the orbit argument of
    :mod:`scrolljets.scrollmodel`).  Each chart determinant is then a
    monomial by construction, as every exponent box of a square matrix is
    one point (:func:`_chart_determinant`), not by observation; the checks
    below still guard a broken model.  Raises
    :class:`GenericRankFailure` when that rank is short, and
    :class:`InconsistentCharts` when a chart determinant built after it
    vanishes identically, has a negative exponent, is not a monomial or is
    not affine-linear in the fiber coordinates, or when the per-chart class
    extractions disagree.
    """
    k = jet_order(k)
    if scroll.N != k * scroll.n:
        raise ValueError(
            f"determinant oracle needs N = kn; scroll {scroll} has N={scroll.N}, "
            f"kn={k * scroll.n}"
        )
    if full_support_rank(scroll, k) < k * scroll.n + 1:
        raise GenericRankFailure(
            f"jet matrix of {scroll} at order {k} is singular everywhere: "
            "the generic-rank hypothesis fails"
        )
    keys = [(base, iota) for base in (BASE_ZERO, BASE_INF) for iota in range(1, scroll.n + 1)]
    charts = {key: _chart_determinant(scroll, k, *key) for key in keys}
    if not all(charts.values()):
        raise InconsistentCharts(
            "determinant vanishes in some charts but not all; inconsistent model"
        )
    if any(len(delta.terms) != 1 for delta in charts.values()):
        raise InconsistentCharts("determinant is not a monomial in some chart; inconsistent model")

    twists = {key: _section_twist(scroll, key[1], delta) for key, delta in charts.items()}
    distinct = set(twists.values())
    if len(distinct) != 1:
        raise InconsistentCharts(f"chart extractions of the divisor twist disagree: {twists}")
    b = distinct.pop()

    return DeterminantDivisor(charts, ChowClass(scroll.n, [(1, 1, b)]))


# ---------------------------------------------------------------------------
# Rank scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InflectedSample:
    """A certified inflected point: exact point, rank and the text of its jet matrix's entries."""

    point: ScrollPoint
    rank: int
    rows: Tuple[Tuple[str, ...], ...]

    @property
    def corank(self) -> int:
        return len(self.rows[0]) - self.rank

    @property
    def matrix(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """The exact jet matrix, parsed from ``rows``."""
        return tuple(tuple(map(_rational, row)) for row in self.rows)

    def to_dict(self) -> dict:
        return {
            "point": {
                "base_chart": self.point.base_chart,
                "u": str(self.point.u),
                "fiber_chart": self.point.fiber_chart,
                "v": [str(x) for x in self.point.v],
            },
            "rank": self.rank,
            "corank": self.corank,
            "jet_matrix": self.rows,
        }


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a deterministic exact-rank scan.  ``orbit_ranks`` maps each summand degree,
    ascending, to the rank of its orbit, the supports T whose largest degree it is (samples are
    drawn only if an orbit is inflected, else counted); it is left out of ``to_dict``, equality
    and hashing.  ``locus`` and ``notes`` derive from it and the samples: how many samples are
    inflected, and each w_j = 0 holding every inflected sample, as j is not in the locus."""

    scroll: DecomposableScroll
    k: int
    seed: int
    samples_requested: int
    points_examined: int
    inflected: Tuple[InflectedSample, ...]
    orbit_ranks: Dict[int, int] = field(compare=False)

    @property
    def full_rank(self) -> int:
        return self.k * self.scroll.n + 1

    @property
    def clean_count(self) -> int:
        return self.points_examined - len(self.inflected)

    @property
    def locus(self) -> Tuple[int, ...]:
        """The support {j : a_j <= b} of the largest inflected stratum, for b the largest degree
        of rank below kn+1, so every inflected support lies in it; () if there is none."""
        b = max((a for a, rank in self.orbit_ranks.items() if rank < self.full_rank), default=0)
        return tuple(j for j, a in enumerate(self.scroll.degrees, 1) if a <= b)

    @property
    def notes(self) -> Tuple[str, ...]:
        if not self.inflected:
            return ("no inflected sample found (sampling cannot certify emptiness)",)
        on = set(self.locus)  # the j with w_j != 0 somewhere on the locus
        return (f"{len(self.inflected)} inflected samples among {self.points_examined} points; "
                "each carries its exact jet matrix as certificate",
                *(f"every inflected sample lies on the section w{j} = 0"
                  for j in range(1, self.scroll.n + 1) if j not in on))

    def to_dict(self) -> dict:
        return {
            "oracle": "rank-scan",
            "scroll": list(self.scroll.degrees),
            "k": self.k,
            "seed": self.seed,
            "samples_requested": self.samples_requested,
            "points_examined": self.points_examined,
            "full_rank": self.full_rank,
            "inflected_count": len(self.inflected),
            "clean_count": self.clean_count,
            "inflected": [sample.to_dict() for sample in self.inflected],
            "notes": list(self.notes),
        }


#: (numerator bound, denominator bound) of the sampled u and of the sampled v_j.
_WIDE, _NARROW = (24, 8), (9, 4)

#: The int code of every (numerator, denominator) a sample can draw, one per
#: value and 0 for zero, so points dedupe on ints, not Fractions; _VALUES
#: holds each code's canonical Fraction.
_CODES = {(0, 1): 0}
_RATIONALS = {(a, b): _CODES.setdefault((a // gcd(a, b), b // gcd(a, b)), len(_CODES))
              for a in range(-_WIDE[0], _WIDE[0] + 1) for b in range(1, _WIDE[1] + 1)}
_VALUES = tuple(Fraction(*pair) for pair in _CODES)

#: Per bound pair (top, den): how many values randint(-top, top) and randint(1, den) take,
#: and the code of each pair of draws i, j (from 0) at i * den + j.
_WIDE_DRAW, _NARROW_DRAW = (
    (2 * top + 1, den, [_RATIONALS[a, b] for a in range(-top, top + 1) for b in range(1, den + 1)])
    for top, den in (_WIDE, _NARROW))

#: How many distinct values u and each v_j can take, 251 and 51, and the structured block's u.
_U_VALUES, _V_VALUES = (len(set(draw[2])) for draw in (_WIDE_DRAW, _NARROW_DRAW))
_STRUCTURED_U = tuple(_RATIONALS[x, 1] for x in (0, 1, -1, 2, -2))


def _below(bits, m: int) -> Iterator[int]:
    """Endless draws from range(m), each by Random.randint's and Random.choice's rule
    (_randbelow_with_getrandbits): m.bit_length() bits of ``bits``, redrawn while >= m."""
    k = m.bit_length()
    while True:
        r = bits(k)
        if r < m:
            yield r


def _codes(bits, draw, nonzero: bool = False) -> Iterator[int]:
    """Endless codes of random rationals, each drawn as randint(-top, top), randint(1, den);
    with ``nonzero`` a draw of zero is drawn again."""
    tops, dens, table = draw
    numerators, denominators = _below(bits, tops), _below(bits, dens)
    for a in numerators:
        code = table[a * dens + next(denominators)]
        if code or not nonzero:
            yield code


def scan_points(
    scroll: DecomposableScroll, samples: int, seed: int
) -> List[ScrollPoint]:
    """Deterministic sample of chart points, structured ones first.

    The structured block runs over both base charts, every fiber chart,
    u in {0, 1, -1, 2, -2} (so u = inf is covered via the second base
    chart) and every pattern of zeroed fiber coordinates.  The remainder
    alternates fully random points with random points forced onto a random
    zero pattern, so low-dimensional strata keep getting sampled.  Points
    come in first-draw order, without duplicates and never fewer than the
    structured block, so for one seed more samples only append points.
    More samples than the distinct points these draws can make raise at once.
    """
    return [_point(*key) for key in _draws(scroll, samples, seed)]


def _sample_count(scroll: DecomposableScroll, samples: int) -> int:
    """How many keys :func:`_draws` returns, max(samples, the 2n * 5 * 2^(n-1) structured points);
    a block above MAX_STRUCTURED_POINTS, or more samples than the draws can make, raises at once."""
    n = scroll.n
    structured = 2 * n * len(_STRUCTURED_U) * 2 ** (n - 1)
    if structured > MAX_STRUCTURED_POINTS:
        raise ValueError(f"scroll {scroll} has {n} summands: its structured scan block of "
                         f"{structured} points exceeds the limit of {MAX_STRUCTURED_POINTS}")
    if samples > 2 * n * _U_VALUES * _V_VALUES ** (n - 1):
        raise ValueError(f"could not sample {samples} distinct points on {scroll}")
    return max(samples, structured)


def _draws(scroll: DecomposableScroll, samples: int, seed: int) -> List[tuple]:
    """The :func:`_sample_count` distinct draws of :func:`scan_points`, in its order, as int-code
    keys: getrandbits rejection draws (:func:`_below`), advanced lazily in the order of the randint
    and choice calls they stand for, so they are randint's stream for the nonnegative seed."""
    samples = exact_int(samples, "the number of samples", 1)
    bits = random.Random(exact_int(seed, "the seed", 0)).getrandbits
    n = scroll.n
    _sample_count(scroll, samples)
    charts, fibers, wide = _below(bits, 2), _below(bits, n), _codes(bits, _WIDE_DRAW)
    narrow, nonzero, zero = _codes(bits, _NARROW_DRAW), _codes(bits, _NARROW_DRAW, True), repeat(0)
    # per zero pattern, the iterator each fiber coordinate reads: zero on a bit, else nonzero
    patterns = [[zero if pattern >> slot & 1 else nonzero for slot in range(n - 1)]
                for pattern in range(2 ** (n - 1))]
    points: Dict[Tuple[str, int, int, Tuple[int, ...]], None] = {}  # int codes, in draw order
    for base_chart in (BASE_ZERO, BASE_INF):
        for fiber_chart in range(1, n + 1):
            for u in _STRUCTURED_U:
                for pattern in patterns:
                    points[base_chart, u, fiber_chart, tuple(map(next, pattern))] = None

    attempts, nonempty = 0, _below(bits, 2 ** (n - 1) - 1)  # advanced only when n > 1
    while len(points) < samples:
        attempts += 1
        if attempts > 100 * samples:
            raise ValueError(f"could not sample {samples} distinct points on {scroll}")
        base_chart = (BASE_ZERO, BASE_INF)[next(charts)]
        fiber_chart, u = 1 + next(fibers), next(wide)
        if attempts % 2 == 0 and n > 1:  # a random nonempty zero pattern
            v = tuple(map(next, patterns[1 + next(nonempty)]))
        else:
            v = tuple(islice(narrow, n - 1))
        points[base_chart, u, fiber_chart, v] = None
    return list(points)


def _point(base_chart: str, u: int, fiber_chart: int, v: Tuple[int, ...]) -> ScrollPoint:
    """The point of a draw key (base_chart, u, fiber_chart, v) of int codes."""
    return ScrollPoint._make(base_chart, _VALUES[u], fiber_chart, tuple(_VALUES[c] for c in v))


def rank_scan(
    scroll: DecomposableScroll,
    k: Optional[int] = None,
    samples: int = 200,
    seed: int = DEFAULT_SEED,
) -> ScanReport:
    """Probe the k-th inflectional locus by exact ranks at sampled points.

    The scan counts the points of :func:`scan_points` (:func:`_sample_count`, which raises for
    too large a scroll or too many samples before any rank), then ranks one support {i} per
    distinct summand degree into ``orbit_ranks``: by the orbit argument of
    :mod:`scrolljets.scrollmodel` a support T has the rank of its largest degree.  When every
    orbit is clean no sample is drawn, as none can be inflected, so only the capacity check, not
    a slow random stream, can raise "could not sample" for it.  Otherwise each drawn sample reads
    the rank of the largest degree that its int codes keep, and only an inflected sample is built
    as a point, reported with the text of its exact jet matrix there as a certificate.
    """
    k = _admissible_order(scroll, k)
    samples = exact_int(samples, "the number of samples", 1)
    seed = exact_int(seed, "the seed", 0)
    full_rank, count = k * scroll.n + 1, _sample_count(scroll, samples)
    degrees = scroll.degrees
    ranks = {a: _representative_rank(scroll, k, (degrees.index(a) + 1,))
             for a in sorted(set(degrees))}
    # per fiber chart i, the degrees of its v_j, then a_i: read against v + (1,), code 0 is zero
    chart_degrees = {i: (*(degrees[j - 1] for j in other_summands(scroll.n, i)), degrees[i - 1])
                     for i in range(1, scroll.n + 1)}
    inflected: List[InflectedSample] = []
    for key in _draws(scroll, samples, seed) if min(ranks.values()) < full_rank else ():
        rank = ranks[max(compress(chart_degrees[key[2]], key[3] + (1,)))]
        if rank < full_rank:
            point = _point(*key)
            rows = _jet_text(scroll, k, point)
            inflected.append(InflectedSample(point, rank, rows))
    return ScanReport(scroll, k, seed, samples, count, tuple(inflected), ranks)


# ---------------------------------------------------------------------------
# Cross-validation of oracle against formulas
# ---------------------------------------------------------------------------

MATCH = "MATCH"
MISMATCH = "MISMATCH"
HYPOTHESIS_VIOLATED = "HYPOTHESIS-VIOLATED"


@dataclass(frozen=True)
class CrossValidationReport:
    scroll: DecomposableScroll
    k: int
    ell: int
    oracle: str
    verdict: str
    formula_class: Optional[str]
    formula_degree: str
    oracle_summary: dict
    notes: Tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "scroll": list(self.scroll.degrees),
            "n": self.scroll.n,
            "d": self.scroll.d,
            "ambient": self.scroll.N,
            "genus": 0,
            "k": self.k,
            "ell": self.ell,
            "oracle": self.oracle,
            "verdict": self.verdict,
            "formula_class": self.formula_class,
            "formula_degree": self.formula_degree,
            "oracle_result": self.oracle_summary,
            "notes": list(self.notes),
        }


def _curve_oracle(scroll: DecomposableScroll, k: int, seed: int, expected):
    """Wronskian totals of a curve against the formula count ``expected``."""
    d = scroll.d
    if k == scroll.N:
        reports = [wronskian_weights(scroll, k)]
        summary = reports[0].to_dict()
        notes = ["full monomial basis used"]
    else:
        # the curve carries more sections than the jet order needs, so probe
        # generic (k+1)-dimensional subsystems with seeded bases
        rng = random.Random(seed)
        reports = [
            wronskian_weights(_random_spanning_basis(rng, d, k), k) for _ in range(CURVE_TRIALS)
        ]
        summary = {**reports[0].to_dict(), "trials": CURVE_TRIALS}
        notes = [f"{CURVE_TRIALS} seeded generic bases of k+1 sections of the degree-{d} system"]
    totals = {report.total for report in reports}
    notes.append(f"oracle totals {sorted(totals)} vs formula {expected}")
    return "wronskian", totals == {expected}, summary, notes


def _random_spanning_basis(rng: random.Random, d: int, k: int) -> List[List[int]]:
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(d + 1)] for _ in range(k + 1)]
        if all(any(row) for row in rows) and any(row[d] for row in rows):
            if exact_rank(rows) == k + 1:
                return rows


def _square_oracle(scroll: DecomposableScroll, k: int, formula_cls: ChowClass):
    """The determinant divisor's class against the formula class (N = kn)."""
    try:
        result = determinant_divisor(scroll, k)
    except GenericRankFailure as failure:
        return ("determinant-divisor", None, {"error": str(failure)},
                ["determinant vanishes identically: generic jet rank is below kn+1"])
    return ("determinant-divisor", result.divisor_class == formula_cls, result.to_dict(),
            [f"divisor class extracted in {2 * scroll.n} charts, all agreeing"])


def _scan_oracle(scroll: DecomposableScroll, k: int, samples: int, seed: int, ell: int, expected,
                 formula_cls: ChowClass):
    """A scan's orbit ranks against the formulas (N > kn); its samples are only printed.
    The locus is the union of the X_T over the inflected strata T, the largest X_T: of dimension
    |T|, empty if there is none, else of class prod (L - a_j F) over j not in T."""
    scan = rank_scan(scroll, k, samples=samples, seed=seed)
    top = scan.locus
    summary = scan.to_dict()
    summary["inflected"] = summary["inflected"][:10]  # keep the summary bounded
    notes = list(summary["notes"])
    agrees = None
    if len(top) == scroll.n:  # the full-support stratum
        rank = scan.orbit_ranks[max(scroll.degrees)]
        notes.append(f"generic jet rank {rank} is below kn+1 = {scan.full_rank} "
                     "(exact, at the full-support point): the whole scroll is inflected")
    elif len(top) > scroll.n - ell:
        notes.append(f"the inflected stratum of support {top} has dimension {len(top)} > "
                     f"n - ell = {scroll.n - ell}: the locus has the wrong dimension")
    elif not top:
        agrees = expected == 0
        notes.append("clean scan is consistent with an empty locus")
    else:
        locus = prod((ChowClass(scroll.n, [(1, 1, -a)]) for j, a in enumerate(scroll.degrees, 1)
                      if j not in top), start=ChowClass.unit(scroll.n))
        agrees = locus == formula_cls
        notes.append("certified points are consistent with the expected locus" if agrees
                     else f"the inflected stratum of support {top} has class {locus}")
    return "rank-scan", agrees, summary, notes


def cross_validate(
    scroll: DecomposableScroll,
    k: Optional[int] = None,
    samples: int = 200,
    seed: int = DEFAULT_SEED,
) -> CrossValidationReport:
    """Run the applicable oracle and compare with the closed formulas.

    The verdict is built here alone, from the oracle's answer: whether its
    exact measurement equals the formula's, or None for a failed hypothesis.
    The jet order defaults to the largest k with kn <= N.  An explicit
    lower order is allowed for curves only, where it means probing
    :data:`CURVE_TRIALS` generic subsystems of sections.
    """
    samples = exact_int(samples, "the number of samples", 1)
    seed = exact_int(seed, "the seed", 0)
    derived, k = _admissible_order(scroll), _admissible_order(scroll, k)
    if scroll.n == 1:
        ell, formula_cls = 1, None
        formula_deg = curve_inflection_degree(scroll.d, 0, k)
        oracle, agrees, summary, notes = _curve_oracle(scroll, k, seed, formula_deg)
    elif k != derived:
        raise ValueError(f"for n >= 2 the jet order is pinned to floor(N/n) = {derived}")
    else:
        params = ScrollParams(n=scroll.n, ambient=scroll.N, d=scroll.d, g=0)
        ell = params.ell
        formula_cls = inflectional_class(params)
        formula_deg = inflectional_degree(params)
        if scroll.N == k * scroll.n:
            oracle, agrees, summary, notes = _square_oracle(scroll, k, formula_cls)
        else:
            oracle, agrees, summary, notes = _scan_oracle(scroll, k, samples, seed, ell,
                                                          formula_deg, formula_cls)
    return CrossValidationReport(
        scroll=scroll,
        k=k,
        ell=ell,
        oracle=oracle,
        verdict=HYPOTHESIS_VIOLATED if agrees is None else MATCH if agrees else MISMATCH,
        formula_class=None if formula_cls is None else str(formula_cls),
        formula_degree=str(formula_deg),
        oracle_summary=summary,
        notes=tuple(notes),
    )
