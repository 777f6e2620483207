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
  reaches kn+1 is decided first, exactly, by the integer rank at the
  full-support point u = 0, v_j = 1 of every chart: GL_2 x (C*)^n acts on
  the scroll preserving its sections, and the points with every fiber
  coordinate nonzero form one open orbit.  Only then are the chart
  determinants built; the divisor class L + bF is read off from the
  u-degrees of their coefficients against the summand degrees, in every
  chart, and the charts must agree.

* Seeded exact-rank scans otherwise: deterministic pseudo-random rational
  sample points (plus structured points with fiber coordinates zeroed in
  all patterns and u in {0, +-1, +-2, inf}) are tested for jet-rank drop.
  Each inflected sample carries its exact jet matrix as a certificate;
  a scan never claims emptiness, only "no inflected sample found".

``cross_validate`` picks the applicable oracle for a scroll, compares it
with the closed formulas and builds one report with MATCH, MISMATCH or
HYPOTHESIS-VIOLATED (the latter when the oracle certifies a locus of the
wrong dimension, so the expected-codimension hypothesis behind the class
formula fails).  A report stores only what its oracle measured, derives the
rest (full rank, clean count, total weight) and prints through ``to_dict``.

All three oracles read one jet template,
:func:`scrolljets.scrollmodel.jet_template`: the scan ranks it at the
integer numerators of each point (and evaluates it at the rational point
only for a certificate), and the Wronskian and determinant oracles share
one chart determinant over ZZ[u, v_j], so nothing here differentiates.
One fraction-free elimination, :func:`scrolljets.scrollmodel.bareiss`, gives
every rank and determinant; sympy supplies only the polynomial rings and
factorization, and ring elements print themselves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from sympy import ZZ, ring
from sympy.polys.rings import PolyElement

from .chow import ChowClass
from .formulas import ScrollParams, curve_inflection_degree, inflectional_class, inflectional_degree
from .scrollmodel import (
    BASE_INF,
    BASE_ZERO,
    DecomposableScroll,
    ScrollPoint,
    bareiss,
    evaluate_jet_template,
    exact_int,
    exact_rank,
    fiber_coordinate,
    full_support_rank,
    jet_matrix,
    jet_order,
    other_summands,
    point_rank,
)

#: Fixed default seed so runs are reproducible; override per call.
DEFAULT_SEED = 1729

#: Largest structured block a scan builds.  The block has 10 n 2^(n-1)
#: points whatever the sample count, so this admits scrolls with n <= 7.
MAX_STRUCTURED_POINTS = 10_000

#: Seeded generic bases a curve is probed with when k is below its degree.
CURVE_TRIALS = 20


class GenericRankFailure(Exception):
    """The jet matrix is singular everywhere: the generic-rank hypothesis fails.

    Decided by the full-support rank, which is the generic rank: the points
    with every fiber coordinate nonzero form one open orbit of GL_2 x (C*)^n.
    """


class InconsistentCharts(RuntimeError):
    """The chart determinants disagree on vanishing identically: the model is broken."""


_INCONSISTENT = "determinant vanishes in some charts but not all; inconsistent model"


# ---------------------------------------------------------------------------
# Wronskian oracle (curves)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WronskianReport:
    """Weighted inflection count of a curve from its Wronskian; the measured
    fields default to those of a degenerate basis, which has no weights."""

    k: int
    coefficients: Tuple[Tuple[int, ...], ...]
    degree: int
    degenerate: bool
    wronskian: str = "0"
    wronskian_at_infinity: str = "0"
    finite_total: int = 0
    rational_points: Tuple[Tuple[Fraction, int], ...] = ()
    infinity_weight: int = 0
    notes: Tuple[str, ...] = ()

    @property
    def total(self) -> int:
        return self.finite_total + self.infinity_weight

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
                {"u": str(root), "weight": mult} for root, mult in self.rational_points
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
    wronskian = _chart_determinant(monomial_curve, k, BASE_ZERO, 1, rows)
    if not wronskian:
        note = "basis is linearly dependent; weights are undefined"
        return WronskianReport(k, rows, degree, degenerate=True, notes=(note,))
    wronskian_inf = _chart_determinant(monomial_curve, k, BASE_INF, 1, rows)

    finite_total = wronskian.degree()
    rational_points = []
    for factor, mult in wronskian.factor_list()[1]:
        if factor.degree() == 1:
            rational_points.append((-Fraction(int(factor.coeff(1)), int(factor.LC)), mult))
    rational_points.sort(key=lambda item: item[0])

    infinity_weight = min(m[0] for m in wronskian_inf.monoms())

    notes = []
    irrational = finite_total - sum(mult for _, mult in rational_points)
    if irrational:
        notes.append(
            f"{irrational} of the finite weights sit at irrational or complex points"
        )
    return WronskianReport(
        k=k,
        coefficients=rows,
        degree=degree,
        degenerate=False,
        wronskian=str(wronskian),
        wronskian_at_infinity=str(wronskian_inf),
        finite_total=finite_total,
        rational_points=tuple(rational_points),
        infinity_weight=infinity_weight,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Determinant divisor (square case N = kn)
# ---------------------------------------------------------------------------


class DeterminantDivisor(NamedTuple):
    """Determinant of the square jet matrix and its extracted divisor class.

    ``delta`` is the determinant in the primary chart (base "0", fiber
    chart 1), an element of the ring ZZ[u, v_2, ..., v_n];
    ``divisor_class`` the codimension-1 class L + bF as a
    :class:`~scrolljets.chow.ChowClass` on the scroll, printed like
    ``L - 2*F``; ``factors`` the irreducible factorization of ``delta`` over
    the rationals with multiplicities; ``charts`` the printed determinant in
    every chart.
    """

    delta: PolyElement
    divisor_class: ChowClass
    factors: Tuple[Tuple[str, int], ...]
    charts: Dict[Tuple[str, int], str]

    def to_dict(self) -> dict:
        return {
            "oracle": "determinant-divisor",
            "determinant": self.charts[(BASE_ZERO, 1)],
            "divisor_class": str(self.divisor_class),
            "factors": [{"factor": f, "multiplicity": m} for f, m in self.factors],
            "charts": {f"{base},{iota}": text for (base, iota), text in self.charts.items()},
        }


def _chart_determinant(
    scroll: DecomposableScroll, k: int, base_chart: str, fiber_chart: int, rows=None
):
    """Determinant of the jet matrix of a chart, in ZZ[u, v_j (j != chart)].

    Without ``rows`` the jet matrix must be square (N = kn).  With ``rows``,
    a list of integer coefficient rows over the section basis, it is the
    determinant of rows x jet matrix: the Wronskian of those combinations
    of sections when the scroll is a curve.
    """
    others = other_summands(scroll.n, fiber_chart)
    R, u, *vs = ring(["u"] + [f"v{j}" for j in others], ZZ)
    matrix = evaluate_jet_template(scroll, k, base_chart, fiber_chart, u, dict(zip(others, vs)))
    if rows is not None:
        matrix = [
            [sum((c * jet for c, jet in zip(row, column)), R.zero) for column in zip(*matrix)]
            for row in rows
        ]
    return bareiss([list(row) for row in matrix])[1]


def _section_twist(scroll: DecomposableScroll, fiber_chart: int, delta) -> int:
    """The b with delta a section of L + bF, from the monomials of delta.

    A v-free monomial c*u^e needs e <= b + a_iota; a monomial c*u^e*v_j
    needs e <= b + a_j.  The smallest admissible b is therefore the max of
    e - a_iota resp. e - a_j over the monomials.  Anything nonlinear in the
    fiber coordinates cannot come from a hyperplane-linear divisor.
    """
    others = other_summands(scroll.n, fiber_chart)
    candidates = []
    for monom in delta.monoms():
        e_u = monom[0]
        carried = [j for j, exp in zip(others, monom[1:]) if exp]
        if any(exp > 1 for exp in monom[1:]) or len(carried) > 1:
            raise ValueError(
                "determinant is not affine-linear in the fiber coordinates; "
                "cannot extract a divisor class"
            )
        if carried:
            candidates.append(e_u - scroll.degree_of(carried[0]))
        else:
            candidates.append(e_u - scroll.degree_of(fiber_chart))
    return max(candidates)


def determinant_divisor(scroll: DecomposableScroll, k: int) -> DeterminantDivisor:
    """Zero divisor of the determinant of the square k-jet matrix.

    Requires N = kn so the matrix is square.  The determinant vanishes
    identically iff the generic rank is below kn+1, which the rank at each
    chart's full-support point decides without building it
    (:func:`scrolljets.scrollmodel.full_support_rank`; the points with every
    fiber coordinate nonzero form one open orbit of GL_2 x (C*)^n).  Raises
    :class:`GenericRankFailure` when that rank is short in every chart,
    :class:`InconsistentCharts` when it is short in some charts only or a
    determinant built after it vanishes identically, and ValueError when
    the per-chart class extractions disagree.
    """
    k = jet_order(k)
    if scroll.N != k * scroll.n:
        raise ValueError(
            f"determinant oracle needs N = kn; scroll {scroll} has N={scroll.N}, "
            f"kn={k * scroll.n}"
        )
    keys = [(base, iota) for base in (BASE_ZERO, BASE_INF) for iota in range(1, scroll.n + 1)]
    singular = [key for key in keys if full_support_rank(scroll, k, *key) < k * scroll.n + 1]
    if singular:
        if len(singular) != len(keys):
            raise InconsistentCharts(_INCONSISTENT)
        raise GenericRankFailure(
            f"jet matrix of {scroll} at order {k} is singular everywhere: "
            "the generic-rank hypothesis fails"
        )
    charts = {key: _chart_determinant(scroll, k, *key) for key in keys}
    if not all(charts.values()):
        raise InconsistentCharts(_INCONSISTENT)

    twists = {key: _section_twist(scroll, key[1], delta) for key, delta in charts.items()}
    distinct = set(twists.values())
    if len(distinct) != 1:
        raise ValueError(f"chart extractions of the divisor twist disagree: {twists}")
    b = distinct.pop()

    delta = charts[(BASE_ZERO, 1)]
    return DeterminantDivisor(
        delta=delta,
        divisor_class=ChowClass(scroll.n, [(1, 1, b)]),
        factors=tuple((str(factor), mult) for factor, mult in delta.factor_list()[1]),
        charts={key: str(chart) for key, chart in charts.items()},
    )


# ---------------------------------------------------------------------------
# Rank scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InflectedSample:
    """A certified inflected point: exact point, rank and the jet matrix."""

    point: ScrollPoint
    rank: int
    corank: int
    matrix: Tuple[Tuple[Fraction, ...], ...]

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
            "jet_matrix": [[str(x) for x in row] for row in self.matrix],
        }


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a deterministic exact-rank scan."""

    scroll: DecomposableScroll
    k: int
    seed: int
    samples_requested: int
    points_examined: int
    inflected: Tuple[InflectedSample, ...]
    notes: Tuple[str, ...]

    @property
    def full_rank(self) -> int:
        return self.k * self.scroll.n + 1

    @property
    def clean_count(self) -> int:
        return self.points_examined - len(self.inflected)

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


def _random_rational(
    rng: random.Random, nonzero: bool = False, wide: bool = False
) -> Fraction:
    bound, den = (24, 8) if wide else (9, 4)
    while True:
        value = Fraction(rng.randint(-bound, bound), rng.randint(1, den))
        if value or not nonzero:
            return value


def _zero_pattern(rng: random.Random, n: int, pattern: int) -> Tuple[Fraction, ...]:
    """Fiber coordinates zeroed where ``pattern`` has a bit, random nonzero elsewhere."""
    return tuple(
        Fraction(0) if pattern & (1 << slot) else _random_rational(rng, nonzero=True)
        for slot in range(n - 1)
    )


def scan_points(
    scroll: DecomposableScroll, samples: int, seed: int
) -> List[ScrollPoint]:
    """Deterministic sample of chart points, structured ones first.

    The structured block runs over both base charts, every fiber chart,
    u in {0, 1, -1, 2, -2} (so u = inf is covered via the second base
    chart) and every pattern of zeroed fiber coordinates.  The remainder
    alternates fully random points with random points forced onto a random
    zero pattern, so low-dimensional strata keep getting sampled.
    """
    samples = exact_int(samples, "the number of samples", 1)
    rng = random.Random(exact_int(seed, "the seed"))
    n = scroll.n
    structured_u = [Fraction(x) for x in (0, 1, -1, 2, -2)]
    structured = 2 * n * len(structured_u) * 2 ** (n - 1)
    if structured > MAX_STRUCTURED_POINTS:
        raise ValueError(
            f"scroll {scroll} has {n} summands: its structured scan block of {structured} "
            f"points exceeds the limit of {MAX_STRUCTURED_POINTS}"
        )
    points: List[ScrollPoint] = []
    seen = set()

    def push(point: ScrollPoint) -> None:
        key = (point.base_chart, point.u, point.fiber_chart, point.v)
        if key not in seen:
            seen.add(key)
            points.append(point)

    for base_chart in (BASE_ZERO, BASE_INF):
        for fiber_chart in range(1, n + 1):
            for u in structured_u:
                for pattern in range(2 ** (n - 1)):
                    push(ScrollPoint(base_chart, u, fiber_chart, _zero_pattern(rng, n, pattern)))

    toggle = False
    attempts = 0
    while len(points) < samples:
        attempts += 1
        if attempts > 100 * samples:
            raise ValueError(
                f"could not sample {samples} distinct points on {scroll}"
            )
        base_chart = rng.choice((BASE_ZERO, BASE_INF))
        fiber_chart = rng.randint(1, n)
        u = _random_rational(rng, wide=True)
        if toggle and n > 1:
            v = _zero_pattern(rng, n, rng.randint(1, 2 ** (n - 1) - 1))
        else:
            v = tuple(_random_rational(rng) for _ in range(n - 1))
        push(ScrollPoint(base_chart, u, fiber_chart, v))
        toggle = not toggle
    return points


def rank_scan(
    scroll: DecomposableScroll,
    k: Optional[int] = None,
    samples: int = 200,
    seed: int = DEFAULT_SEED,
) -> ScanReport:
    """Probe the k-th inflectional locus by exact ranks at sampled points.

    Every point is ranked on integer rows
    (:func:`scrolljets.scrollmodel.point_rank`); every inflected sample is
    reported together with its exact Fraction jet matrix, which is an
    independently checkable certificate.  A clean scan proves nothing
    beyond "no inflected sample found".
    """
    derived = scroll.N // scroll.n
    k = derived if k is None else exact_int(k, "jet order k", 1, derived)
    samples = exact_int(samples, "the number of samples", 1)
    seed = exact_int(seed, "the seed")
    full_rank = k * scroll.n + 1
    points = scan_points(scroll, samples, seed)
    inflected: List[InflectedSample] = []
    for point in points:
        rank = point_rank(scroll, k, point)
        if rank < full_rank:
            inflected.append(
                InflectedSample(
                    point=point,
                    rank=rank,
                    corank=full_rank - rank,
                    matrix=jet_matrix(scroll, k, point).entries,
                )
            )

    notes: List[str] = []
    if not inflected:
        notes.append("no inflected sample found (sampling cannot certify emptiness)")
    else:
        notes.append(
            f"{len(inflected)} inflected samples among {len(points)} points; "
            "each carries its exact jet matrix as certificate"
        )
        for summand in range(1, scroll.n + 1):
            if all(
                fiber_coordinate(scroll, sample.point, summand) == 0
                for sample in inflected
            ):
                notes.append(
                    f"every inflected sample lies on the section w{summand} = 0"
                )
    return ScanReport(
        scroll=scroll,
        k=k,
        seed=seed,
        samples_requested=samples,
        points_examined=len(points),
        inflected=tuple(inflected),
        notes=tuple(notes),
    )


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
    verdict = MATCH if totals == {expected} else MISMATCH
    notes.append(f"oracle totals {sorted(totals)} vs formula {expected}")
    return "wronskian", verdict, summary, notes


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
        return (
            "determinant-divisor",
            HYPOTHESIS_VIOLATED,
            {"error": str(failure)},
            ["determinant vanishes identically: generic jet rank is below kn+1"],
        )
    return (
        "determinant-divisor",
        MATCH if result.divisor_class == formula_cls else MISMATCH,
        result.to_dict(),
        [f"divisor class extracted in {2 * scroll.n} charts, all agreeing"],
    )


def _scan_oracle(scroll: DecomposableScroll, k: int, samples: int, seed: int, formula_deg):
    """A rank scan, after the exact generic rank, against the formula degree (N > kn)."""
    generic_rank = full_support_rank(scroll, k, BASE_ZERO, 1)
    scan = rank_scan(scroll, k, samples=samples, seed=seed)
    summary = scan.to_dict()
    summary["inflected"] = summary["inflected"][:10]  # keep the summary bounded
    notes = list(scan.notes)
    verdict = MATCH
    if generic_rank < scan.full_rank:
        verdict = HYPOTHESIS_VIOLATED
        notes.append(
            f"generic jet rank {generic_rank} is below kn+1 = {scan.full_rank} "
            "(exact, at the full-support point): the whole scroll is inflected"
        )
    elif not scan.inflected:
        notes.append(
            "clean scan is consistent with an empty locus"
            if formula_deg == 0
            else "clean scan is inconclusive for a positive expected count "
            "(sampling misses measure-zero loci)"
        )
    elif formula_deg == 0:
        verdict = HYPOTHESIS_VIOLATED
        notes.append(
            "expected degree is 0 yet inflected points are certified: "
            "the locus has the wrong dimension"
        )
    else:
        notes.append("certified points are consistent with the expected locus")
    return "rank-scan", verdict, summary, notes


def cross_validate(
    scroll: DecomposableScroll,
    k: Optional[int] = None,
    samples: int = 200,
    seed: int = DEFAULT_SEED,
) -> CrossValidationReport:
    """Run the applicable oracle and compare with the closed formulas.

    The jet order defaults to the largest k with kn <= N.  An explicit
    lower order is allowed for curves only, where it means probing
    :data:`CURVE_TRIALS` generic subsystems of sections.
    """
    seed = exact_int(seed, "the seed")
    derived = scroll.N // scroll.n
    k = derived if k is None else exact_int(k, "jet order k", 1, derived)
    if scroll.n == 1:
        ell, formula_cls = 1, None
        formula_deg = curve_inflection_degree(scroll.d, 0, k)
        oracle, verdict, summary, notes = _curve_oracle(scroll, k, seed, formula_deg)
    elif k != derived:
        raise ValueError(f"for n >= 2 the jet order is pinned to floor(N/n) = {derived}")
    else:
        params = ScrollParams(n=scroll.n, ambient=scroll.N, d=scroll.d, g=0)
        ell = params.ell
        formula_cls = inflectional_class(params)
        formula_deg = inflectional_degree(params)
        if scroll.N == k * scroll.n:
            oracle, verdict, summary, notes = _square_oracle(scroll, k, formula_cls)
        else:
            oracle, verdict, summary, notes = _scan_oracle(scroll, k, samples, seed, formula_deg)
    return CrossValidationReport(
        scroll=scroll,
        k=k,
        ell=ell,
        oracle=oracle,
        verdict=verdict,
        formula_class=None if formula_cls is None else str(formula_cls),
        formula_degree=str(formula_deg),
        oracle_summary=summary,
        notes=tuple(notes),
    )
