"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All checks are exact (integer/rational identities); there are no numeric
tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from scrolljets.chern import rank_profile, segre_closed_form, segre_term
from scrolljets.chow import ChowClass, D, G
from scrolljets.formulas import (
    ScrollParams,
    classify_uninflected,
    curve_inflection_degree,
    double_point_check,
    inflectional_class,
    inflectional_degree,
)
from scrolljets.scanner import (
    DEFAULT_SEED,
    HYPOTHESIS_VIOLATED,
    cross_validate,
    determinant_divisor,
    rank_scan,
    scan_points,
    wronskian_weights,
)
from scrolljets.scrollmodel import (
    BASE_ZERO,
    DecomposableScroll,
    exact_rank,
    fiber_coordinate,
)


def _criterion(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} [{status}] {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def _random_spanning_basis(rng, d, k):
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(d + 1)] for _ in range(k + 1)]
        if all(any(row) for row in rows) and any(row[d] for row in rows):
            if exact_rank(rows) == k + 1:
                return rows


def _geometric_base(point):
    if point.base_chart == BASE_ZERO:
        return ("finite", point.u)
    if point.u == 0:
        return ("infinity",)
    return ("finite", 1 / point.u)


def test_criterion_01_segre_identity():
    start = time.time()
    checked = 0
    ok = True
    for n in range(1, 7):
        for k in range(1, 7):
            for j in range(1, n + 1):
                checked += 1
                if segre_term(n, k, j) != segre_closed_form(n, k, j):
                    ok = False
    _criterion(
        1,
        "graded Segre terms: product pipeline equals closed form, exact in (d, g)",
        ok and checked == 126,
        f"{checked} identities in {time.time() - start:.2f}s",
    )


def test_criterion_02_degree_consistency():
    ok = True
    for n in range(1, 7):
        for k in range(1, 7):
            for ell in range(1, n + 1):
                ambient = k * n + ell - 1
                if ambient <= n:
                    continue
                params = ScrollParams(n=n, ambient=ambient)
                expected = (k + 1) * D + (k * (2 * (ambient + 1) - (k + 1) * n)) * (G - 1)
                if inflectional_class(params).degree_poly() != expected:
                    ok = False
                if inflectional_degree(params) != expected:
                    ok = False
                if ell == n and expected != (k + 1) * (D + n * k * (G - 1)):
                    ok = False
                if n == 1 and expected != (k + 1) * (D + k * (G - 1)):
                    ok = False
    _criterion(
        2,
        "class degree equals the closed degree polynomial with its specializations",
        ok,
    )


def test_criterion_03_classical_numbers():
    ok = curve_inflection_degree(4, 3, 2) == 24
    for k in range(3, 8):
        for d in range(k + 1, 9):
            ok = ok and curve_inflection_degree(d, 0, k) == (k + 1) * (d - k)
    _criterion(3, "plane-quartic flexes = 24 and rational-curve counts (k+1)(d-k)", ok)


def test_criterion_04_wronskian_oracle():
    start = time.time()
    report = wronskian_weights([[1], [0, 1], [0, 0, 1], [0, 0, 0, 0, 1]], 3)
    ok = (
        report.rational_points == ((Fraction(0), 1),)
        and report.infinity_weight == 3
        and report.total == 4
    )
    rng = random.Random(20260809)
    trials = 0
    for d, k in ((4, 3), (5, 3), (5, 4), (6, 4)):
        for _ in range(20):
            rows = _random_spanning_basis(rng, d, k)
            trial = wronskian_weights(rows, k)
            trials += 1
            if trial.degenerate or trial.total != (k + 1) * (d - k):
                ok = False
    _criterion(
        4,
        "Wronskian weights: monomial quartic {0:1, inf:3} and random spanning bases",
        ok,
        f"{trials} random trials in {time.time() - start:.2f}s",
    )


def test_criterion_05_balanced_uninflected():
    start = time.time()
    ok = True
    scanned = []
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            X = DecomposableScroll((k,) * n)
            report = rank_scan(X, samples=200)
            scanned.append(f"{X}:{report.points_examined}")
            if report.k != k or report.inflected:
                ok = False
    _criterion(
        5,
        "balanced scrolls (k,..,k), n,k <= 3: 200-point scans find no inflected point",
        ok,
        f"9 scrolls in {time.time() - start:.2f}s",
    )


def test_criterion_06_case_i_oracle_match():
    start = time.time()
    X = DecomposableScroll((1, 2))
    result = determinant_divisor(X, 2)
    formula = inflectional_class(ScrollParams(n=2, ambient=4, d=3, g=0))
    ok = (
        result.factors == (("v2", 1),)
        and result.divisor_class == ChowClass(2, [(1, 1, -2)])
        and result.divisor_class == formula
    )
    Y = DecomposableScroll((1, 1, 2))
    ok = ok and Y.d == 4 and Y.N == 6 == 2 * Y.n
    result = determinant_divisor(Y, 2)
    formula = inflectional_class(ScrollParams(n=3, ambient=6, d=4, g=0))
    ok = (
        ok
        and result.factors == (("v3", 1),)
        and result.divisor_class == ChowClass(3, [(1, 1, -2)])
        and result.divisor_class == formula
    )
    _criterion(
        6,
        "determinant divisor of (1,2) and (1,1,2): unit times last fiber "
        "coordinate, class L-2F, matching the formula",
        ok,
        f"{time.time() - start:.2f}s",
    )


def test_criterion_07_hypothesis_violation():
    X = DecomposableScroll((1, 3))
    degree = inflectional_degree(ScrollParams(n=2, ambient=5, d=4, g=0))
    report = rank_scan(X, k=2, samples=600)
    directrix = [
        s
        for s in report.inflected
        if s.corank == 1 and fiber_coordinate(X, s.point, 2) == 0
    ]
    distinct = {_geometric_base(s.point) for s in directrix}
    verdict = cross_validate(X, samples=600).verdict
    ok = (
        degree == 0
        and len(report.inflected) == len(directrix)
        and len(distinct) >= 50
        and report.clean_count >= 50
        and verdict == HYPOTHESIS_VIOLATED
    )
    _criterion(
        7,
        "(1,3): formula degree 0 but corank-1 certificates on 50+ directrix points",
        ok,
        f"{len(distinct)} distinct directrix points, {report.clean_count} clean, {verdict}",
    )


def test_criterion_08_semibalanced_scan():
    # The semibalanced (2,3) scroll in P^6 at its derived jet order k = 3
    # (kn = 6 = N, so ell = 1 < n = 2) is necessarily inflected, and the
    # locus is its minimal section v2 = 0, a conic.  Every section is
    # f(u) + v2 h(u) with deg f <= 2, so the pure third-derivative column
    # of the 7x7 jet matrix vanishes identically on v2 = 0: corank 1 along
    # the whole section, full rank off it.  The determinant oracle finds
    # the same divisor, class L - 3F of degree 2, which is the class
    # formula's answer.  The uninflected statement for this scroll holds
    # at its own order k = 2 (as in
    # tests/test_scanner.py::test_rank_scan_semibalanced_at_its_own_order_is_clean).
    start = time.time()
    X = DecomposableScroll((2, 3))
    report = rank_scan(X, k=3, samples=200)
    points = scan_points(X, 200, DEFAULT_SEED)
    on_section = [p for p in points if fiber_coordinate(X, p, 2) == 0]
    certified = all(
        s.corank == 1 and exact_rank(s.matrix) == s.rank for s in report.inflected
    )
    result = determinant_divisor(X, 3)
    params = ScrollParams(n=2, ambient=6, d=5, g=0)
    own_order = rank_scan(X, k=2, samples=200)
    ok = (
        report.points_examined == len(points) == 200
        and len(report.inflected) > 0
        and [s.point for s in report.inflected] == on_section
        and certified
        and report.clean_count == len(points) - len(on_section) > 0
        and result.factors == (("v2", 1),)
        and result.divisor_class == ChowClass(2, [(1, 1, -3)])
        and result.divisor_class == inflectional_class(params)
        and inflectional_degree(params) == 2
        and classify_uninflected(2, 3, 1) is None
        and own_order.points_examined == 200
        and not own_order.inflected
    )
    _criterion(
        8,
        "(2,3) in P^6: at k=3 the 200-point scan is inflected exactly on the "
        "section v2=0 (corank 1, class L-3F = formula); at k=2 it is clean",
        ok,
        f"{len(report.inflected)} of {len(points)} samples inflected, "
        f"{len(on_section)} on v2=0, {len(own_order.inflected)} at k=2, "
        f"in {time.time() - start:.2f}s",
    )


def test_criterion_09_double_point_identity():
    ok = True
    for n in range(1, 11):
        ok = ok and double_point_check(n, n + 1, 0)
        ok = ok and double_point_check(n, 2 * n + 1, 1)
    rng = random.Random(3141)
    falses = 0
    while falses < 25:
        n = rng.randint(1, 10)
        d = rng.randint(1, 40)
        g = rng.randint(0, 8)
        if (d - n) * (d - n - 1) == n * (n + 1) * g:
            continue
        falses += 1
        ok = ok and not double_point_check(n, d, g)
    _criterion(9, "double-point identity on both families plus random false cases", ok)


def test_criterion_10_rank_bookkeeping():
    ok = True
    for n in range(1, 11):
        for k in range(1, 11):
            here = rank_profile(n, k)
            if here.rank_cokernel < 0 or here.rank_order_step < 0:
                ok = False
            if k > 1:
                prev = rank_profile(n, k - 1)
                if here.rank_cokernel != prev.rank_cokernel + here.rank_order_step:
                    ok = False
                if here.rank_osculating != prev.rank_osculating + n:
                    ok = False
    _criterion(10, "rank additivity along both exact sequences for n, k <= 10", ok)
