"""Seeded job lists for the four benchmark workloads.

A job is one public call into scrolljets.  A workload is a sequence of
rounds in a seed-shuffled order, and the random parts of the inputs (scan
seeds, basis coefficients, job order) come from the seed, so each seed
does the same kind and amount of work.  Every round holds the same strata
(grid cells at a growing k, scroll shapes, Wronskian (d, k) pairs), with
one exception: a square scroll has no random input, so the square
scrolls of ``sympy-oracles`` are taken in canonical order and grow from
round to round.  No job input repeats within a run, so neither sympy's
global cache nor a memo cache in the program can replay a job.

Job lists are prefix-stable: the first R rounds are the same whatever
number of rounds is asked for, so output fingerprints pinned for one run
length stay valid for the common prefix of any other.

This module is stdlib only and never imports scrolljets, so the program
under test has no hand in making its own inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

WORKLOADS = ("segre-grid", "scan-clean", "scan-certified", "sympy-oracles")

#: Segre grid: every (n, j) with 1 <= j <= n <= SEGRE_MAX_N, at k = round + 1.
SEGRE_MAX_N = 12

# Each round holds an odd number of strata of distinct cost, so the median
# and the p90 latency fall inside a stratum's cluster of job times rather
# than on the gap between two clusters, where they would jump from seed to
# seed.

#: Balanced or near-balanced non-square scrolls: almost no sample inflected.
CLEAN_SHAPES: Tuple[Tuple[int, ...], ...] = ((2, 2), (3, 3), (1, 2, 2), (2, 2, 2), (4, 4))

#: Unbalanced scrolls (with an explicit jet order where it is not derived):
#: about a quarter of the samples are inflected and carry certificates.
CERTIFIED_SHAPES: Tuple[Tuple[Tuple[int, ...], Optional[int]], ...] = (
    ((1, 3), None), ((2, 3), 3), ((1, 1, 4), None), ((3, 5), None), ((5, 7), None),
)

#: Samples per scan job (the structured block comes on top for n >= 3).
SCAN_SAMPLES = 100

#: (basis degree d, jet order k) strata for the random-basis Wronskian jobs.
WRONSKIAN_STRATA: Tuple[Tuple[int, int], ...] = ((4, 2), (4, 3), (5, 3), (5, 4), (6, 3))

#: Square scrolls (N = kn) per sympy-oracles round, taken in canonical order.
#: Of each (n, N) only the balanced scroll meets the generic-rank hypothesis;
#: the others end in GenericRankFailure (67 of the 80 in a 16-round run).
SQUARE_PER_ROUND = len(WRONSKIAN_STRATA)

#: Seconds per round, roughly, at the reference speed (run.REFERENCE_PROBE_S),
#: and the least number of rounds: enough for at least 10 samples beyond
#: the p90 latency.  The p90 of sympy-oracles falls among a few costly
#: Wronskians and the largest square scrolls, both widely spread, and holds
#: still from seed to seed only with 16 rounds (about 24 s).
ROUND_SECONDS = {
    "segre-grid": 0.55,
    "scan-clean": 0.38,
    "scan-certified": 0.53,
    "sympy-oracles": 1.5,
}
MIN_ROUNDS = {"segre-grid": 2, "scan-clean": 22, "scan-certified": 22, "sympy-oracles": 16}

Job = Dict[str, object]


def rounds_for(workload: str, seconds: float) -> int:
    """Number of rounds that fills about ``seconds`` on the reference machine."""
    return max(MIN_ROUNDS[workload], round(seconds / ROUND_SECONDS[workload]))


def _spec(degrees: Tuple[int, ...]) -> str:
    return ",".join(str(a) for a in degrees)


def _cli(verb: str, degrees: Tuple[int, ...], k: Optional[int], seed: Optional[int]) -> Job:
    argv = [verb, "--scroll", _spec(degrees)]
    if k is not None:
        argv += ["--k", str(k)]
    if seed is not None:
        argv += ["--samples", str(SCAN_SAMPLES), "--seed", str(seed)]
    argv.append("--json")
    return {"kind": "cli", "argv": argv, "degrees": list(degrees)}


def warmup_job(workload: str) -> Job:
    """One job of the workload's kind whose input is never on the measured list."""
    if workload == "segre-grid":
        return {"kind": "segre", "n": SEGRE_MAX_N + 1, "k": 1, "j": 1}
    if workload == "scan-clean":
        return _cli("cross-validate", (1, 1), None, 0)
    if workload == "scan-certified":
        return _cli("scan", (1, 2), None, 0)
    if workload == "sympy-oracles":
        return _cli("cross-validate", (1, 2), None, None)
    raise ValueError(f"unknown workload {workload!r}")


def _partitions(total: int, parts: int, low: int = 1) -> Iterator[Tuple[int, ...]]:
    """Nondecreasing tuples of ``parts`` positive integers summing to ``total``."""
    if parts == 1:
        if total >= low:
            yield (total,)
        return
    for first in range(low, total // parts + 1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def square_scrolls() -> Iterator[Tuple[int, ...]]:
    """Square scrolls (N = kn, n in 2..4) by ambient dimension, then n, then degrees.

    The smallest one, (1,2), is the sympy-oracles warm-up and is skipped.
    """
    ambient = 4
    while True:
        for n in (2, 3, 4):
            if ambient % n == 0 and ambient // n >= 2:
                for degrees in _partitions(ambient - n + 1, n):
                    if degrees != (1, 2):
                        yield degrees
        ambient += 1


def _rank(rows: List[List[int]]) -> int:
    matrix = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(matrix[0])):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for r in range(rank + 1, len(matrix)):
            factor = matrix[r][col] / matrix[rank][col]
            if factor:
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def spanning_basis(rng: random.Random, d: int, k: int) -> List[List[int]]:
    """k+1 integer polynomials of degree <= d (one of exact degree d), independent."""
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(d + 1)] for _ in range(k + 1)]
        if all(any(row) for row in rows) and any(row[d] for row in rows):
            if _rank(rows) == k + 1:
                return rows


def build(workload: str, seed: int, rounds: int) -> List[Job]:
    """The measured job list: ``rounds`` rounds of the workload for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs: List[Job] = []
    used = set()
    squares = square_scrolls()

    def fresh_seed(degrees: Tuple[int, ...]) -> int:
        while True:
            value = rng.randrange(1, 10**6)
            if (degrees, value) not in used:
                used.add((degrees, value))
                return value

    for r in range(rounds):
        if workload == "segre-grid":
            block = [
                {"kind": "segre", "n": n, "k": r + 1, "j": j}
                for n in range(1, SEGRE_MAX_N + 1)
                for j in range(1, n + 1)
            ]
        elif workload == "scan-clean":
            block = [
                _cli("cross-validate", shape, None, fresh_seed(shape))
                for shape in CLEAN_SHAPES
            ]
        elif workload == "scan-certified":
            block = [
                _cli("scan", shape, k, fresh_seed(shape)) for shape, k in CERTIFIED_SHAPES
            ]
        else:
            block = [_cli("cross-validate", next(squares), None, None)
                     for _ in range(SQUARE_PER_ROUND)]
            for d, k in WRONSKIAN_STRATA:
                while True:
                    basis = spanning_basis(rng, d, k)
                    key = (k, tuple(map(tuple, basis)))
                    if key not in used:
                        used.add(key)
                        break
                block.append({"kind": "wronskian", "d": d, "k": k, "basis": basis})
        rng.shuffle(block)
        jobs.extend(block)
    return jobs
