"""Benchmark for scrolljets: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; scrolljets is imported from its ``src/``.
Workloads (see workloads.py): ``segre-grid``, ``scan-clean``,
``scan-certified`` and ``sympy-oracles``.  ``--seconds`` sets the number
of rounds in the job list (about that many seconds on the reference
machine); ``--seed`` makes the inputs.

With ``--trace 0`` the end-to-end metrics are measured, every one in a
fresh interpreter with no tracing:

* ``setup_s``: process start, ``import scrolljets`` (which imports sympy)
  and one warm-up job not on the measured list; median of SETUP_RUNS
  fresh interpreters, half of them started before the measured run and
  half after it;
* ``wall_s``: time to finish the job list (sum of job latencies; the
  bookkeeping between jobs is not timed);
* ``job_p50_ms``, ``job_p90_ms``: job latency percentiles;
* ``peak_rss_mb``: peak resident memory of the measured process.

Times are scaled to the reference machine's speed: each is multiplied by
REFERENCE_PROBE_S over the mean of the speed probes (worker.probe) timed
just before and just after it.  The speed of a shared machine drifts by
a fifth or more within seconds; the probes follow that drift, so the
scaled times hold still while a change to the program still shows.

With ``--trace 1`` the job list runs twice, plain and with the layer spans
of spans.py, and the per-layer metrics are reported, with span times
scaled as above and ``trace.overhead_ratio`` = traced wall_s / plain
wall_s; the scaling takes out the drift between the two interpreters.

Every job output is checked after the run (checks.py).  A job that
raised, failed a check or broke a pinned fingerprint counts as failed;
``failed_ratio`` = failed / attempted is printed in the table and any
failure makes the command exit 1.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 15
SETUP_RUNS = 8
#: worker.probe() on the reference machine (see baseline.json) at its
#: usual speed; scaled times read as they would there.
REFERENCE_PROBE_S = 0.015

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# (span, [metric suffixes]) for the per-layer table, then the counters.
SPAN_METRICS = (
    ("cli.main", ("calls", "busy_s", "self_s")),
    ("scanner.cross_validate", ("calls", "busy_s", "self_s")),
    ("scanner.rank_scan", ("calls", "busy_s", "self_s")),
    ("scanner.scan_points", ("busy_s",)),
    ("scanner.wronskian_weights", ("calls", "busy_s", "self_s")),
    ("scanner.determinant_divisor", ("calls", "busy_s", "self_s")),
    ("scrollmodel.jet_matrix", ("calls", "busy_s")),
    ("scrollmodel.jet_rank", ("calls", "busy_s")),
    ("scrollmodel.exact_rank", ("calls", "busy_s")),
    ("sympy.diff", ("calls", "busy_s")),
    ("sympy.det", ("calls", "busy_s")),
    ("sympy.factor_list", ("calls", "busy_s")),
    ("chern.segre_term", ("calls", "busy_s", "self_s")),
    ("chern.osculating_chern", ("calls", "busy_s")),
    ("chern.segre_closed_form", ("busy_s",)),
    ("chow.inverse", ("calls", "busy_s", "self_s")),
    ("chow.class_mul", ("calls", "busy_s")),
    ("formulas.inflectional_class", ("busy_s",)),
    ("formulas.inflectional_degree", ("busy_s",)),
)
COUNTER_METRICS = (
    ("cli.stdout_bytes", "bytes"),
    ("scanner.points", "count"),
    ("scanner.inflected", "count"),
    ("scanner.inflected_ratio", "ratio"),
    ("scanner.generic_rank_failures", "count"),
    ("scrollmodel.jet_cells", "count"),
    ("trace.overhead_ratio", "ratio"),
)
SUFFIX_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}
PER_LAYER = tuple(
    (f"{span}.{suffix}", SUFFIX_UNITS[suffix])
    for span, suffixes in SPAN_METRICS
    for suffix in suffixes
) + COUNTER_METRICS


class WorkerFailed(RuntimeError):
    pass


def scale(seconds: float, probe_s: float) -> float:
    """A time taken while the speed probe took ``probe_s``, at the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def spawn(workload: str, seed: int, rounds: int, mode: str) -> dict:
    """Run one fresh worker interpreter.

    In ``setup`` mode, return its scaled set-up time, with speed probes
    taken here just before and after it; otherwise return its records.
    """
    command = [sys.executable, str(WORKER), workload, str(seed), str(rounds), mode]
    before = worker.probe() if mode == "setup" else None
    start = time.perf_counter()
    # unbuffered, so readline takes no more than the "ready" line
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0
    )
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    err = err.decode("utf-8", "replace").strip()[-2000:]
    if first != b"ready\n" or proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker for {workload} exited {proc.returncode}: {err}")
    if mode == "setup":
        return {"setup_s": scale(setup_s, (before + worker.probe()) / 2)}
    lines = [json.loads(line) for line in rest.splitlines()]
    if not (lines and lines[-1].get("end")):
        raise WorkerFailed(f"{mode} worker for {workload} ended early: {err}")
    return {"records": lines[:-1], "end": lines[-1]}


def verify(workload: str, seed: int, jobs: list, run: dict) -> dict:
    """Check every record of a run; return {job index: problems}."""
    pins = checks.pinned(workload, seed)
    records = run["records"]
    if len(records) != len(jobs):
        raise WorkerFailed(f"{len(records)} records for {len(jobs)} jobs")
    failures = {}
    for index, (job, record) in enumerate(zip(jobs, records)):
        expected = pins[index] if index < len(pins) else None
        problems = checks.check(job, record, expected)
        if problems:
            failures[index] = "; ".join(problems)
    return failures


def latencies(run: dict) -> list:
    """Scaled job times, each by the speed probes just before and after its job."""
    probes = run["end"]["probes"]
    return [
        scale(record["s"], (probes[record["probe"]] + probes[record["probe"] + 1]) / 2)
        for record in run["records"]
    ]


def end_to_end(setups: list, run: dict) -> dict:
    times = latencies(run)
    deciles = statistics.quantiles(times, n=10)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(times),
        "job_p50_ms": statistics.median(times) * 1000,
        "job_p90_ms": deciles[8] * 1000,
        "peak_rss_mb": run["end"]["peak_rss_mb"],
    }


def span_totals(run: dict) -> dict:
    """Span calls and times of a traced run, the times scaled by the probes.

    The worker reports the span totals at each probe; the span time between
    two probes is scaled by those two, as the job times are.
    """
    probes, marks = run["end"]["probes"], run["end"]["trace"]
    totals = {}
    for k in range(len(probes) - 1):
        factor = scale(1.0, (probes[k] + probes[k + 1]) / 2)
        for name, stats in marks[k + 1]["spans"].items():
            before = marks[k]["spans"][name]
            total = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            total["calls"] += stats["calls"] - before["calls"]
            total["busy_s"] += (stats["busy_s"] - before["busy_s"]) * factor
            total["self_s"] += (stats["self_s"] - before["self_s"]) * factor
    return totals


def per_layer(jobs: list, plain: dict, traced: dict) -> dict:
    spans, counters = span_totals(traced), traced["end"]["trace"][-1]["counters"]
    values = {}
    for span, suffixes in SPAN_METRICS:
        stats = spans.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for suffix in suffixes:
            values[f"{span}.{suffix}"] = stats[suffix]
    values["cli.stdout_bytes"] = sum(
        len(record["out"].encode("utf-8"))
        for job, record in zip(jobs, traced["records"])
        if job["kind"] == "cli" and "out" in record
    )
    for key in ("scanner.points", "scanner.inflected", "scanner.generic_rank_failures",
                "scrollmodel.jet_cells"):
        values[key] = counters.get(key, 0)
    points = values["scanner.points"]
    values["scanner.inflected_ratio"] = values["scanner.inflected"] / points if points else 0.0
    values["trace.overhead_ratio"] = sum(latencies(traced)) / sum(latencies(plain))
    return {name: values[name] for name, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scrolljets" / "__init__.py").is_file():
        print(f"error: no scrolljets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    rounds = workloads.rounds_for(args.workload, args.seconds)
    jobs = workloads.build(args.workload, args.seed, rounds)
    try:
        if args.trace:
            runs = [spawn(args.workload, args.seed, rounds, mode) for mode in ("plain", "traced")]
        else:
            setups = [spawn(args.workload, args.seed, rounds, "setup")["setup_s"]
                      for _ in range(SETUP_RUNS // 2)]
            runs = [spawn(args.workload, args.seed, rounds, "plain")]
            setups += [spawn(args.workload, args.seed, rounds, "setup")["setup_s"]
                       for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
        failures = [verify(args.workload, args.seed, jobs, run) for run in runs]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(runs) == 2 and not any(failures):
        failures.append({
            index: "traced output differs from the plain one"
            for index, (a, b) in enumerate(zip(*(run["records"] for run in runs)))
            if checks.canonical(a["out"]) != checks.canonical(b["out"])
        })
    attempted = len(jobs) * len(runs)
    failed = sum(len(f) for f in failures)
    for run_failures in failures:
        for index, problem in list(run_failures.items())[:20]:
            print(f"FAILED job {index}: {problem}", file=sys.stderr)

    if args.trace:
        table, units = per_layer(jobs, *runs), dict(PER_LAYER)
    else:
        table, units = end_to_end(setups, runs[0]), dict(END_TO_END)
    p90 = statistics.quantiles(latencies(runs[0]), n=10)[8]
    beyond_p90 = sum(1 for t in latencies(runs[0]) if t > p90)
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  jobs {len(jobs)}  "
          f"runs {len(runs)}  samples beyond p90 {beyond_p90}")
    if not args.trace:
        print(f"  {'setup_s':38} {table['setup_s']:>14.6g} s  (median of {len(setups)})")
    for name, value in table.items():
        if name != "setup_s":
            print(f"  {name:38} {value:>14.6g} {units[name]}")
    print(f"  {'failed_ratio':38} {failed / attempted:>14.6g} ratio  ({failed} of {attempted})")
    coerced = sum(1 for record in runs[0]["records"] if record.get("sympy_integers"))
    if coerced:
        print(f"  note: {coerced} Wronskian reports hold sympy Integers that json cannot "
              "encode (WronskianReport.to_dict); their fingerprints use the integer value")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in table.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
