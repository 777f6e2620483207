"""One fresh interpreter of the benchmark: set up, then run a job list.

    python3 perfbench/worker.py WORKLOAD SEED ROUNDS MODE

MODE is ``setup`` (set up and exit), ``plain`` (run the job list) or
``traced`` (run it with layer spans installed).  The worker imports
scrolljets from ``src/`` of the checkout, runs the workload's warm-up job
and prints ``ready``; the parent times set-up from process start to that
line.  It then runs the jobs in a closed loop, one thread, each job after
the previous one returned, and prints one JSON line per job holding its
latency, exit code and full output text.  Outputs are not kept: the
parent fingerprints and checks them after this process has ended.

Between jobs, outside their timed part, the worker times a speed probe
(a fixed piece of pure-Python work) after every PROBE_EVERY_S seconds of
job time; each job record names the probe before it.  The parent scales
job times by the probes around them, so that a machine whose speed drifts
while the run goes on gives steady figures.  The last line holds the
probe times, the peak resident memory and, when traced, the span and
counter totals as they stood at each probe.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent

#: Job time between two speed probes, in seconds.
PROBE_EVERY_S = 0.2
PROBE_STEPS = 2_300


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work: the machine's speed now.

    The work is Fraction arithmetic, which follows the slowdowns of the
    jobs more closely than a plain integer loop.
    """
    start = time.perf_counter()
    third = Fraction(1, 3)
    for i in range(1, PROBE_STEPS):
        value = third * Fraction(i, i + 1) + Fraction(i % 5, 7)
    return time.perf_counter() - start


def run(scrolljets, job: dict):
    """Make the job's public call.  This is the timed part of a job."""
    kind = job["kind"]
    if kind == "segre":
        n, k, j = job["n"], job["k"], job["j"]
        term = scrolljets.segre_term(n, k, j)
        closed = scrolljets.segre_closed_form(n, k, j)
        return 0, (term, closed, term == closed)
    if kind == "wronskian":
        return 0, scrolljets.wronskian_weights(job["basis"], job["k"])
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = scrolljets.cli.main(list(job["argv"]))
    return code, buffer.getvalue()


def render(job: dict, result) -> dict:
    """Record fields holding the job's output as JSON text (CLI jobs print their own)."""
    kind = job["kind"]
    if kind == "segre":
        term, closed, holds = result
        doc = {"n": job["n"], "k": job["k"], "j": job["j"],
               "segre_term": str(term), "closed_form": str(closed), "holds": holds}
        return {"out": json.dumps(doc, sort_keys=True)}
    if kind == "wronskian":
        import sympy

        coerced = []

        def encode(value):
            # WronskianReport.to_dict() passes factor_list multiplicities
            # through, and sympy returns an Integer, not an int, for a factor
            # such as u**2; json cannot encode it (nor can the CLI's --json).
            # The output keeps its integer value and the run reports it.
            if isinstance(value, sympy.Integer):
                coerced.append(value)
                return int(value)
            raise TypeError(f"{type(value).__name__} is not JSON serializable")

        text = json.dumps(result.to_dict(), sort_keys=True, default=encode)
        return {"out": text, "sympy_integers": len(coerced)} if coerced else {"out": text}
    return {"out": result}


def main(argv: list[str]) -> int:
    workload, seed, rounds, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    out = sys.stdout
    sys.path.insert(0, str(ROOT / "src"))
    import scrolljets  # imports sympy
    import scrolljets.cli

    run(scrolljets, workloads.warmup_job(workload))
    out.write("ready\n")
    out.flush()
    if mode == "setup":
        return 0

    jobs = workloads.build(workload, seed, rounds)
    tracer = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    probes, marks, since_probe = [], [], 0.0

    def take_probe() -> None:
        probes.append(probe())
        if tracer:
            marks.append(tracer.report())

    take_probe()
    for index, job in enumerate(jobs):
        start = time.perf_counter()
        try:
            code, result = run(scrolljets, job)
            record = {"i": index, "s": time.perf_counter() - start, "rc": code}
            record.update(render(job, result))
        except Exception as exc:  # a failed job is counted, not fatal
            record = {"i": index, "s": time.perf_counter() - start,
                      "error": f"{type(exc).__name__}: {exc}"}
        record["probe"] = len(probes) - 1
        since_probe += record["s"]
        out.write(json.dumps(record) + "\n")
        result = record = None  # keep no output alive during the next job
        if since_probe >= PROBE_EVERY_S:
            take_probe()
            since_probe = 0.0
    take_probe()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.write(json.dumps({"end": True, "peak_rss_mb": peak_mb, "probes": probes,
                          "trace": marks if tracer else None}) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
