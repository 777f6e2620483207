"""Record the benchmark's pinned fingerprints and its baseline.

    python3 perfbench/record.py pin
    python3 perfbench/record.py spread

``pin`` runs each workload once on the default seed and run length and
writes the SHA-256 of every job's canonical output to fingerprints.json.
It refuses to pin a run whose outputs fail the invariant checks.

``spread`` runs ``run.py`` on seeds 1..SEEDS for every workload (end-to-end
metrics, tracing off) and prints each metric's median and quartile spread
(interquartile range / median).  It then makes one traced run per workload
on the default seed and writes everything to baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import run
import workloads

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
SEEDS = 10


def pin() -> int:
    table = {"seed": run.DEFAULT_SEED, "seconds": run.DEFAULT_SECONDS, "workloads": {}}
    for workload in workloads.WORKLOADS:
        rounds = workloads.rounds_for(workload, run.DEFAULT_SECONDS)
        jobs = workloads.build(workload, run.DEFAULT_SEED, rounds)
        plain = run.spawn(workload, run.DEFAULT_SEED, rounds, "plain")
        problems = {
            index: problem
            for index, (job, record) in enumerate(zip(jobs, plain["records"]))
            if (problem := checks.check(job, record, None))
        }
        if problems or len(plain["records"]) != len(jobs):
            print(f"{workload}: not pinned, failures {list(problems.items())[:5]}",
                  file=sys.stderr)
            return 1
        table["workloads"][workload] = [checks.fingerprint(r["out"]) for r in plain["records"]]
        print(f"{workload}: pinned {len(jobs)} outputs")
    checks.FINGERPRINTS.write_text(json.dumps(table, indent=0) + "\n")
    return 0


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        names = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                 if line.startswith("model name")]
        cpu = names[0] if names else cpu
    return f"{cpu}, {os.cpu_count()} cpus, Python {platform.python_version()}"


def invoke(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}", file=sys.stderr)
    if not done.stdout.startswith("workload"):
        raise SystemExit(f"{' '.join(command)} printed no result")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def spread() -> int:
    baseline = {
        "machine": machine(),
        "seeds": list(range(1, SEEDS + 1)),
        "seconds": run.DEFAULT_SECONDS,
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in workloads.WORKLOADS:
        results = [invoke(workload, seed, 0) for seed in baseline["seeds"]]
        table = {}
        for name, unit in run.END_TO_END:
            table[name] = summarize([r["metrics"][name]["value"] for r in results])
            table[name]["unit"] = unit
            print(f"{workload:15} {name:12} median {table[name]['median']:10.4f} {unit:3} "
                  f"spread {table[name]['spread']:.4f}  "
                  f"[{' '.join(f'{v:.4g}' for v in table[name]['values'])}]", flush=True)
        table["jobs"] = results[0]["attempted"]
        table["failed"] = [r["failed"] for r in results]
        baseline["end_to_end"][workload] = table
        traced = invoke(workload, run.DEFAULT_SEED, 1)
        baseline["per_layer"][workload] = {
            name: metric["value"] for name, metric in traced["metrics"].items()
        }
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", choices=("pin", "spread"))
    args = parser.parse_args()
    return pin() if args.action == "pin" else spread()


if __name__ == "__main__":
    sys.exit(main())
