"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They check that every layer span fires on the workload meant to exercise
it and stays silent where the layer should be idle, that work counts
repeat exactly for a seed, that the correctness gate fails wrong outputs,
and that BENCHMARK.json names exactly the metrics run.py reports.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 7
ROUNDS = {"segre-grid": 1, "scan-clean": 2, "scan-certified": 1, "sympy-oracles": 1}

# the workload meant to exercise each span or counter
EXERCISED_BY = {
    "cli.main": "scan-certified",
    "scanner.cross_validate": "scan-clean",
    "scanner.rank_scan": "scan-clean",
    "scanner.scan_points": "scan-clean",
    "scanner.wronskian_weights": "sympy-oracles",
    "scanner.determinant_divisor": "sympy-oracles",
    "scrollmodel.jet_matrix": "scan-clean",
    "scrollmodel.jet_rank": "scan-clean",
    "scrollmodel.exact_rank": "scan-clean",
    "sympy.diff": "sympy-oracles",
    "sympy.det": "sympy-oracles",
    "sympy.factor_list": "sympy-oracles",
    "chern.segre_term": "segre-grid",
    "chern.osculating_chern": "segre-grid",
    "chern.segre_closed_form": "segre-grid",
    "chow.inverse": "segre-grid",
    "chow.class_mul": "segre-grid",
    "formulas.inflectional_class": "scan-clean",
    "formulas.inflectional_degree": "scan-clean",
    "cli.stdout_bytes": "scan-certified",
    "scanner.points": "scan-clean",
    "scanner.inflected": "scan-certified",
    "scanner.inflected_ratio": "scan-certified",
    "scanner.generic_rank_failures": "sympy-oracles",
    "scrollmodel.jet_cells": "scan-clean",
}
COUNTS = ("scrollmodel.jet_cells", "scanner.points", "scanner.inflected", "cli.stdout_bytes")


def _owner(metric: str) -> str:
    for suffix in (".calls", ".busy_s", ".self_s"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)]
    return metric


@pytest.fixture(scope="module")
def traced():
    """Per workload: per-layer metrics of two traced runs and the traced wall time."""
    out = {}
    for workload, rounds in ROUNDS.items():
        jobs = workloads.build(workload, SEED, rounds)
        plain = run.spawn(workload, SEED, rounds, "plain")
        tables, wall = [], None
        for _ in range(2):
            traced_run = run.spawn(workload, SEED, rounds, "traced")
            assert not run.verify(workload, SEED, jobs, traced_run)
            tables.append(run.per_layer(jobs, plain, traced_run))
            wall = sum(run.latencies(traced_run))
        out[workload] = (tables, wall)
    return out


def test_every_layer_metric_fires_where_exercised(traced):
    for metric, _ in run.PER_LAYER:
        if metric == "trace.overhead_ratio":
            assert all(traced[w][0][0][metric] > 0 for w in ROUNDS)
            continue
        workload = EXERCISED_BY[_owner(metric)]
        assert traced[workload][0][0][metric] > 0, (metric, workload)


def test_idle_layers_stay_idle(traced):
    segre = traced["segre-grid"][0][0]
    for metric, _ in run.PER_LAYER:
        if metric.startswith(("sympy.", "scrollmodel.")):
            assert segre[metric] == 0, metric
    for workload in ("segre-grid", "scan-clean", "scan-certified"):
        for span in ("sympy.diff", "sympy.det", "sympy.factor_list"):
            assert traced[workload][0][0][f"{span}.calls"] == 0, (workload, span)


def test_counts_repeat_exactly(traced):
    for workload, (tables, _) in traced.items():
        first, second = tables
        for metric, _ in run.PER_LAYER:
            if metric.endswith(".calls") or metric in COUNTS:
                assert first[metric] == second[metric], (workload, metric)


def test_layer_shares_match_prediction(traced):
    def share(workload, spans):
        tables, wall = traced[workload]
        return sum(tables[0][f"{span}.busy_s"] for span in spans) / wall

    assert share("segre-grid", ("chern.segre_term", "chern.segre_closed_form")) > 0.5
    assert share("scan-clean", ("scrollmodel.jet_matrix", "scrollmodel.jet_rank")) > 0.5
    assert share("sympy-oracles", ("sympy.diff", "sympy.det", "sympy.factor_list")) > 0.5


def test_job_lists_are_seeded_distinct_and_prefix_stable():
    for workload in workloads.WORKLOADS:
        jobs = workloads.build(workload, SEED, 3)
        keys = [json.dumps(job, sort_keys=True) for job in jobs]
        assert len(set(keys)) == len(keys), workload
        assert json.dumps(workloads.warmup_job(workload), sort_keys=True) not in keys
        assert workloads.build(workload, SEED, 3) == jobs
        assert workloads.build(workload, SEED, 2) == jobs[: len(workloads.build(workload, SEED, 2))]
        assert workloads.build(workload, SEED + 1, 3) != jobs


def test_job_times_are_scaled_by_the_probes_around_them():
    ref = run.REFERENCE_PROBE_S
    fake = {"records": [{"s": 1.0, "probe": 0}, {"s": 1.0, "probe": 1}],
            "end": {"probes": [ref, 3 * ref, 2 * ref]}}
    assert run.latencies(fake) == pytest.approx([0.5, 0.4])


def _segre_record(holds: bool = True) -> tuple:
    job = {"kind": "segre", "n": 2, "k": 1, "j": 1}
    doc = {"n": 2, "k": 1, "j": 1, "segre_term": "L - 2*F",
           "closed_form": "L - 2*F" if holds else "L - 3*F", "holds": holds}
    return job, {"rc": 0, "out": json.dumps(doc)}


def test_gate_fails_a_broken_fingerprint_or_invariant():
    job, record = _segre_record()
    assert checks.check(job, record, checks.fingerprint(record["out"])) == []
    assert checks.check(job, record, "0" * 64)
    assert checks.check(*_segre_record(holds=False), None)
    assert checks.check(job, {"error": "ValueError: boom"}, None)
    wronskian = {"kind": "wronskian", "d": 4, "k": 2}
    report = {"degenerate": False, "total": 5}
    assert checks.check(wronskian, {"rc": 0, "out": json.dumps(report)}, None)
    mismatch = {"verb": "cross-validate", "result": {"verdict": "MISMATCH"}}
    cli_job = {"kind": "cli", "degrees": [2, 2]}
    assert checks.check(cli_job, {"rc": 1, "out": json.dumps(mismatch)}, None)
    full_rank_certificate = {
        "verb": "scan",
        "result": {"inflected_count": 1, "full_rank": 2},
        "certificate": {"inflected": [
            {"point": {}, "rank": 1, "jet_matrix": [["1", "0"], ["0", "1/2"]]}
        ]},
    }
    assert checks.check(cli_job, {"rc": 0, "out": json.dumps(full_rank_certificate)}, None)


def test_sympy_integers_in_a_report_are_encoded_and_flagged():
    import sympy

    class Report:
        def __init__(self, value):
            self.value = value

        def to_dict(self):
            return {"rational_points": [{"u": "0", "weight": self.value}]}

    job = {"kind": "wronskian"}
    rendered = worker.render(job, Report(sympy.Integer(2)))
    assert rendered["sympy_integers"] == 1
    assert json.loads(rendered["out"])["rational_points"][0]["weight"] == 2
    assert "sympy_integers" not in worker.render(job, Report(2))
    with pytest.raises(TypeError):
        worker.render(job, Report(sympy.Rational(1, 2)))


def test_command_exits_nonzero_on_a_broken_fingerprint(monkeypatch, capsys):
    monkeypatch.setattr(checks, "pinned", lambda workload, seed: ["0" * 64])
    assert run.main(["--workload", "segre-grid", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["failed"] == 1 and result["correct"] is False


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
