"""Correctness gate, applied to every job's output after the timed run.

Each output is fingerprinted (SHA-256 of its canonical JSON) and checked
against invariants that hold for any seed:

* no ``cross-validate`` verdict is MISMATCH, and every CLI job exits 0;
* every Segre identity holds;
* every generic-basis Wronskian total equals (k+1)(d-k);
* every square-scroll divisor class equals the formula class, or the
  verdict is HYPOTHESIS-VIOLATED exactly when the determinant oracle
  reported a generic-rank failure;
* every rank-scan certificate's rank, recomputed independently with
  sympy's exact rational matrices, equals the reported rank and is below
  kn+1.

For the default seed the fingerprints must also equal the ones pinned in
``fingerprints.json``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


def canonical(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


def fingerprint(text: str) -> str:
    return hashlib.sha256(canonical(text).encode("utf-8")).hexdigest()


def pinned(workload: str, seed: int) -> List[str]:
    """Fingerprints pinned for this workload and seed (empty if none)."""
    if not FINGERPRINTS.is_file():
        return []
    table = json.loads(FINGERPRINTS.read_text())
    if table["seed"] != seed:
        return []
    return table["workloads"].get(workload, [])


def _certificate_rank(matrix: List[List[str]]) -> int:
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    rows = []
    for row in matrix:
        values = [Fraction(x) for x in row]
        rows.append([QQ(v.numerator, v.denominator) for v in values])
    return DomainMatrix(rows, (len(rows), len(rows[0])), QQ).rank()


def _check_certificates(certificates: list, full_rank: int) -> List[str]:
    problems = []
    for cert in certificates:
        rank = _certificate_rank(cert["jet_matrix"])
        if rank != cert["rank"] or rank >= full_rank:
            problems.append(
                f"certificate at {cert['point']} has rank {rank}, reported {cert['rank']}, "
                f"full rank {full_rank}"
            )
    return problems


def _check_cross_validate(job: dict, result: dict) -> List[str]:
    verdict = result["verdict"]
    if verdict == "MISMATCH":
        return ["cross-validate verdict is MISMATCH"]
    oracle = result["oracle_result"]
    degrees = job["degrees"]
    n, ambient = len(degrees), sum(degrees) + len(degrees) - 1
    if n >= 2 and ambient % n == 0:
        failed = "error" in oracle
        if (verdict == "HYPOTHESIS-VIOLATED") != failed:
            return [f"verdict {verdict} but generic-rank failure reported: {failed}"]
        if not failed and oracle["divisor_class"] != result["formula_class"]:
            return [
                f"divisor class {oracle['divisor_class']} != formula class "
                f"{result['formula_class']}"
            ]
        return []
    if result["oracle"] == "rank-scan":
        return _check_certificates(oracle["inflected"], oracle["full_rank"])
    return []


def check(job: dict, record: dict, expected: Optional[str]) -> List[str]:
    """Problems with one job's record; empty when the job passed."""
    if "error" in record:
        return [f"raised {record['error']}"]
    problems = []
    if record["rc"] != 0:
        problems.append(f"exit code {record['rc']}")
    text = record["out"]
    if expected is not None and fingerprint(text) != expected:
        problems.append("output fingerprint differs from the pinned one")
    doc = json.loads(text)
    kind = job["kind"]
    if kind == "segre":
        if not doc["holds"] or doc["segre_term"] != doc["closed_form"]:
            problems.append(f"Segre identity fails: {doc['segre_term']} vs {doc['closed_form']}")
    elif kind == "wronskian":
        d, k = job["d"], job["k"]
        if doc["degenerate"] or doc["total"] != (k + 1) * (d - k):
            problems.append(f"Wronskian total {doc['total']} != (k+1)(d-k) = {(k + 1) * (d - k)}")
    elif doc["verb"] == "cross-validate":
        problems += _check_cross_validate(job, doc["result"])
    elif doc["verb"] == "scan":
        result, certificates = doc["result"], doc["certificate"]["inflected"]
        if result["inflected_count"] != len(certificates):
            problems.append("inflected count differs from the number of certificates")
        problems += _check_certificates(certificates, result["full_rank"])
    return problems
