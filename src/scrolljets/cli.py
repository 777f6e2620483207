"""Command-line front end.

Verbs: class, degree, verify-theorem3, classify, scan, wronskian,
cross-validate, ranks.  Output is aligned text by default; --json emits a
single document with a schema marker, the inputs and the result, plus a
certificate where one exists.  Identical inputs and seed give identical
output.  Invalid input exits nonzero with a one-line diagnostic, and so
does a cross-validate MISMATCH, which is a correctness alarm.

Each verb's handler returns its document fields, its text lines and its
exit status; an oracle verb reads its text lines from the ``result`` that
--json prints.  :func:`main` alone assembles and prints the document.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Optional, Tuple

from .chern import rank_profile, segre_closed_form, segre_term
from .formulas import (
    ScrollParams,
    classify_uninflected,
    inflectional_class,
    inflectional_degree,
)
from .scanner import (
    DEFAULT_SEED,
    MISMATCH,
    InconsistentCharts,
    cross_validate,
    rank_scan,
    wronskian_weights,
)
from .scrollmodel import DecomposableScroll


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r} ({exc})")


def _scroll(text: str) -> DecomposableScroll:
    try:
        return DecomposableScroll.from_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


#: What a verb's handler returns: the document fields ("inputs", "result"
#: and possibly "certificate"), the text lines and the exit status.
Outcome = Tuple[dict, list[str], int]

_SUBSTITUTED = (
    "exact rational; omitted means formal; the value is substituted into the formal "
    "polynomial, with no check that a scroll of that degree or genus exists"
)


def _params(args) -> Tuple[ScrollParams, dict, str]:
    """The scroll of a class or degree query, its JSON inputs and its header line."""
    params = ScrollParams(n=args.n, ambient=args.ambient, d=args.d, g=args.g)
    inputs = {
        "n": args.n,
        "ambient": args.ambient,
        "d": None if args.d is None else str(args.d),
        "g": None if args.g is None else str(args.g),
    }
    header = f"scroll: n={args.n} in P^{args.ambient} (k={params.k}, ell={params.ell})"
    return params, inputs, header


def _cmd_class(args) -> Outcome:
    params, inputs, header = _params(args)
    cls = inflectional_class(params)
    result = {
        "class": str(cls),
        "codimension": params.ell,
        "jet_order": params.k,
        "source": "segre-closed-form",
    }
    lines = [header, f"inflectional locus class: {cls}"]
    return {"inputs": inputs, "result": result}, lines, 0


def _cmd_degree(args) -> Outcome:
    params, inputs, header = _params(args)
    value = inflectional_degree(params)
    result = {"degree": str(value), "source": "inflectional-degree-closed-form"}
    lines = [header, f"inflectional locus degree: {value}"]
    return {"inputs": inputs, "result": result}, lines, 0


def _cmd_verify(args) -> Outcome:
    if args.max_n < 1 or args.max_k < 1:
        raise ValueError(
            f"--max-n and --max-k must be at least 1, got {args.max_n} and {args.max_k}"
        )
    failures = []
    checked = 0
    lines = []
    for n in range(1, args.max_n + 1):
        for k in range(1, args.max_k + 1):
            for j in range(1, n + 1):
                checked += 1
                ok = segre_term(n, k, j) == segre_closed_form(n, k, j)
                lines.append(
                    f"n={n} k={k} j={j}: {'PASS' if ok else 'FAIL'}"
                )
                if not ok:
                    failures.append({"n": n, "k": k, "j": j})
    lines.append(
        f"{checked} identities checked, {len(failures)} failed"
    )
    inputs = {"max_n": args.max_n, "max_k": args.max_k}
    result = {
        "identities": checked,
        "failures": failures,
        "all_pass": not failures,
        "source": "segre-pipeline-vs-closed-form",
    }
    return {"inputs": inputs, "result": result}, lines, 1 if failures else 0


def _cmd_classify(args) -> Outcome:
    descriptor = classify_uninflected(args.n, args.k, args.ell)
    inputs = {"n": args.n, "k": args.k, "ell": args.ell}
    if descriptor is None:
        result = {"verdict": "necessarily inflected"}
        lines = [f"n={args.n} k={args.k} ell={args.ell}: necessarily inflected"]
    else:
        result = {"verdict": "balanced", **asdict(descriptor)}
        lines = [
            f"n={args.n} k={args.k} ell={args.ell}: only the balanced scroll is uninflected",
            f"  genus 0, degree {descriptor.degree}, splitting "
            f"({','.join(str(a) for a in descriptor.splitting_degrees)}), "
            f"in P^{descriptor.ambient_dim}",
        ]
    result["source"] = "uninflected-classification"
    return {"inputs": inputs, "result": result}, lines, 0


def _scan_inputs(args, k: int) -> dict:
    return {"scroll": list(args.scroll.degrees), "k": k, "samples": args.samples, "seed": args.seed}


def _oracle_result(report) -> dict:
    """An oracle report's document, which names the oracle as its source."""
    result = report.to_dict()
    result["source"] = result["oracle"]
    return result


def _note_lines(result: dict) -> list[str]:
    return [f"  note: {note}" for note in result["notes"]]


def _cmd_scan(args) -> Outcome:
    result = _oracle_result(rank_scan(args.scroll, k=args.k, samples=args.samples, seed=args.seed))
    inflected = result.pop("inflected")
    lines = [
        f"scan scroll={args.scroll} k={result['k']} seed={result['seed']}",
        f"  points examined: {result['points_examined']}",
        f"  full rank: {result['full_rank']}",
        f"  inflected: {result['inflected_count']}  clean: {result['clean_count']}",
    ]
    for sample in inflected[:20]:
        p = sample["point"]
        lines.append(
            f"    rank {sample['rank']} (corank {sample['corank']}) at "
            f"base={p['base_chart']} u={p['u']} chart={p['fiber_chart']} v=({','.join(p['v'])})"
        )
    if len(inflected) > 20:
        lines.append(f"    ... {len(inflected) - 20} more")
    lines += _note_lines(result)
    inputs = _scan_inputs(args, result["k"])
    return {"inputs": inputs, "result": result, "certificate": {"inflected": inflected}}, lines, 0


def _read_basis(path: str) -> list[list[int]]:
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([int(tok) for tok in line.replace(",", " ").split()])
    if not rows:
        raise ValueError(f"basis file {path!r} contains no polynomials")
    return rows


def _cmd_wronskian(args) -> Outcome:
    if (args.degrees is None) == (args.basis is None):
        raise ValueError("provide exactly one of --degrees or --basis")
    if args.degrees is not None:
        curve = args.degrees
        inputs = {"degrees": list(curve.degrees), "k": args.k}
    else:
        curve = _read_basis(args.basis)
        inputs = {"basis": curve, "k": args.k}
    result = _oracle_result(wronskian_weights(curve, args.k))
    lines = [
        f"wronskian oracle, k={args.k}, basis degree {result['degree']}",
        f"  wronskian: {result['wronskian']}",
        f"  at infinity: {result['wronskian_at_infinity']}",
    ]
    if result["degenerate"]:
        lines.append("  degenerate basis (linearly dependent)")
    else:
        for point in result["rational_points"]:
            lines.append(f"  weight {point['weight']} at u = {point['u']}")
        lines.append(f"  weight {result['infinity_weight']} at infinity")
        lines.append(f"  finite total: {result['finite_total']}")
        lines.append(f"  total weight: {result['total']}")
    lines += _note_lines(result)
    return {"inputs": inputs, "result": result}, lines, 0


def _cmd_cross_validate(args) -> Outcome:
    report = cross_validate(args.scroll, k=args.k, samples=args.samples, seed=args.seed)
    result = _oracle_result(report)
    lines = [
        f"cross-validate scroll={args.scroll} (n={args.scroll.n}, d={args.scroll.d}, "
        f"N={args.scroll.N}, g=0)",
        f"  jet order k={result['k']}, expected codim ell={result['ell']}",
        f"  oracle: {result['oracle']}",
    ]
    if result["formula_class"] is not None:
        lines.append(f"  formula class: {result['formula_class']}")
    lines.append(f"  formula degree: {result['formula_degree']}")
    lines += _note_lines(result)
    lines.append(f"  verdict: {result['verdict']}")
    status = 1 if result["verdict"] == MISMATCH else 0
    return {"inputs": _scan_inputs(args, result["k"]), "result": result}, lines, status


def _cmd_ranks(args) -> Outcome:
    profile = rank_profile(args.n, args.k)
    inputs = {"n": args.n, "k": args.k}
    result = {key: value for key, value in asdict(profile).items() if key not in inputs}
    result["source"] = "rank-profile"
    lines = [
        f"ranks for n={args.n}, k={args.k}",
        f"  jet bundle:        {profile.rank_jet}",
        f"  osculating bundle: {profile.rank_osculating}",
        f"  cokernel dual:     {profile.rank_cokernel}",
        f"  order step:        {profile.rank_order_step}",
    ]
    return {"inputs": inputs, "result": result}, lines, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scrolljets",
        description="Exact inflectional-locus calculator for scrolls over curves",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON document")
    scanned = argparse.ArgumentParser(add_help=False)
    scanned.add_argument("--scroll", type=_scroll, required=True, help='degrees, e.g. "1,3"')
    scanned.add_argument("--k", type=int, default=None)
    scanned.add_argument("--samples", type=int, default=200)
    scanned.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, func in (("class", _cmd_class), ("degree", _cmd_degree)):
        p = sub.add_parser(verb, parents=[common], help=f"inflectional locus {verb}")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--ambient", type=int, required=True)
        p.add_argument("--d", type=_fraction, default=None, help=_SUBSTITUTED)
        p.add_argument("--g", type=_fraction, default=None, help=_SUBSTITUTED)
        p.set_defaults(func=func)

    p = sub.add_parser(
        "verify-theorem3",
        parents=[common],
        help="check the closed graded Segre terms against the product pipeline",
    )
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--max-k", type=int, default=6)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", parents=[common], help="uninflected classification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("scan", parents=[common, scanned], help="exact-rank scan of a scroll")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("wronskian", parents=[common], help="curve inflection weights")
    p.add_argument("--degrees", type=_scroll, default=None, help='curve degree, e.g. "4"')
    p.add_argument(
        "--basis",
        default=None,
        help="file with one polynomial per line, integer coefficients, constant first",
    )
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_wronskian)

    p = sub.add_parser(
        "cross-validate", parents=[common, scanned], help="oracle vs formula for one scroll"
    )
    p.set_defaults(func=_cmd_cross_validate)

    p = sub.add_parser("ranks", parents=[common], help="rank bookkeeping for (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_ranks)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        fields, lines, status = args.func(args)
        if args.json:
            doc = {"schema": 1, "verb": args.verb, **fields}
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
    except (ValueError, OSError, InconsistentCharts) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
