"""Outside-in layer spans for the traced benchmark run.

Nothing in ``src/`` is instrumented.  Instead the benchmark wraps the
public entry points of each module, and the sympy calls the scanner makes,
at every name a caller looks them up by: ``scanner`` and ``cli`` import
``jet_matrix``, ``rank_scan`` and friends with ``from ... import``, so a
wrapper installed only on the defining module would see nothing.

Spans are aggregated per name as they close (calls, inclusive busy time,
self time = busy time minus the time of directly nested spans), together
with a few work counters read off the wrapped calls' results.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional


class Tracer:
    """Aggregates span timings and work counters in memory."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, busy_s, self_s]
        self.counters: Counter = Counter()
        self._child_time: List[float] = []  # one accumulator per open span

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable] = None,
        on_error: Optional[Callable] = None,
    ) -> Callable:
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._child_time

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return span

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": calls, "busy_s": busy, "self_s": own}
                for name, (calls, busy, own) in self.spans.items()
            },
            "counters": dict(self.counters),
        }


def install(tracer: Tracer) -> None:
    """Wrap the traced entry points of scrolljets and sympy in place."""
    import sympy

    import scrolljets
    from scrolljets import chern, chow, cli, formulas, scanner, scrollmodel

    modules = (scrolljets, cli, scanner, scrollmodel, chern, chow, formulas)
    counters = tracer.counters

    def function(owner, attr: str, name: str, **hooks) -> None:
        """Wrap a function wherever a scrolljets module holds it by name."""
        original = getattr(owner, attr, None)
        if original is None:
            print(f"perfbench: no {owner.__name__}.{attr} to trace", file=sys.stderr)
            return
        wrapped = tracer.wrap(name, original, **hooks)
        for module in modules:
            if module.__dict__.get(attr) is original:
                setattr(module, attr, wrapped)

    def attribute(owner, attr: str, name: str) -> None:
        """Wrap one attribute of one class or module."""
        original = getattr(owner, attr, None)
        if original is None:
            print(f"perfbench: no {owner.__name__}.{attr} to trace", file=sys.stderr)
            return
        setattr(owner, attr, tracer.wrap(name, original))

    def count(key: str, measure: Callable) -> Callable:
        def hook(value) -> None:
            counters[key] += measure(value)

        return hook

    def generic_rank_failure(exc: Exception) -> None:
        if isinstance(exc, scanner.GenericRankFailure):
            counters["scanner.generic_rank_failures"] += 1

    function(cli, "main", "cli.main")
    function(scanner, "cross_validate", "scanner.cross_validate")
    function(scanner, "rank_scan", "scanner.rank_scan",
             on_result=count("scanner.inflected", lambda report: len(report.inflected)))
    function(scanner, "scan_points", "scanner.scan_points",
             on_result=count("scanner.points", len))
    function(scanner, "wronskian_weights", "scanner.wronskian_weights")
    function(scanner, "determinant_divisor", "scanner.determinant_divisor",
             on_error=generic_rank_failure)
    function(scrollmodel, "jet_matrix", "scrollmodel.jet_matrix",
             on_result=count("scrollmodel.jet_cells", lambda m: m.nrows * m.ncols))
    function(scrollmodel, "jet_rank", "scrollmodel.jet_rank")
    function(scrollmodel, "exact_rank", "scrollmodel.exact_rank")
    function(chern, "segre_term", "chern.segre_term")
    function(chern, "osculating_chern", "chern.osculating_chern")
    function(chern, "segre_closed_form", "chern.segre_closed_form")
    function(formulas, "inflectional_class", "formulas.inflectional_class")
    function(formulas, "inflectional_degree", "formulas.inflectional_degree")
    attribute(chow.ChowClass, "inverse", "chow.inverse")
    attribute(chow.ChowClass, "__mul__", "chow.class_mul")
    # the scanner reaches sympy through the module (sp.diff, sp.factor_list)
    # and through Matrix instances (sp.Matrix(...).det)
    attribute(sympy, "diff", "sympy.diff")
    attribute(sympy, "factor_list", "sympy.factor_list")
    attribute(sympy.Matrix, "det", "sympy.det")
