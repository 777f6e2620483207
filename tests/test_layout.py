"""Source layout: no module imports sympy (determinants and roots are
integer arithmetic in the package itself, and sympy serves only the tests'
reference models), one gate decides what counts as an exact number, one
module converts exact numbers to and from text, the CLI reads oracle
reports only through the documents their ``to_dict`` builds, one
function builds the certificate text that the JSON writer prints unchecked,
and a chart's jet matrix has one cached layout.

Every module of the package is parsed, once, so a sympy import or a report
read on a path no test runs is still seen.
"""

import ast
import dataclasses
from pathlib import Path

from scrolljets import scanner

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scrolljets"
SOURCES = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
TREES = {name: ast.parse(source, filename=name) for name, source in SOURCES.items()}
EXPRESSION_NAMES = {"as_expr", "sstr", "sympify", "Symbol", "Expr"}
SYMBOLIC_CALCULUS = {"det", "diff"}  # determinants are integer eliminations; nothing differentiates
EXACTNESS_GATES = {"exact_int", "exact_rational"}
NUMBER_TYPES = {"Integral", "Rational"}
REPORTS = (
    scanner.ScanReport,
    scanner.InflectedSample,
    scanner.WronskianReport,
    scanner.CrossValidationReport,
)
# fields and properties that only an oracle report has
REPORT_FIELDS = {
    "notes", "inflected", "points_examined", "samples_requested", "full_rank", "clean_count",
    "corank", "verdict", "formula_class", "formula_degree", "oracle_summary", "rational_points",
    "infinity_weight", "finite_total", "total", "degenerate", "wronskian",
    "wronskian_at_infinity", "orbit_ranks", "locus",
}


def imports(tree):
    """Every alias of every import statement in ``tree``, anywhere in it, as (node, module,
    alias): the module is the one an ``import`` names, or the one a ``from`` imports from,
    without a relative import's dots ("" for ``from . import``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node, alias.name, alias) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node, node.module or "", alias) for alias in node.names)


def importers(package):
    """(module file, line) of every import of ``package`` or of one of its submodules."""
    return {
        (name, node.lineno)
        for name, tree in TREES.items()
        for node, module, _ in imports(tree)
        if module.split(".")[0] == package
    }


def function(name, module="scanner.py"):
    """The one function of that name that the module defines."""
    (node,) = [
        node for node in ast.walk(TREES[module])
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return node


def test_no_module_imports_sympy():
    # at import time or lazily, inside a function or a dead branch alike
    assert len(TREES) >= 8
    assert importers("sympy") == set()


def test_no_module_builds_sympy_expressions():
    # polynomials print themselves (intpoly.IntPoly), so no module names a
    # sympy expression API or a symbolic .det / .diff, even on an object it
    # was handed
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            where = f"{name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute):
                forbidden = EXPRESSION_NAMES | SYMBOLIC_CALCULUS
                assert node.attr not in forbidden, f"{where} uses .{node.attr}"
            elif isinstance(node, ast.Name):
                assert node.id not in EXPRESSION_NAMES, f"{where} names {node.id}"


def test_chart_determinant_takes_nothing_from_the_formulas():
    # the oracle's degree and coefficient bounds come from the matrix it
    # eliminates; a bound read off the class formulas would make the oracle
    # depend on what it checks
    from_formulas = {
        alias.asname or alias.name
        for _, module, alias in imports(TREES["scanner.py"])
        if module == "formulas"
    }
    assert {"inflectional_class", "curve_inflection_degree"} <= from_formulas
    for node in ast.walk(function("_chart_determinant")):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        assert name not in from_formulas | {"formulas"}, f"scanner.py:{node.lineno} uses {name}"


def test_formulas_take_only_the_scroll_type_and_the_gates_from_the_model():
    # the formula side names the scroll its classification returns and
    # validates its numbers, but never calls the rank, jet or scan code
    # that the oracles compute with
    oracle_modules = {"scrollmodel", "scanner"}
    from_model = set()
    for node, module, alias in imports(TREES["formulas.py"]):
        module = module.rpartition(".")[2]
        imported = alias.name.rpartition(".")[2]
        assert module != "scanner" and imported not in oracle_modules, f"formulas.py:{node.lineno}"
        if module == "scrollmodel":
            from_model.add(alias.name)
    assert "DecomposableScroll" in from_model
    allowed = {"DecomposableScroll", "jet_order", "scroll_dimension"} | EXACTNESS_GATES
    assert from_model <= allowed, from_model - allowed


def test_only_the_exactness_gates_test_number_types():
    seen = 0
    for name, tree in TREES.items():
        aliases = set()
        for node, module, alias in imports(tree):
            if module == "numbers":
                assert isinstance(node, ast.Import), f"{name}:{node.lineno} imports from numbers"
                aliases.add(alias.asname or alias.name)
        inside_gates = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in EXACTNESS_GATES
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in NUMBER_TYPES
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                assert id(node) in inside_gates, (
                    f"{name}:{node.lineno} tests numbers.{node.attr} outside "
                    f"{sorted(EXACTNESS_GATES)}"
                )
                seen += 1
    assert seen >= len(EXACTNESS_GATES)  # the gates themselves are found


def test_one_module_converts_exact_numbers_to_and_from_text():
    # decimal carries digits past Python's int/text limit, so only the codec's
    # module imports it, and no module changes that limit for the interpreter
    for name, source in SOURCES.items():
        assert "set_int_max_str_digits" not in source, name
    assert {name for name, _ in importers("decimal")} == {"scrollmodel.py"}


def test_cli_reads_oracle_reports_only_through_their_documents():
    # text and --json are printed from one document, so the CLI never reads
    # an answer off a report attribute
    known = set()
    for report in REPORTS:
        known |= {field.name for field in dataclasses.fields(report)}
        known |= {name for name, value in vars(report).items() if isinstance(value, property)}
    assert REPORT_FIELDS <= known, REPORT_FIELDS - known
    for node in ast.walk(TREES["cli.py"]):
        if isinstance(node, ast.Attribute):
            assert node.attr not in REPORT_FIELDS, f"cli.py:{node.lineno} reads .{node.attr}"


def test_only_cross_validate_reads_the_verdicts():
    # each oracle answers whether its measurement agrees with the formula, or
    # None for a failed hypothesis; the verdict is built in one place
    inside = {id(node) for node in ast.walk(function("cross_validate"))}
    verdicts = {"MATCH", "MISMATCH", "HYPOTHESIS_VIOLATED"}
    reads = [
        node
        for node in ast.walk(TREES["scanner.py"])
        if isinstance(node, ast.Name) and node.id in verdicts and isinstance(node.ctx, ast.Load)
    ]
    assert {node.id for node in reads} == verdicts
    for node in reads:
        assert id(node) in inside, f"scanner.py:{node.lineno} reads {node.id}"


def test_only_jet_text_builds_a_certificate_text():
    # the JSON writer prints a _JetText with no per-entry type or escape
    # check, which holds only because one function, which writes every entry
    # as str(int) or "a/b", builds one.  So the type is named only in its
    # class statement, in _jet_text, in cli's plain import of it and in the
    # writer's type tests (`kind not in (..., _JetText)`, `kind is _JetText`):
    # an alias, a map or partial of it, a __new__ handed it or a getattr by
    # name is refused.  Nor does a module call a value's own type, as
    # type(rows)(...) or rows.__class__(...) would, from a certificate in hand
    built, stray = [], []
    allowed = set(map(id, ast.walk(function("_jet_text", "scrollmodel.py"))))
    allowed |= {id(alias) for _, _, alias in imports(TREES["cli.py"]) if alias.asname is None}
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if name == "scrollmodel.py" and isinstance(node, ast.ClassDef):
                allowed.add(id(node))
            elif name == "cli.py" and isinstance(node, ast.Compare):
                for op, right in zip(node.ops, node.comparators):
                    if isinstance(op, ast.Is):
                        allowed.add(id(right))
                    elif isinstance(op, ast.NotIn) and isinstance(right, ast.Tuple):
                        allowed |= set(map(id, right.elts))
        for node in ast.walk(tree):
            where = f"{name}:{getattr(node, 'lineno', '?')}"
            fields = [getattr(node, field, None) for field in ("id", "attr", "name", "asname")]
            if isinstance(node, ast.Constant):
                fields.append(node.value)
            if "_JetText" in fields and id(node) not in allowed:
                stray.append(where)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_JetText":
                built.append(where)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Call):
                if getattr(node.func.func, "id", None) == "type":
                    stray.append(where)
            if getattr(node, "attr", None) == "__class__":
                stray.append(where)
    assert len(built) == 1 and built[0].startswith("scrollmodel.py") and stray == [], (built, stray)


def test_only_the_chart_template_and_the_segre_inverse_are_lru_cached():
    # a chart's jet matrix has one layout, jet_template's, in one bounded
    # cache, and chern keeps one for the Segre inverse; cli's one parser is
    # functools.cache'd.  So a second chart layout cache fails here: every
    # name of either decorator in the package decorates one of these three,
    # or is a plain import of it
    decorators = {"lru_cache", "cache"}
    cached, stray = {}, []
    for name, tree in TREES.items():
        allowed = {id(alias) for _, _, alias in imports(tree) if alias.asname is None}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    called = getattr(target, "id", None) or getattr(target, "attr", None)
                    if called in decorators:
                        cached[f"{name.removesuffix('.py')}.{node.name}"] = called
                        allowed.add(id(target))
        for node in ast.walk(tree):
            fields = {getattr(node, field, None) for field in ("id", "attr", "name", "asname")}
            if fields & decorators and id(node) not in allowed:
                stray.append(f"{name}:{getattr(node, 'lineno', '?')}")
    assert cached == {
        "scrollmodel.jet_template": "lru_cache",
        "chern._segre_class": "lru_cache",
        "cli._parser": "cache",
    }, cached
    assert stray == [], stray
