"""Source layout: no module imports sympy (determinants and roots are
integer arithmetic in the package itself, and sympy serves only the tests'
reference models), one gate decides what counts as an exact number, one
module converts exact numbers to and from text, and the CLI reads oracle
reports only through the documents their ``to_dict`` builds.

Every module of the package is parsed, so a sympy import or a report read
on a path no test runs is still seen.
"""

import ast
import dataclasses
from pathlib import Path

from scrolljets import scanner

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "scrolljets").glob("*.py"))
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


def test_no_module_imports_sympy():
    assert len(MODULES) >= 8
    importers = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules = {(node.module or "").split(".")[0]}
            else:
                continue
            if "sympy" in modules:
                importers.add(f"{path.name}:{node.lineno}")
    assert importers == set()


def import_time_statements(statements):
    """The statements a module runs when it is imported: every one but those
    in function bodies and in ``if TYPE_CHECKING:`` blocks."""
    for node in statements:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        test = getattr(node, "test", None)
        if isinstance(node, ast.If) and "TYPE_CHECKING" in {
            getattr(test, "id", None), getattr(test, "attr", None)
        }:
            yield from import_time_statements(node.orelse)
            continue
        for field in ("body", "handlers", "orelse", "finalbody"):
            yield from import_time_statements(getattr(node, field, []))


def test_no_module_imports_sympy_at_import_time():
    # the import-time half of the test above, kept as the guard a lazy
    # import for a future optional feature would still have to pass
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in import_time_statements(tree.body):
            if isinstance(node, ast.Import):
                modules = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules = {(node.module or "").split(".")[0]}
            else:
                continue
            assert "sympy" not in modules, f"{path.name}:{node.lineno} imports sympy at import time"


def test_no_module_builds_sympy_expressions():
    # polynomials print themselves (intpoly.IntPoly), so no module names a
    # sympy expression API or a symbolic .det / .diff, even on an object it
    # was handed
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute):
                forbidden = EXPRESSION_NAMES | SYMBOLIC_CALCULUS
                assert node.attr not in forbidden, f"{where} uses .{node.attr}"
            elif isinstance(node, ast.Name):
                assert node.id not in EXPRESSION_NAMES, f"{where} names {node.id}"


def test_chart_determinant_takes_nothing_from_the_formulas():
    # the oracle's degree and coefficient bounds come from the matrix it
    # eliminates; a bound read off the class formulas would make the oracle
    # depend on what it checks
    (path,) = [path for path in MODULES if path.name == "scanner.py"]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    from_formulas = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "formulas"
        for alias in node.names
    }
    assert {"inflectional_class", "curve_inflection_degree"} <= from_formulas
    (function,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_chart_determinant"
    ]
    for node in ast.walk(function):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        assert name not in from_formulas | {"formulas"}, f"scanner.py:{node.lineno} uses {name}"


def test_formulas_take_only_the_scroll_type_and_the_gates_from_the_model():
    # the formula side names the scroll its classification returns and
    # validates its numbers, but never calls the rank, jet or scan code
    # that the oracles compute with
    (path,) = [path for path in MODULES if path.name == "formulas.py"]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    oracle_modules = {"scrollmodel", "scanner"}
    from_model = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = {alias.name.rpartition(".")[2] for alias in node.names}
            assert not names & oracle_modules, f"formulas.py:{node.lineno}"
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            names = {alias.name for alias in node.names}
            assert module != "scanner" and not names & oracle_modules, f"formulas.py:{node.lineno}"
            if module == "scrollmodel":
                from_model |= names
    assert "DecomposableScroll" in from_model
    allowed = {"DecomposableScroll", "jet_order", "scroll_dimension"} | EXACTNESS_GATES
    assert from_model <= allowed, from_model - allowed


def test_only_the_exactness_gates_test_number_types():
    seen = 0
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname or a.name for a in node.names if a.name == "numbers"}
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "numbers", f"{path.name}:{node.lineno} imports from numbers"
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
                    f"{path.name}:{node.lineno} tests numbers.{node.attr} outside "
                    f"{sorted(EXACTNESS_GATES)}"
                )
                seen += 1
    assert seen >= len(EXACTNESS_GATES)  # the gates themselves are found


def test_one_module_converts_exact_numbers_to_and_from_text():
    # decimal carries digits past Python's int/text limit, so only the codec's
    # module imports it, and no module changes that limit for the interpreter
    importers = set()
    for path in MODULES:
        source = path.read_text(encoding="utf-8")
        assert "set_int_max_str_digits" not in source, path.name
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if isinstance(node, ast.Import):
                modules = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules = {(node.module or "").split(".")[0]}
            else:
                continue
            if "decimal" in modules:
                importers.add(path.name)
    assert importers == {"scrollmodel.py"}


def test_cli_reads_oracle_reports_only_through_their_documents():
    # text and --json are printed from one document, so the CLI never reads
    # an answer off a report attribute
    known = set()
    for report in REPORTS:
        known |= {field.name for field in dataclasses.fields(report)}
        known |= {name for name, value in vars(report).items() if isinstance(value, property)}
    assert REPORT_FIELDS <= known, REPORT_FIELDS - known
    (path,) = [path for path in MODULES if path.name == "cli.py"]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in REPORT_FIELDS, f"cli.py:{node.lineno} reads .{node.attr}"


def test_only_cross_validate_reads_the_verdicts():
    # each oracle answers whether its measurement agrees with the formula, or
    # None for a failed hypothesis; the verdict is built in one place
    (path,) = [path for path in MODULES if path.name == "scanner.py"]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (function,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "cross_validate"
    ]
    inside = {id(node) for node in ast.walk(function)}
    verdicts = {"MATCH", "MISMATCH", "HYPOTHESIS_VIOLATED"}
    reads = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in verdicts and isinstance(node.ctx, ast.Load)
    ]
    assert {node.id for node in reads} == verdicts
    for node in reads:
        assert id(node) in inside, f"scanner.py:{node.lineno} reads {node.id}"
