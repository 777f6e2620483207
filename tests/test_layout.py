"""Source layout: sympy is confined to rings and factorization, one gate
decides what counts as an exact number, and the CLI reads oracle reports
only through the documents their ``to_dict`` builds.

Every module of the package is parsed, so a sympy call or a report read
on a path no test runs is still seen.  Ring elements print themselves, so no
module turns one into a sympy expression.
"""

import ast
import dataclasses
from pathlib import Path

from scrolljets import scanner

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "scrolljets").glob("*.py"))
FORBIDDEN = {"Matrix", "diff"}
EXPRESSION_NAMES = {"as_expr", "sstr", "sympify", "Symbol", "Expr"}
SCANNER_SYMPY_NAMES = {"ring", "ZZ", "PolyElement"}
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
    "wronskian_at_infinity",
}


def test_sympy_is_imported_by_the_scanner_only_and_never_differentiates():
    assert len(MODULES) >= 7
    importers = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "sympy":
                        importers.add(path.name)
                        aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy":
                importers.add(path.name)
                names = {alias.name for alias in node.names}
                assert not names & FORBIDDEN, f"{path.name}:{node.lineno} imports {names}"
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            where = f"{path.name}:{node.lineno}"
            assert node.func.attr != "det", f"{where} calls .det("
            owner = node.func.value
            if isinstance(owner, ast.Name) and owner.id in aliases:
                assert node.func.attr not in FORBIDDEN, f"{where} calls {owner.id}.{node.func.attr}"
    assert importers == {"scanner.py"}


def test_no_module_builds_sympy_expressions():
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute):
                assert node.attr not in EXPRESSION_NAMES, f"{where} uses .{node.attr}"
            elif isinstance(node, ast.Name):
                assert node.id not in EXPRESSION_NAMES, f"{where} names {node.id}"
            elif isinstance(node, ast.Import):
                modules = {alias.name.split(".")[0] for alias in node.names}
                assert "sympy" not in modules, f"{where} imports sympy as a module"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sympy"):
                names = {alias.name for alias in node.names}
                assert names <= SCANNER_SYMPY_NAMES, f"{where} imports {names} from sympy"


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
