import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrolljets.cli import main
from scrolljets.scrollmodel import DecomposableScroll


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_degree_verb(capsys):
    code, out, _ = run(capsys, "degree", "--n", "2", "--ambient", "5", "--d", "4", "--g", "0")
    assert code == 0
    assert "inflectional locus degree: 0" in out


def test_degree_verb_formal(capsys):
    code, out, _ = run(capsys, "degree", "--n", "2", "--ambient", "5")
    assert code == 0
    assert "3*d + 12*g - 12" in out


def test_class_verb_with_rational_values(capsys):
    # numeric d and g are read as exact rationals, never as floats
    code, out, _ = run(capsys, "class", "--n", "2", "--ambient", "4", "--d", "3/2", "--g", "-7")
    assert code == 0
    assert out == "scroll: n=2 in P^4 (k=2, ell=1)\ninflectional locus class: L - 61*F\n"
    code, doc, _ = run_json(capsys, "class", "--n", "3", "--ambient", "7", "--d", "3/2")
    assert code == 0
    assert doc["inputs"]["d"] == "3/2"
    assert doc["result"]["class"] == "L^2 + (14*g - 11)*L*F"


def test_class_and_degree_help_say_values_are_substituted(capsys):
    for verb in ("class", "degree"):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert text.count("no check that a scroll of that degree or genus exists") == 2, verb


def test_class_verb_json(capsys):
    code, doc, _ = run_json(
        capsys, "class", "--n", "2", "--ambient", "4", "--d", "3", "--g", "0"
    )
    assert code == 0
    assert doc["schema"] == 1
    assert doc["verb"] == "class"
    assert doc["result"]["class"] == "L - 2*F"
    assert doc["result"]["source"] == "segre-closed-form"


def test_verify_theorem3_small(capsys):
    code, doc, _ = run_json(capsys, "verify-theorem3", "--max-n", "3", "--max-k", "3")
    assert code == 0
    assert doc["result"]["identities"] == sum(3 * n for n in range(1, 4))
    assert doc["result"]["all_pass"] is True
    assert doc["result"]["failures"] == []


def test_verify_theorem3_default_grid(capsys):
    code, doc, _ = run_json(capsys, "verify-theorem3")
    assert code == 0
    assert doc["result"]["identities"] == 126
    assert doc["result"]["all_pass"] is True


def test_verify_theorem3_failure_exits_nonzero(capsys, monkeypatch):
    import scrolljets.cli as cli_mod
    from scrolljets.chow import ChowClass

    monkeypatch.setattr(cli_mod, "segre_term", lambda n, k, j: ChowClass.unit(n))
    code, doc, _ = run_json(capsys, "verify-theorem3", "--max-n", "2", "--max-k", "1")
    assert code == 1
    assert doc["result"]["all_pass"] is False
    assert doc["result"]["failures"] == [
        {"n": 1, "k": 1, "j": 1}, {"n": 2, "k": 1, "j": 1}, {"n": 2, "k": 1, "j": 2}
    ]
    code, out, _ = run(capsys, "verify-theorem3", "--max-n", "2", "--max-k", "1")
    assert code == 1
    assert out.endswith("3 identities checked, 3 failed\n")


# one valid command line per verb
VERB_ARGVS = [
    ("class", "--n", "2", "--ambient", "4"),
    ("degree", "--n", "2", "--ambient", "5", "--d", "4"),
    ("verify-theorem3", "--max-n", "2", "--max-k", "2"),
    ("classify", "--n", "2", "--k", "2", "--ell", "2"),
    ("scan", "--scroll", "1,3", "--samples", "20"),
    ("wronskian", "--degrees", "3", "--k", "3"),
    ("cross-validate", "--scroll", "1,2"),
    ("ranks", "--n", "2", "--k", "2"),
]


def test_every_verb_builds_the_same_document(capsys):
    assert {argv[0] for argv in VERB_ARGVS} == set(OPTIONS) | {"wronskian"}
    for argv in VERB_ARGVS:
        code, doc, err = run_json(capsys, *argv)
        assert code == 0 and err == "", argv
        expected = {"schema", "verb", "inputs", "result"}
        if argv[0] == "scan":
            expected.add("certificate")
        assert set(doc) == expected, argv
        assert doc["schema"] == 1
        assert doc["verb"] == argv[0]


def test_cross_validate_mismatch_exits_nonzero(capsys, monkeypatch):
    import scrolljets.cli as cli_mod
    from scrolljets.scanner import CrossValidationReport
    from scrolljets.scrollmodel import DecomposableScroll

    def fake(scroll, k=None, samples=200, seed=0):
        return CrossValidationReport(
            scroll=DecomposableScroll((1, 2)),
            k=2,
            ell=1,
            oracle="determinant-divisor",
            verdict="MISMATCH",
            formula_class="L - 2*F",
            formula_degree="1",
            oracle_summary={},
            notes=(),
        )

    monkeypatch.setattr(cli_mod, "cross_validate", fake)
    code, out, _ = run(capsys, "cross-validate", "--scroll", "1,2")
    assert code == 1
    assert "MISMATCH" in out


def test_classify_verb(capsys):
    code, out, _ = run(capsys, "classify", "--n", "2", "--k", "2", "--ell", "2")
    assert code == 0
    assert "balanced" in out
    code, out, _ = run(capsys, "classify", "--n", "3", "--k", "2", "--ell", "1")
    assert code == 0
    assert "necessarily inflected" in out


def test_scan_verb_json_carries_certificate(capsys):
    code, doc, _ = run_json(
        capsys, "scan", "--scroll", "1,3", "--k", "2", "--samples", "80", "--seed", "7"
    )
    assert code == 0
    assert doc["result"]["inflected_count"] > 0
    sample = doc["certificate"]["inflected"][0]
    assert sample["corank"] == 1
    assert sample["jet_matrix"]


def test_wronskian_verb_with_basis_file(capsys, tmp_path):
    path = tmp_path / "basis.txt"
    path.write_text("1\n0 1\n0 0 1\n0 0 0 0 1\n")
    code, doc, _ = run_json(capsys, "wronskian", "--basis", str(path), "--k", "3")
    assert code == 0
    assert doc["result"]["total"] == 4
    assert doc["result"]["infinity_weight"] == 3


def test_wronskian_verb_json_with_double_root(capsys, tmp_path):
    # the Wronskian has the factor u**2, whose multiplicity must reach the
    # JSON document as a plain integer
    path = tmp_path / "basis.txt"
    path.write_text("3 -1 1 -2 0 -2\n-4 -2 -3 -2 -2 5\n1 5 3 -3 2 1\n-1 5 2 3 -2 -3\n")
    code, doc, _ = run_json(capsys, "wronskian", "--basis", str(path), "--k", "3")
    assert code == 0
    assert doc["result"]["rational_points"] == [{"u": "0", "weight": 2}]
    assert doc["result"]["total"] == 8


def test_wronskian_verb_requires_one_source(capsys):
    code, _, err = run(capsys, "wronskian", "--k", "3")
    assert code == 1
    assert "error:" in err


def test_cross_validate_match(capsys):
    code, doc, _ = run_json(capsys, "cross-validate", "--scroll", "1,2")
    assert code == 0
    assert doc["result"]["verdict"] == "MATCH"
    assert doc["result"]["formula_class"] == "L - 2*F"


def test_cross_validate_hypothesis_violated_exit_zero(capsys):
    # a violation is a legitimate report state, not a correctness alarm
    code, doc, _ = run_json(capsys, "cross-validate", "--scroll", "1,3")
    assert code == 0
    assert doc["result"]["verdict"] == "HYPOTHESIS-VIOLATED"


def test_ranks_verb(capsys):
    code, doc, _ = run_json(capsys, "ranks", "--n", "2", "--k", "2")
    assert code == 0
    assert doc["result"]["rank_jet"] == 6
    assert doc["result"]["rank_osculating"] == 5


def test_invalid_input_is_one_line_diagnostic(capsys):
    for argv in (
        ("degree", "--n", "2", "--ambient", "2"),
        ("scan", "--scroll", "2,2", "--samples", "0"),
        ("scan", "--scroll", "2,2", "--samples", "-5"),
        ("scan", "--scroll", ",".join(["1"] * 20), "--samples", "1"),
        ("wronskian", "--basis", "/nonexistent", "--k", "3"),
        ("verify-theorem3", "--max-n", "0"),
        ("verify-theorem3", "--max-k", "-3"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")


def test_inconsistent_determinant_charts_are_one_line_diagnostic(capsys, monkeypatch):
    import scrolljets.scanner as scanner_mod

    def disagreeing(scroll, k):
        raise scanner_mod.InconsistentCharts(
            "determinant vanishes in some charts but not all; inconsistent model"
        )

    monkeypatch.setattr(scanner_mod, "determinant_divisor", disagreeing)
    code, out, err = run(capsys, "cross-validate", "--scroll", "1,2")
    assert code == 1
    assert out == ""
    assert err == "error: determinant vanishes in some charts but not all; inconsistent model\n"


def test_full_support_rank_dropping_in_one_chart_is_inconsistent(capsys, monkeypatch):
    # the model self-check: charts that disagree on the generic rank stop
    # the oracle before any ring determinant, and the CLI prints one line
    import scrolljets.scanner as scanner_mod

    original = scanner_mod.full_support_rank

    def drops_at_infinity(scroll, k, base_chart, fiber_chart):
        rank = original(scroll, k, base_chart, fiber_chart)
        return rank - 1 if (base_chart, fiber_chart) == ("inf", 2) else rank

    monkeypatch.setattr(scanner_mod, "full_support_rank", drops_at_infinity)
    with pytest.raises(scanner_mod.InconsistentCharts):
        scanner_mod.determinant_divisor(DecomposableScroll((1, 2)), 2)
    code, out, err = run(capsys, "cross-validate", "--scroll", "1,2")
    assert code == 1
    assert out == ""
    assert err == "error: determinant vanishes in some charts but not all; inconsistent model\n"


def test_output_is_deterministic(capsys):
    first = run(capsys, "scan", "--scroll", "1,3", "--samples", "60", "--json")
    second = run(capsys, "scan", "--scroll", "1,3", "--samples", "60", "--json")
    assert first == second


# ---------------------------------------------------------------------------
# random argv: every verb ends in an exit code, never in a traceback
# ---------------------------------------------------------------------------


def mostly(valid, invalid):
    """Valid values three times in four."""
    return st.integers(0, 3).flatmap(lambda i: invalid if i == 3 else valid)


junk = st.sampled_from(["", "x", "1.5", "3/2", "1/0", "True", "-0", "2e1"])
small = mostly(st.integers(1, 3).map(str), st.one_of(st.integers(-1, 0).map(str), junk))
ambient = mostly(st.integers(2, 8).map(str), st.one_of(st.integers(-1, 1).map(str), junk))
bound = mostly(st.integers(1, 3).map(str), st.sampled_from(["0", "-1", "x"]))
samples = mostly(st.integers(1, 20).map(str), st.sampled_from(["0", "-1", "2.5", "x"]))
rational = mostly(
    st.sampled_from(["0", "3", "-7", "3/2", "-7/3", "1.7"]), st.sampled_from(["1/0", "x", ""])
)
scroll_spec = mostly(
    st.lists(st.integers(1, 4), min_size=1, max_size=3).map(lambda a: ",".join(map(str, a))),
    st.one_of(st.sampled_from(["0", "-1,2", "1,,2"]), junk),
)

# verb -> option -> (value strategy, chance in ten that the option is given)
OPTIONS = {
    "class": {"--n": (small, 9), "--ambient": (ambient, 9), "--d": (rational, 5),
              "--g": (rational, 5)},
    "degree": {"--n": (small, 9), "--ambient": (ambient, 9), "--d": (rational, 5),
               "--g": (rational, 5)},
    "verify-theorem3": {"--max-n": (bound, 5), "--max-k": (bound, 5)},
    "classify": {"--n": (small, 9), "--k": (small, 9), "--ell": (small, 9)},
    "scan": {"--scroll": (scroll_spec, 9), "--k": (small, 3), "--samples": (samples, 7),
             "--seed": (small, 3)},
    "cross-validate": {"--scroll": (scroll_spec, 9), "--k": (small, 3),
                       "--samples": (samples, 7), "--seed": (small, 3)},
    "ranks": {"--n": (small, 9), "--k": (small, 9)},
}


@st.composite
def argvs(draw):
    """A random command line; a wronskian basis is a list of rows, written out by the test."""
    verb = draw(st.sampled_from(sorted(OPTIONS) + ["wronskian"]))
    argv = [verb]
    if verb == "wronskian":
        k = draw(st.integers(1, 4))
        argv += ["--k", draw(mostly(st.just(str(k)), small))]
        source = draw(st.sampled_from(["--degrees", "--basis", "--basis", "both", "neither"]))
        if source in ("--degrees", "both"):
            argv += ["--degrees", draw(mostly(st.just(str(k)), scroll_spec))]
        if source in ("--basis", "both"):
            count = draw(mostly(st.just(k + 1), st.integers(1, 5)))
            row = st.lists(st.integers(-3, 3), min_size=1, max_size=5)
            argv += ["--basis", draw(st.lists(row, min_size=count, max_size=count))]
    else:
        for option, (values, chance) in OPTIONS[verb].items():
            if draw(st.integers(0, 9)) < chance:
                argv += [option, draw(values)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_random_argv_never_raises(argv):
    argv = list(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if "--basis" in argv:
            at = argv.index("--basis") + 1
            path = Path(tmp) / "basis.txt"
            path.write_text("".join(" ".join(map(str, row)) + "\n" for row in argv[at]))
            argv[at] = str(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit_:  # argparse: usage errors exit 2
                code = exit_.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0 and "--json" in argv:
        json.loads(out.getvalue())


def test_module_runs_from_a_checkout(tmp_path):
    # python -m scrolljets needs no install: src on PYTHONPATH is enough
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-m", "scrolljets", "verify-theorem3", "--max-n", "2", "--max-k", "2"]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "0 failed" in done.stdout
