import json

from scrolljets.cli import main


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


def test_output_is_deterministic(capsys):
    first = run(capsys, "scan", "--scroll", "1,3", "--samples", "60", "--json")
    second = run(capsys, "scan", "--scroll", "1,3", "--samples", "60", "--json")
    assert first == second
