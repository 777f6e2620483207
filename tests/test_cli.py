import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scrolljets.cli import _document_text, _scroll, main
from scrolljets.intpoly import IntPoly
from scrolljets.scrollmodel import (
    BASE_INF,
    BASE_ZERO,
    DecomposableScroll,
    ScrollPoint,
    _jet_text,
    _JetText,
    _rational,
    jet_matrix,
)


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


#: SHA-256 of the standard output of certified scans, each certificate an
#: exact Fraction jet matrix printed in lowest terms
CERTIFIED_SCAN_DIGESTS = (
    (("--scroll", "1,1,4"), "fb654139a9300217b98bf4c42e9394a6ee0eb412430c063b30d12ce5488a637a"),
    (("--scroll", "5,7"), "9003baff4555d72db2918d3ca3ae15fe7e97bb021290c32e45710cddb9c1bbe9"),
    (("--scroll", "2,3", "--k", "3"),
     "851fc05440dcbd36fe272db19898045d35512fcaa986e172b584c83d2c0d647d"),
)


def test_certified_scan_bytes_are_pinned(capsys):
    # the certificate bytes must not depend on how the entries are computed
    # nor on the Python version
    for argv, digest in CERTIFIED_SCAN_DIGESTS:
        code, out, _ = run(capsys, "scan", *argv, "--samples", "100", "--seed", "7", "--json")
        assert code == 0
        assert json.loads(out)["certificate"]["inflected"], argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


#: SHA-256 of the standard output of --json documents whose bytes depend on
#: the scan sampler's draws: a cross-validate with a MATCH scan oracle and 10
#: certificates, one with an empty stratum table, a wrong-dimension
#: HYPOTHESIS-VIOLATED, a square oracle, a scan with eight zero patterns per
#: chart (n = 4) and a curve scan, which never takes a zero pattern (n = 1)
SAMPLED_DOCUMENT_DIGESTS = (
    (("cross-validate", "--scroll", "1,2,2", "--samples", "100", "--seed", "7"),
     "2113863a0a8589b453f4bb463b865deb80311fd8794b88858d5f533d4192ea84"),
    (("cross-validate", "--scroll", "2,2,2", "--samples", "100", "--seed", "7"),
     "08a63a099826b90cfdb15ab62f046bf5ec03ef5d5a70afad3066482cad918c2f"),
    (("cross-validate", "--scroll", "1,1,3", "--samples", "100", "--seed", "7"),
     "e2c2aa9ed373ff0acd526a0eac0c6f24f3a71344de9fee0963e68bf630a5d7fb"),
    (("cross-validate", "--scroll", "4,4,5"),
     "2a70664c40d0f92fcf15c050da4b0b49ffadaa5ae8d13cd429973574e9697511"),
    (("scan", "--scroll", "1,1,1,2", "--samples", "200", "--seed", "7"),
     "c8431b42680a8bcc5963f56e814fff03f940b95f6f6594357e66686875ad1b4c"),
    (("scan", "--scroll", "3", "--k", "2", "--samples", "50", "--seed", "7"),
     "ccc470fd318f0fd6572f8b70cca8835cf9d7a00f8ca95702835356089162ed8a"),
)


def test_sampled_document_bytes_are_pinned(capsys):
    # the same bytes on every Python the package supports
    for argv, digest in SAMPLED_DOCUMENT_DIGESTS:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


#: one --json command line for each verb and branch, and a basis file each
#: wronskian names: "root" has the rational double root u = 0, "dependent"
#: repeats a row
JSON_ARGVS = [
    ("class", "--n", "2", "--ambient", "4"),
    ("class", "--n", "3", "--ambient", "7", "--d", "3/2", "--g", "-7"),
    ("degree", "--n", "2", "--ambient", "5"),
    ("degree", "--n", "2", "--ambient", "5", "--d", "4", "--g", "0"),
    ("verify-theorem3", "--max-n", "2", "--max-k", "2"),
    ("classify", "--n", "3", "--k", "2", "--ell", "1"),
    # the balanced branch prints the tuple splitting_degrees
    ("classify", "--n", "2", "--k", "2", "--ell", "2"),
    ("ranks", "--n", "2", "--k", "3"),
    ("wronskian", "--basis", "root", "--k", "3"),
    ("wronskian", "--basis", "dependent", "--k", "2"),
    ("scan", "--scroll", "1,3", "--samples", "20"),
    ("cross-validate", "--scroll", "3"),
    ("cross-validate", "--scroll", "1,2"),
    ("cross-validate", "--scroll", "1,3"),
]


def test_every_json_document_is_the_stdlib_indented_text(capsys, tmp_path):
    bases = {
        "root": "3 -1 1 -2 0 -2\n-4 -2 -3 -2 -2 5\n1 5 3 -3 2 1\n-1 5 2 3 -2 -3\n",
        "dependent": "1 0 1\n2 0 2\n0 1\n",
    }
    for name, text in bases.items():
        (tmp_path / name).write_text(text)
    verbs, oracles = set(), set()
    for argv in JSON_ARGVS:
        argv = [str(tmp_path / arg) if arg in bases else arg for arg in argv]
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, ""), argv
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n", argv
        verbs.add(argv[0])
        if argv[0] == "cross-validate":
            oracles.add(doc["result"]["oracle"])
    assert verbs == set(OPTIONS) | {"wronskian"}
    assert oracles == {"wronskian", "determinant-divisor", "rank-scan"}


json_strings = st.one_of(
    st.text(max_size=5),
    st.lists(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\x7f", "é", "\u2028", "😀"]), max_size=5
    ).map("".join),
)
# a certificate's jet matrix: 1 to 4 rows of strings, as lists or tuples; a draw with no entry
# to escape takes the quoted-row join, and one with an entry to escape, an empty row or a row
# mixing a str with an int must be left to the per-item path
json_rows = st.one_of(
    st.lists(json_strings, min_size=1, max_size=4),
    st.lists(st.sampled_from(["0", "1", "-3/7", "12"]), min_size=1, max_size=4),
)
json_matrices = st.lists(
    st.one_of(
        json_rows,
        json_rows.map(tuple),
        st.just([]),
        st.tuples(json_strings, st.integers()),
    ),
    min_size=1,
    max_size=4,
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**300), 10**300) | json_strings,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(json_strings, max_size=5),
        st.dictionaries(json_strings, inner, max_size=5),
        json_matrices,
        json_matrices.map(tuple),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_document_text_is_the_stdlib_indented_text(value):
    assert _document_text(value) == json.dumps(value, indent=2, sort_keys=True)


WIDE_U = Fraction(10**30 + 1)  # at e = 160 its powers pass the 4,300 digits str writes
coordinates = st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=7))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    st.integers(1, 6),
    st.sampled_from([BASE_ZERO, BASE_INF]),
    st.integers(1, 4),
    coordinates,
    st.lists(coordinates, min_size=3, max_size=3),
)
@example([1, 160], 2, BASE_ZERO, 1, WIDE_U / 7, [Fraction(-2, 3)] * 3)
@example([1, 160], 2, BASE_INF, 2, WIDE_U, [Fraction(-2)] * 3)
@example([1, 160], 2, BASE_ZERO, 2, WIDE_U / 7, [Fraction(0)] * 3)
def test_a_certificate_is_written_unchecked_as_the_general_path_writes_it(
    degrees, k, base, iota, u, v
):
    # the writer joins a _JetText with no per-entry type or escape check, so
    # every certificate _jet_text makes, in every chart, at u = 0, at zero v_j
    # and past the int-to-text limit, must be exact str that need no escape,
    # and print as the stdlib and the writer's checked list path print its
    # plain tuples; and it must read back as jet_matrix, the template's other
    # evaluator, at the same point
    X = DecomposableScroll(tuple(degrees))
    k, iota = min(k, X.N // X.n), min(iota, X.n)
    point = ScrollPoint(base, u, iota, tuple(v[: X.n - 1]))
    rows = _jet_text(X, k, point)
    assert type(rows) is _JetText
    assert tuple(tuple(map(_rational, row)) for row in rows) == jet_matrix(X, k, point)
    entries = [x for row in rows for x in row]
    assert all(type(x) is str and encode_basestring_ascii(x) == f'"{x}"' for x in entries)
    text = _document_text({"m": rows})
    assert text == json.dumps({"m": rows}, indent=2, sort_keys=True)
    assert text == _document_text({"m": tuple(map(tuple, rows))})


class Text(str):
    """A str subclass, which has no exact JSON form however it prints."""


class Rows(tuple):
    """A tuple subclass other than a certificate's, which has no exact JSON form either."""


@pytest.mark.parametrize(
    "document",
    [
        1.5,
        Fraction(1, 2),
        {"result": {"degree": 0.0}},
        {"inflected": [{"jet_matrix": [["1", "2"], ["3", Fraction(4)]]}]},
        ["a", "b", float("nan")],
        ({"u": Fraction(-1, 3)},),
        {1: "a"},
        {"result": [{"point": {2: "b"}}]},
        {"result": {("a",): 0}},
        {"a": 1, 2: "b"},
        {"m": [["1", 1.5]]},
        [("1",), (Fraction(1),)],
        {"m": [["1", "2"], ["3", Text("4")]]},
        {"m": Rows((("1", "2"), ("3", "4")))},
    ],
    ids=["float", "fraction", "nested-float", "matrix-fraction", "nan-in-strings",
         "tuple-fraction", "int-key", "nested-int-key", "tuple-key", "mixed-keys",
         "matrix-float", "tuple-matrix-fraction", "matrix-str-subclass",
         "matrix-tuple-subclass"],
)
def test_a_document_with_a_float_a_fraction_or_a_non_str_key_is_refused(document):
    with pytest.raises(TypeError):
        _document_text(document)


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


def test_wronskian_verb_reports_a_dependent_basis(capsys, tmp_path):
    # twice the first row: no weights, a degenerate report and exit 0
    path = tmp_path / "basis.txt"
    path.write_text("1 0 1\n2 0 2\n0 1\n")
    code, out, err = run(capsys, "wronskian", "--basis", str(path), "--k", "2")
    assert (code, err) == (0, "")
    assert out == (
        "wronskian oracle, k=2, basis degree 2\n"
        "  wronskian: 0\n"
        "  at infinity: 0\n"
        "  degenerate basis (linearly dependent)\n"
        "  note: basis is linearly dependent; weights are undefined\n"
    )
    code, doc, _ = run_json(capsys, "wronskian", "--basis", str(path), "--k", "2")
    assert code == 0
    assert doc["result"]["degenerate"] is True and doc["result"]["total"] == 0


def test_wronskians_past_the_int_to_text_limit_print_from_the_cli(capsys):
    # prod h! over h <= 82 has 4,400 digits, past the 4,300 that str prints
    # by default; both verbs print it and exit 0, and leave the limit as it was
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for d in ("82", "90"):
        code, doc, err = run_json(capsys, "wronskian", "--degrees", d, "--k", d)
        assert (code, err) == (0, "")
        wronskian = doc["result"]["wronskian"]
        assert wronskian.isdigit() and len(wronskian) > 4300
        assert doc["result"]["total"] == 0
        code, out, err = run(capsys, "wronskian", "--degrees", d, "--k", d)
        assert (code, err) == (0, "")
        assert f"\n  wronskian: {wronskian}\n" in out
        code, out, err = run(capsys, "cross-validate", "--scroll", d)
        assert (code, err) == (0, "")
        assert out.endswith("  verdict: MATCH\n")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_values_past_the_int_to_text_limit_print_from_class_and_degree(capsys):
    # 1e5000 reads as 10^5000, whose 5,001 digits are past the 4,300 that str
    # prints by default; the echoed input, the class and the degree print in
    # full, in text and in --json, and the limit is left as it was
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    big = "1" + "0" * 5000
    two_big_less_12 = "1" + "9" * 4998 + "88"  # 2*10^5000 - 12
    three_big_less_12 = "2" + "9" * 4998 + "88"  # 3*10^5000 - 12
    twelve_big_less_12 = "11" + "9" * 4998 + "88"  # 12*10^5000 - 12
    header = "scroll: n=2 in P^5 (k=2, ell=2)\n"
    scroll = ("--n", "2", "--ambient", "5")

    code, out, err = run(capsys, "class", *scroll, "--d", "1e5000")
    assert (code, err) == (0, "")
    assert out == f"{header}inflectional locus class: L^2 + (12*g + {two_big_less_12})*L*F\n"
    code, doc, err = run_json(capsys, "class", *scroll, "--g", "1e5000")
    assert (code, err) == (0, "")
    assert (doc["inputs"]["d"], doc["inputs"]["g"]) == (None, big)
    assert doc["result"]["class"] == f"L^2 + (2*d + {twelve_big_less_12})*L*F"

    code, out, err = run(capsys, "degree", *scroll, "--d", "1e5000", "--g", "0")
    assert (code, err) == (0, "")
    assert out == f"{header}inflectional locus degree: {three_big_less_12}\n"
    code, doc, err = run_json(capsys, "degree", *scroll, "--d", "1e5000", "--g", "0")
    assert (code, err) == (0, "")
    assert (doc["inputs"]["d"], doc["inputs"]["g"]) == (big, "0")
    assert doc["result"]["degree"] == three_big_less_12
    code, out, err = run(capsys, "degree", *scroll, "--g", "1e5000")
    assert (code, err) == (0, "")
    assert out == f"{header}inflectional locus degree: 3*d + {twelve_big_less_12}\n"
    code, doc, err = run_json(capsys, "degree", *scroll, "--g", "1e5000")
    assert (code, err) == (0, "")
    assert (doc["inputs"]["d"], doc["inputs"]["g"]) == (None, big)
    assert doc["result"]["degree"] == f"3*d + {twelve_big_less_12}"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_plain_digits_past_the_int_to_text_limit_are_read_exactly(capsys, tmp_path):
    # int(text) stops at 4,300 digits by default: a 4,401-digit --d prints the
    # lines that 1e4400 prints, and a 4,401-digit basis coefficient and a root
    # of 4,401 digits print in text and in --json (checked as text, since
    # json.loads has the same limit); the limit is left as it was
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    big = "1" + "0" * 4400
    scroll = ("--n", "2", "--ambient", "5")
    for extra in ((), ("--json",)):
        plain = run(capsys, "degree", *scroll, "--d", big, *extra)
        assert plain == run(capsys, "degree", *scroll, "--d", "1e4400", *extra)
        assert plain[0] == 0 and "2" + "9" * 4398 + "88" in plain[1]  # 3*10^4400 - 12
    # W = 1 for the rows 1 + 10^4400 u and u
    (tmp_path / "wide.txt").write_text(f"1 {big}\n0 1\n", encoding="utf-8")
    code, out, err = run(capsys, "wronskian", "--basis", str(tmp_path / "wide.txt"), "--k", "1")
    assert (code, err) == (0, "")
    assert out.startswith("wronskian oracle, k=1, basis degree 1\n  wronskian: 1\n")
    code, out, err = run(capsys, "wronskian", "--basis", str(tmp_path / "wide.txt"), "--k", "1",
                         "--json")
    assert (code, err) == (0, "")
    assert out.count(f"        {big}\n") == 2  # the inputs' and the report's basis
    # W = u^2 - 2*10^4400 u for the rows u - 10^4400 and u^2
    (tmp_path / "root.txt").write_text(f"-{big} 1\n0 0 1\n", encoding="utf-8")
    root = "2" + "0" * 4400
    code, out, err = run(capsys, "wronskian", "--basis", str(tmp_path / "root.txt"), "--k", "1")
    assert (code, err) == (0, "")
    assert f"\n  weight 1 at u = {root}\n" in out
    code, out, err = run(capsys, "wronskian", "--basis", str(tmp_path / "root.txt"), "--k", "1",
                         "--json")
    assert (code, err) == (0, "")
    assert f'"u": "{root}",' in out
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


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


def test_cross_validate_wrong_dimension_is_violation(capsys):
    # the locus of (1,1,3) is the surface P(O(1)+O(1)), not the expected curve
    code, out, _ = run(capsys, "cross-validate", "--scroll", "1,1,3")
    assert code == 0
    assert "verdict: HYPOTHESIS-VIOLATED" in out


def test_ranks_verb(capsys):
    code, doc, _ = run_json(capsys, "ranks", "--n", "2", "--k", "2")
    assert code == 0
    assert doc["result"]["rank_jet"] == 6
    assert doc["result"]["rank_osculating"] == 5


def test_ranks_past_the_int_to_text_limit_print_from_the_cli(capsys):
    # C(16000, 8000) has 4,815 digits, past the 4,300 that str prints by
    # default; the text and the --json both print it and exit 0 (checked as
    # text, since json.loads has the same limit), and leave the limit as it was
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    rank_jet = str(Decimal(comb(16000, 8000)))
    assert len(rank_jet) == 4815
    code, out, err = run(capsys, "ranks", "--n", "8000", "--k", "8000")
    assert (code, err) == (0, "")
    assert f"\n  jet bundle:        {rank_jet}\n" in out
    code, out, err = run(capsys, "ranks", "--n", "8000", "--k", "8000", "--json")
    assert (code, err) == (0, "")
    assert f'\n    "rank_jet": {rank_jet},\n' in out
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_invalid_input_is_one_line_diagnostic(capsys, tmp_path):
    bases = {
        "empty": "# a comment, then a blank line\n\n",
        "zero": "1\n0 0\n0 1\n",
        "short": "1\n0 1\n",
        "constant": "1\n2\n3\n",
        "unreadable": "1/0 1\n",
    }
    for name, text in bases.items():
        (tmp_path / f"{name}.txt").write_text(text)
    for argv, message in (
        (("degree", "--n", "2", "--ambient", "2"), "ambient dimension must be at least 3"),
        (("scan", "--scroll", "2,2", "--samples", "0"), "samples must be at least 1, got 0"),
        (("scan", "--scroll", "2,2", "--samples", "-5"), "samples must be at least 1, got -5"),
        (("scan", "--scroll", ",".join(["1"] * 20), "--samples", "1"), "exceeds the limit"),
        (("wronskian", "--basis", "/nonexistent", "--k", "3"), "No such file"),
        (("verify-theorem3", "--max-n", "0"), "must be at least 1"),
        (("verify-theorem3", "--max-k", "-3"), "must be at least 1"),
        (("wronskian", "--basis", str(tmp_path / "empty.txt"), "--k", "2"),
         "contains no polynomials"),
        (("wronskian", "--basis", str(tmp_path / "zero.txt"), "--k", "2"),
         "a basis polynomial is identically zero"),
        (("wronskian", "--basis", str(tmp_path / "short.txt"), "--k", "2"),
         "need exactly k+1 = 3 basis polynomials, got 2"),
        (("wronskian", "--basis", str(tmp_path / "constant.txt"), "--k", "2"),
         "jet order 2 exceeds the basis degree 0"),
        (("wronskian", "--basis", str(tmp_path / "unreadable.txt"), "--k", "1"),
         "not an exact rational: '1/0'"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert message in err, (argv, err)


def test_scroll_spec_is_a_comma_list_of_summand_degrees(capsys):
    # --scroll reads ints split at commas; a token int() refuses and a degree
    # below 1 are usage errors, each one argparse line with exit code 2
    assert _scroll("1,2") == DecomposableScroll((1, 2))
    for argv, last in (
        (["scan", "--scroll", "1,x"], "scrolljets scan: error: argument --scroll: bad scroll spec "
         "'1,x': invalid literal for int() with base 10: 'x'"),
        (["cross-validate", "--scroll", "0,2"], "scrolljets cross-validate: error: argument "
         "--scroll: a summand degree must be at least 1, got 0"),
    ):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2, argv
        assert capsys.readouterr().err.splitlines()[-1] == last


def test_cross_validate_gates_the_sample_count_on_every_path(capsys):
    # the square and curve oracles take no samples, but the count is an
    # input the document records, so it is gated as scan gates it
    for scroll in ("1,2", "3", "2,2"):
        code, out, err = run(capsys, "cross-validate", "--scroll", scroll, "--samples", "0")
        assert (code, out) == (1, "")
        assert err == "error: the number of samples must be at least 1, got 0\n"


def test_a_negative_seed_is_one_error_line(capsys):
    # Random seeds with abs(seed): --seed -7 would draw seed 7's points and print seed=-7
    for argv in (("scan", "--scroll", "1,3", "--seed", "-7"),
                 ("cross-validate", "--scroll", "1,2,2", "--seed", "-7"),
                 ("cross-validate", "--scroll", "5", "--k", "3", "--seed", "-7")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == "error: the seed must be at least 0, got -7\n"


def test_scan_beyond_the_sampler_supply_fails_at_once(capsys):
    # a curve's sampler can build 502 distinct points; asking for a million
    # used to retry for 100 attempts per sample before giving up
    start = time.perf_counter()
    code, out, err = run(capsys, "scan", "--scroll", "3", "--k", "1", "--samples", "1000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "error: could not sample 1000000 distinct points on (3)\n"


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
    # the model self-check: one full-support rank passes the generic-rank
    # test for every chart, so a chart determinant that still vanishes
    # identically is a broken model, and the CLI prints one line
    import scrolljets.scanner as scanner_mod

    chart_determinant = scanner_mod._chart_determinant
    full_support_rank = scanner_mod.full_support_rank
    calls = []

    def vanishes_at_infinity(scroll, k, base_chart, fiber_chart, rows=None):
        calls.append((base_chart, fiber_chart))
        det = chart_determinant(scroll, k, base_chart, fiber_chart, rows)
        return IntPoly(det.names, ()) if (base_chart, fiber_chart) == ("inf", 2) else det

    def counting(scroll, k):
        calls.append((scroll, k))
        return full_support_rank(scroll, k)

    monkeypatch.setattr(scanner_mod, "_chart_determinant", vanishes_at_infinity)
    monkeypatch.setattr(scanner_mod, "full_support_rank", counting)
    X = DecomposableScroll((1, 2))
    with pytest.raises(scanner_mod.InconsistentCharts) as raised:
        scanner_mod.determinant_divisor(X, 2)
    message = "determinant vanishes in some charts but not all; inconsistent model"
    assert str(raised.value) == message
    # one full-support rank decides the generic rank before any chart is built
    assert calls == [(X, 2), ("0", 1), ("0", 2), ("inf", 1), ("inf", 2)]
    assert run(capsys, "cross-validate", "--scroll", "1,2") == (1, "", f"error: {message}\n")


# One row per check of a chart determinant's form in scanner.determinant_divisor and
# scanner._section_twist: a chart of (1, 2) at k = 2, the fault put into its determinant and
# the message the CLI prints as one line.
CHART_FAULTS = {
    # every square chart determinant is c or c*v_m by the orbit argument, and
    # its factors are read off that monomial
    "second-term": (("inf", 1), lambda det: IntPoly(det.names, {**dict(det.terms), (0, 0): 1}),
                    "determinant is not a monomial in some chart; inconsistent model"),
    # v2^2 is no section of any L + bF
    "fiber-square": (("inf", 1), lambda det: IntPoly(det.names, {(0, 2): 1}),
                     "determinant is not affine-linear in the fiber coordinates; "
                     "cannot extract a divisor class"),
    # an extra factor u shifts that chart's twist by one
    "u-shift": (("inf", 1),
                lambda det: IntPoly(det.names, {(m[0] + 1, *m[1:]): c for m, c in det.terms}),
                "chart extractions of the divisor twist disagree: "
                "{('0', 1): -2, ('0', 2): -2, ('inf', 1): -1, ('inf', 2): -2}"),
}


@pytest.mark.parametrize("chart, fault, message", CHART_FAULTS.values(), ids=CHART_FAULTS)
def test_chart_faults_are_one_line_diagnostics(capsys, monkeypatch, chart, fault, message):
    import scrolljets.scanner as scanner_mod

    chart_determinant = scanner_mod._chart_determinant
    full_support_rank = scanner_mod.full_support_rank
    calls = []

    def faulty(scroll, k, base_chart, fiber_chart, rows=None):
        calls.append((base_chart, fiber_chart))
        det = chart_determinant(scroll, k, base_chart, fiber_chart, rows)
        return fault(det) if (base_chart, fiber_chart) == chart else det

    def counting(scroll, k):
        calls.append((scroll, k))
        return full_support_rank(scroll, k)

    monkeypatch.setattr(scanner_mod, "_chart_determinant", faulty)
    monkeypatch.setattr(scanner_mod, "full_support_rank", counting)
    X = DecomposableScroll((1, 2))
    with pytest.raises(scanner_mod.InconsistentCharts) as raised:
        scanner_mod.determinant_divisor(X, 2)
    assert str(raised.value) == message
    # one full-support rank decides the generic rank before any chart is built
    assert calls == [(X, 2), ("0", 1), ("0", 2), ("inf", 1), ("inf", 2)]
    assert run(capsys, "cross-validate", "--scroll", "1,2") == (1, "", f"error: {raised.value}\n")


def test_main_builds_its_parser_once(capsys, monkeypatch):
    import scrolljets.cli as cli_mod

    builds = []
    build_parser = cli_mod.build_parser

    def counting():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli_mod, "build_parser", counting)
    cli_mod._parser.cache_clear()
    try:
        for argv in VERB_ARGVS:
            assert run(capsys, *argv)[0] == 0, argv
    finally:
        cli_mod._parser.cache_clear()
    assert len(builds) == 1


def test_an_argparse_error_leaves_the_parser_as_it_was(capsys):
    # the reused parser keeps no state from a failed parse: the calls on
    # either side of usage errors print what they print on a fresh parser
    import scrolljets.cli as cli_mod

    calls = [
        ("cross-validate", "--scroll", "1,2", "--json"),
        ("scan", "--scroll", "1,3", "--k", "1"),
    ]
    fresh = []
    for argv in calls:
        cli_mod._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli_mod._parser.cache_clear()
    reused = [run(capsys, *calls[0])]
    for bad in (["scan", "--scroll", "1,3", "--samples", "x"], ["cross-validate", "--scroll", "0"]):
        with pytest.raises(SystemExit) as exit_:
            main(bad)
        assert exit_.value.code == 2
        assert capsys.readouterr().err.startswith("usage: scrolljets")
    reused.append(run(capsys, *calls[1]))
    assert reused == fresh


def outcome(argv):
    """main's exit code, or a usage error's SystemExit code, with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def full_parse_outcome(argv):
    """outcome(argv) with the verb lookup turned off: the top-level parser reads all of argv."""
    import scrolljets.cli as cli_mod

    parser = cli_mod._parser()[0]
    cached = cli_mod._parser
    cli_mod._parser = lambda: (parser, {})
    try:
        return outcome(argv)
    finally:
        cli_mod._parser = cached


PARSE_ARGVS = [
    *VERB_ARGVS,
    *(argv + ("--json",) for argv in VERB_ARGVS),
    *((argv[0], "-h") for argv in VERB_ARGVS),
    (), ("-h",), ("--help",), ("no-such-verb",), ("--json", *VERB_ARGVS[0]), ("--", *VERB_ARGVS[0]),
    ("cross-validate", "--scroll", "2,2", "--bogus"),
    ("cross-validate", "--scroll", "2,2", "extra", "--bogus"),
    ("cross-validate", "--scroll", "2,2", "--sam", "50"),
    ("cross-validate", "--scroll=2,2"),
    ("ranks", "--n", "3", "--k", "2", "--n", "2"),
    ("ranks", "--n", "2", "--", "--k", "2"),
    ("classify", "--n", "2", "--k", "2"),
    ("scan", "--scroll", "1,3", "--samples", "x"),
    ("cross-validate", "--scroll", "1,3", "--seed", "-7"),
]


def test_a_verb_parser_prints_what_the_full_parser_prints():
    codes = set()
    for argv in PARSE_ARGVS:
        expected = full_parse_outcome(argv)
        assert outcome(argv) == expected, argv
        codes.add(expected[0])
    assert codes == {0, 1, 2}  # results, an error line and usage errors are all compared


def test_a_verb_argv_is_parsed_once(capsys, monkeypatch):
    # the top-level parser only picks the verb, so a verb's argv skips it
    import scrolljets.cli as cli_mod

    parser, _ = cli_mod._parser()
    passes = []
    parse_known_args = parser.parse_known_args

    def counting(*args, **kwargs):
        passes.append(args)
        return parse_known_args(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counting)
    for argv in VERB_ARGVS:
        assert run(capsys, *argv)[0] == 0, argv
    assert passes == []
    # leftovers are reported by the top-level parser, which then runs once
    with pytest.raises(SystemExit):
        main(["cross-validate", "--scroll", "2,2", "--bogus"])
    assert len(passes) == 1
    assert capsys.readouterr().err.endswith("scrolljets: error: unrecognized arguments: --bogus\n")


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


#: Tokens no verb parser reads whole, each sending main to the full parser: a leftover, an
#: unknown option, a value given to a flag, the options' end and an abbreviation (of --samples
#: in scan and cross-validate).  No help flag: the deterministic PARSE_ARGVS cover help.
STRAY = st.sampled_from(["extra", "--bogus", "--json=1", "--", "--sam"])


@st.composite
def argvs(draw):
    """A random command line; a wronskian basis is a list of rows, written out by the test.
    About one in four carries a stray token, right after the verb or at the end."""
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
            coefficient = mostly(st.integers(-3, 3), st.sampled_from(["1/0", "x", "1.5"]))
            row = st.lists(coefficient, min_size=1, max_size=5)
            argv += ["--basis", draw(st.lists(row, min_size=count, max_size=count))]
    else:
        for option, (values, chance) in OPTIONS[verb].items():
            if draw(st.integers(0, 9)) < chance:
                argv += [option, draw(values)]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 3)) == 3:
        argv.insert(draw(st.sampled_from([1, len(argv)])), draw(STRAY))
    return argv


@settings(max_examples=400, deadline=None)
@given(argvs())
# the basis reader on every run: a valid --k and one junk coefficient each
@example(["wronskian", "--k", "1", "--basis", [[1, "1/0"], [0, 1]]])
@example(["wronskian", "--k", "1", "--basis", [[1, "x"], [0, 1]]])
@example(["wronskian", "--k", "1", "--basis", [[1, "1.5"], [0, 1]]])
def test_random_argv_never_raises(argv):
    argv = list(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if "--basis" in argv:
            at = argv.index("--basis") + 1
            path = Path(tmp) / "basis.txt"
            path.write_text("".join(" ".join(map(str, row)) + "\n" for row in argv[at]))
            argv[at] = str(path)
        code, out, err = outcome(argv)  # argparse: usage errors exit 2
        assert full_parse_outcome(argv) == (code, out, err)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 0 and "--json" in argv:
        json.loads(out)


SYMPY_FREE_VERBS = (
    ["class", "--n", "3", "--ambient", "7"],
    ["degree", "--n", "2", "--ambient", "5", "--d", "4", "--g", "0"],
    ["verify-theorem3", "--max-n", "2", "--max-k", "2"],
    ["classify", "--n", "2", "--k", "2", "--ell", "2"],
    ["ranks", "--n", "2", "--k", "2"],
    ["scan", "--scroll", "2,3", "--k", "3"],
    # the 7-summand limit: 127 support strata
    ["scan", "--scroll", "1,1,1,1,1,1,2", "--samples", "1"],
    ["cross-validate", "--scroll", "2,2"],
    ["cross-validate", "--scroll", "1,2"],
    ["cross-validate", "--scroll", "4,4,5"],
    # the scan verdict's class comparison and its wrong-dimension rule
    ["cross-validate", "--scroll", "1,1,3"],
    ["cross-validate", "--scroll", "1,2,2"],
    ["cross-validate", "--scroll", "1,3"],
    ["cross-validate", "--scroll", "6"],
    ["wronskian", "--degrees", "4", "--k", "4"],
    ["wronskian", "--degrees", "16", "--k", "16"],
    ["wronskian", "--basis", "basis.txt", "--k", "2"],
)


def test_no_verb_loads_sympy(tmp_path):
    # the formula verbs, scans, every cross-validate and the Wronskian run
    # without sympy: determinants and roots are plain integer arithmetic.
    # A finder first on sys.meta_path records and refuses every sympy
    # import, so one that the code would catch and survive is still seen.
    (tmp_path / "basis.txt").write_text("-1 0 1 0 3\n0 2 0 -5\n4 0 0 1 1\n", encoding="utf-8")
    script = textwrap.dedent(
        f"""
        import contextlib, io, sys

        class RefuseSympy:
            attempts = []

            @classmethod
            def find_spec(cls, name, path=None, target=None):
                if name.partition(".")[0] == "sympy":
                    cls.attempts.append(name)
                    raise ModuleNotFoundError(f"sympy is blocked: {{name}}")
                return None

        sys.meta_path.insert(0, RefuseSympy)
        from scrolljets.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in {SYMPY_FREE_VERBS!r}]
        print(codes, RefuseSympy.attempts, "sympy" in sys.modules)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-c", script]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{[0] * len(SYMPY_FREE_VERBS)} [] False\n"


def test_module_runs_from_a_checkout(tmp_path):
    # python -m scrolljets needs no install: src on PYTHONPATH is enough
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-m", "scrolljets", "verify-theorem3", "--max-n", "2", "--max-k", "2"]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "0 failed" in done.stdout
