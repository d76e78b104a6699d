import json
import os
import subprocess
import sys

import pytest

import charp
from charp.cli import build_parser, main

FERMAT = """char 2;
vars x y z;
quotient x^3+y^3+z^3;
ideal I = x, y;
ideal P = x;
"""


@pytest.fixture
def ring_file(tmp_path):
    path = tmp_path / "fermat.ring"
    path.write_text(FERMAT, encoding="utf-8")
    return str(path)


def test_gb(ring_file, capsys):
    assert main(["gb", "--ring", ring_file, "--ideal", "I"]) == 0
    out = capsys.readouterr().out
    assert "z^3" in out and "x" in out and "y" in out


def test_member(ring_file, capsys):
    assert main(["member", "--ring", ring_file, "--ideal", "I", "--poly", "x^2+x*y"]) == 0
    assert "true" in capsys.readouterr().out
    assert main(["member", "--ring", ring_file, "--ideal", "I", "--poly", "z^2"]) == 0
    assert "false" in capsys.readouterr().out


def test_regseq(ring_file, capsys):
    assert main(["regseq", "--ring", ring_file, "--elems", "x,y"]) == 0
    assert "true" in capsys.readouterr().out
    assert main(["regseq", "--ring", ring_file, "--elems", "x,x"]) == 0
    assert "fails at index 1" in capsys.readouterr().out


def test_closure_json(ring_file, tmp_path, capsys):
    out_json = tmp_path / "closure.json"
    code = main(["closure", "--ring", ring_file, "--ideal", "I", "--json", str(out_json)])
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["schema"] == 1
    assert payload["status"] == "certified_subset_window_stable"
    assert payload["stabilization_index"] == 1
    assert payload["q_exponent"] == 1
    assert payload["certificate_ok"] is True
    assert payload["closure"] == ["z^2", "x", "y"]
    assert "heuristic" in payload["completeness"]


def test_closure_not_stabilized_exit_2(ring_file, tmp_path):
    out_json = tmp_path / "partial.json"
    code = main(["closure", "--ring", ring_file, "--ideal", "I",
                 "--emax", "1", "--window", "2", "--json", str(out_json)])
    assert code == 2
    payload = json.loads(out_json.read_text())  # partial report still written
    assert payload["status"] == "not_stabilized"
    assert len(payload["chain"]) == 2


def test_exit_2_on_an_error_writes_no_json(ring_file, tmp_path, capsys, monkeypatch):
    # only an unstabilized report is written; a run stopped by an error
    # (a parameter-ideal closure that did not stabilize, or the degree
    # guard) exits 2 with its message and no report
    out_json = tmp_path / "stopped.json"
    assert main(["paramcheck", "--ring", ring_file, "--ideal", "I", "--e", "1",
                 "--emax", "1", "--json", str(out_json)]) == 2
    assert "did not stabilize" in capsys.readouterr().err
    assert not out_json.exists()
    monkeypatch.setenv("FROB_MAX_DEGREE", "3")
    assert main(["closure", "--ring", ring_file, "--ideal", "I",
                 "--json", str(out_json)]) == 2
    assert "FROB_MAX_DEGREE" in capsys.readouterr().err
    assert not out_json.exists()


def test_qnumber(ring_file, capsys):
    assert main(["qnumber", "--ring", ring_file, "--ideal", "I"]) == 0
    out = capsys.readouterr().out
    assert "q_exponent: 1" in out
    assert "Q: 2" in out


def test_census_template_csv(ring_file, tmp_path, capsys):
    csv_path = tmp_path / "census.csv"
    code = main(["census", "--ring", ring_file, "--template", "x^{a}, y^{b}",
                 "--range", "a=1..2", "--range", "b=1..2", "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "params,regseq_ok,stabilized,q_exponent,closure_gens"
    assert len(lines) == 5
    assert lines[1].startswith("a=1;b=1,true,true,1,")
    assert "uniform_e: 1" in capsys.readouterr().out


def test_census_frobenius_family(ring_file, capsys):
    code = main(["census", "--ring", ring_file, "--ideal", "I",
                 "--frobenius-family", "--nmax", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "n=0" in out and "n=2" in out
    assert "uniform_e: 1" in out


def test_census_flag_validation(ring_file, capsys):
    assert main(["census", "--ring", ring_file]) == 1
    assert main(["census", "--ring", ring_file, "--template", "x^{a}"]) == 1
    assert main(["census", "--ring", ring_file, "--template", "x^{a}",
                 "--range", "a=3..1"]) == 1
    assert main(["census", "--ring", ring_file, "--template", "x^{a}",
                 "--range", "a=1..2", "--range", "a=1..2"]) == 1
    err = capsys.readouterr().err
    assert "--range" in err


def test_eta(ring_file, capsys):
    assert main(["eta", "--ring", ring_file, "--sop", "x,y", "--nmax", "1"]) == 0
    out = capsys.readouterr().out
    assert "η̂ (scan n ≤ 1) = 1" in out
    assert "f_injective: false" in out


def test_eta_bad_sop(ring_file, capsys):
    assert main(["eta", "--ring", ring_file, "--sop", "x,x"]) == 1
    assert "--sop" in capsys.readouterr().err


def test_eta_blank_sop_scans_the_empty_sop(ring_file, tmp_path, capsys):
    ring = tmp_path / "artinian.ring"
    ring.write_text("char 2; vars x y; quotient x^2, y^3;", encoding="utf-8")
    for blank in ("", " "):
        assert main(["eta", "--ring", str(ring), "--sop", blank]) == 0
        assert "η̂ (scan n ≤ 1) = 2" in capsys.readouterr().out
    out_json = tmp_path / "eta.json"
    assert main(["eta", "--ring", ring_file, "--sop", "", "--json", str(out_json)]) == 1
    assert capsys.readouterr().err == "error: --sop: sequence is not a system of parameters\n"
    assert not out_json.exists()


@pytest.mark.parametrize("text,sop,index", [
    ("char 2; vars x y; quotient x^2, x*y;", "y", 0),
    ("char 2; vars a b c d; quotient a*d + b*c, b^3 + a^2*c, c^3 + b*d^2, a*c^2 + b^2*d;",
     "a, d", 1),
])
def test_eta_rejects_a_sop_of_a_ring_that_is_not_cohen_macaulay(text, sop, index, tmp_path, capsys):
    ring = tmp_path / "noncm.ring"
    ring.write_text(text, encoding="utf-8")
    out_json = tmp_path / "eta.json"
    assert main(["eta", "--ring", str(ring), "--sop", sop, "--json", str(out_json)]) == 1
    assert capsys.readouterr().err == (
        f"error: --sop: sequence is not regular (fails at index {index})\n"
    )
    assert not out_json.exists()


def test_paramcheck_reads_a_blank_extension_as_the_empty_list(ring_file, capsys):
    outs = []
    for blank in ("", " "):
        assert main(["paramcheck", "--ring", ring_file, "--ideal", "I", "--e", "1",
                     "--extend", blank]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == "(closure)^[p^1] = (ideal)^[p^1] in R: true\n"


def test_blank_comma_lists_are_empty_lists(ring_file, capsys):
    # one rule for every comma-list flag; a command that needs elements says so
    for blank in ("", " "):
        assert main(["regseq", "--ring", ring_file, "--elems", blank]) == 1
        assert capsys.readouterr().err == "error: --elems: empty sequence\n"
        assert main(["member", "--ring", ring_file, "--ideal", "I", "--poly", blank]) == 1
        assert capsys.readouterr().err == "error: --poly: expected one polynomial\n"


def test_paramcheck(ring_file, capsys):
    assert main(["paramcheck", "--ring", ring_file, "--ideal", "P",
                 "--extend", "y", "--e", "1"]) == 0
    assert "true" in capsys.readouterr().out
    assert main(["paramcheck", "--ring", ring_file, "--ideal", "I", "--e", "0"]) == 0
    assert "false" in capsys.readouterr().out


def test_long_juxtaposed_identifiers_in_a_ring_file(tmp_path, capsys):
    # x written 1500 times is x^1500; an identifier that does not split
    # exits 1 with its position in the file, not a traceback
    path = tmp_path / "long.ring"
    path.write_text("char 2;\nvars a aa x;\nideal I = " + "x" * 1500 + ";\n"
                    "ideal J = x,\n  " + "a" * 300 + "b;\n")
    assert main(["gb", "--ring", str(path), "--ideal", "I"]) == 1
    assert capsys.readouterr().err.startswith(f"error: --ring {path}:5:3: unknown variable 'aaa")
    path.write_text("char 2;\nvars a aa x;\nideal I = " + "x" * 1500 + ";\n")
    assert main(["gb", "--ring", str(path), "--ideal", "I"]) == 0
    assert "x^1500" in capsys.readouterr().out


def test_input_errors_name_the_flag(ring_file, tmp_path, capsys):
    assert main(["member", "--ring", ring_file, "--ideal", "I", "--poly", "w"]) == 1
    assert capsys.readouterr().err == "error: --poly: 1:1: unknown variable 'w'\n"
    assert main(["gb", "--ring", ring_file, "--ideal", "NOPE"]) == 1
    assert capsys.readouterr().err == (
        f"error: --ideal: unknown ideal 'NOPE' (known: I, P) in {ring_file}\n"
    )
    missing = tmp_path / "nope.ring"
    assert main(["gb", "--ring", str(missing), "--ideal", "I"]) == 1
    assert capsys.readouterr().err == f"error: --ring {missing}: No such file or directory\n"
    bad = tmp_path / "bad.ring"
    bad.write_text("char 4;\nvars x;\n")
    assert main(["gb", "--ring", str(bad), "--ideal", "I"]) == 1
    assert capsys.readouterr().err == (
        f"error: --ring {bad}:1:1: characteristic 4 is not a prime in [2, 2^16)\n"
    )
    bad.write_bytes(b"\xff")
    assert main(["gb", "--ring", str(bad), "--ideal", "I"]) == 1
    assert capsys.readouterr().err == (
        f"error: --ring {bad}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )
    # a generator of the ideal that is not homogeneous is the ideal's fault
    inhomogeneous = tmp_path / "inhomogeneous.ring"
    inhomogeneous.write_text(FERMAT.replace("ideal P = x;", "ideal P = x + y^2;"))
    assert main(["paramcheck", "--ring", str(inhomogeneous), "--ideal", "P",
                 "--extend", "z", "--e", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: --ideal: system-of-parameters check needs homogeneous "
                            "elements of positive degree, got y^2 + x\n")
    assert captured.out == ""
    for argv, flag in (
        (["closure", "--ideal", "I", "--emax", "0"], "--emax"),
        (["qnumber", "--ideal", "I", "--window", "0"], "--window"),
        (["census", "--ideal", "I", "--frobenius-family", "--nmax", "-1"], "--nmax"),
        (["eta", "--sop", "x,y", "--nmax", "-1"], "--nmax"),
        (["paramcheck", "--ideal", "P", "--extend", "y", "--e", "-1"], "--e"),
        (["eta", "--sop", "x+1,y"], "--sop"),
        (["paramcheck", "--ideal", "P", "--extend", "y+1", "--e", "1"], "--extend"),
        (["member", "--ideal", "I", "--poly", "z^2, x"], "--poly"),
        (["census", "--ideal", "I", "--frobenius-family", "--jobs", "0"], "--jobs"),
        (["eta", "--sop", "x,y", "--jobs", "-3"], "--jobs"),
        (["census", "--ideal", "I", "--frobenius-family", "--range", "a=1..2"], "--range"),
        (["census", "--template", "x^{a}, y", "--range", "a=1..2", "--ideal", "I"], "--ideal"),
        (["census", "--template", "x^{a}", "--range", "a"], "--range"),
        (["census", "--template", "x^{a}", "--range", "a=1"], "--range"),
        (["census", "--template", "x^{a}", "--range", "a=x..2"], "--range"),
        (["census", "--template", "x^{a}", "--range", "a=3..1"], "--range"),
        (["census", "--frobenius-family"], "--frobenius-family"),
        (["census", "--ideal", "I", "--frobenius-family", "--template", "x"], "--template"),
        (["census"], "--template"),
        (["census", "--template", "x^{a}"], "--template"),
    ):
        assert main(argv[:1] + ["--ring", ring_file] + argv[1:]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag}: "), captured.err
        assert captured.out == ""
    # an unwritable report path is named after the run has printed its result
    missing = tmp_path / "no-such-dir"
    for argv, flag, path in (
        (["gb", "--ideal", "I", "--json"], "--json", missing / "out.json"),
        (["census", "--ideal", "I", "--frobenius-family", "--csv"], "--csv", missing / "rows.csv"),
    ):
        assert main(argv[:1] + ["--ring", ring_file] + argv[1:] + [str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} {path}: "), flag


def test_comma_list_positions_count_in_the_whole_argument(ring_file, capsys):
    assert main(["regseq", "--ring", ring_file, "--elems", "x, y, w"]) == 1
    assert capsys.readouterr().err == "error: --elems: 1:7: unknown variable 'w'\n"
    assert main(["eta", "--ring", ring_file, "--sop", "x,   2q"]) == 1
    assert capsys.readouterr().err == "error: --sop: 1:7: unknown variable 'q'\n"
    # a template error counts in the instantiated row text
    assert main(["census", "--ring", ring_file, "--template", "x^{a}, y^{a}, w",
                 "--range", "a=1..2"]) == 1
    assert capsys.readouterr().err == "error: --template: 1:11: unknown variable 'w'\n"


def test_overlong_numerals_name_their_position(ring_file, tmp_path, capsys):
    big = tmp_path / "big.ring"
    big.write_text("char 2;\nvars x y;\nideal I = x^" + "9" * 5000 + ";\n", encoding="utf-8")
    assert main(["gb", "--ring", str(big), "--ideal", "I"]) == 1
    assert capsys.readouterr().err == (
        f"error: --ring {big}:3:13: numeral of 5000 digits is too long\n"
    )
    assert main(["regseq", "--ring", ring_file, "--elems", "x, " + "7" * 5000 + "y"]) == 1
    assert capsys.readouterr().err == "error: --elems: 1:4: numeral of 5000 digits is too long\n"


def test_unstabilized_census_and_eta_lines(ring_file, tmp_path, capsys):
    out_json = tmp_path / "census.json"
    assert main(["census", "--ring", ring_file, "--template", "x, y, z^{c}",
                 "--range", "c=1..3", "--emax", "1", "--json", str(out_json)]) == 2
    out = capsys.readouterr().out
    assert "warning: 3 row(s) are not generated by a poor regular sequence" in out
    assert "uniform_e: >= 0 (lower bound; some rows did not stabilize)" in out
    assert json.loads(out_json.read_text())["uniform_e_is_lower_bound"] is True
    assert main(["census", "--ring", ring_file, "--template", "x^{a},y",
                 "--range", "a=1..3", "--emax", "1"]) == 2
    assert "uniform_e: undetermined (no row stabilized)" in capsys.readouterr().out
    assert main(["eta", "--ring", ring_file, "--sop", "x,y", "--emax", "1"]) == 2
    assert "f_injective: undetermined (scan incomplete)" in capsys.readouterr().out


def test_degree_cap_env(ring_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FROB_MAX_DEGREE", "3")
    assert main(["closure", "--ring", ring_file, "--ideal", "I"]) == 2
    assert "FROB_MAX_DEGREE" in capsys.readouterr().err
    monkeypatch.setenv("FROB_MAX_DEGREE", "junk")
    assert main(["closure", "--ring", ring_file, "--ideal", "I"]) == 1
    monkeypatch.delenv("FROB_MAX_DEGREE")
    assert main(["closure", "--ring", ring_file, "--ideal", "I"]) == 0
    uncapped = capsys.readouterr().out
    # the targets carry no f**q of degree 6, so cap 4 completes the run
    monkeypatch.setenv("FROB_MAX_DEGREE", "4")
    assert main(["closure", "--ring", ring_file, "--ideal", "I"]) == 0
    assert capsys.readouterr().out == uncapped


def test_reports_are_byte_deterministic(ring_file, tmp_path):
    args = ["census", "--ring", ring_file, "--template", "x^{a}, y^{b}",
            "--range", "a=1..2", "--range", "b=1..2"]
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--json", str(j1), "--csv", str(c1)]) == 0
    assert main(args + ["--json", str(j2), "--csv", str(c2)]) == 0
    assert j1.read_bytes() == j2.read_bytes()
    assert c1.read_bytes() == c2.read_bytes()
    j3 = tmp_path / "c.json"
    assert main(args + ["--json", str(j3), "--jobs", "2"]) == 0
    assert j1.read_bytes() == j3.read_bytes()


# Reports pinned byte for byte, so a new algorithm path that changes the
# output fails here even though two runs of one build still agree.
GOLDEN_CLOSURE_JSON = (
    '{\n'
    '  "certificate_ok": true,\n'
    '  "chain": [\n'
    '    {\n'
    '      "basis": [\n'
    '        "z^3",\n'
    '        "x",\n'
    '        "y"\n'
    '      ],\n'
    '      "e": 0\n'
    '    },\n'
    '    {\n'
    '      "basis": [\n'
    '        "z^2",\n'
    '        "x",\n'
    '        "y"\n'
    '      ],\n'
    '      "e": 1\n'
    '    },\n'
    '    {\n'
    '      "basis": [\n'
    '        "z^2",\n'
    '        "x",\n'
    '        "y"\n'
    '      ],\n'
    '      "e": 2\n'
    '    }\n'
    '  ],\n'
    '  "closure": [\n'
    '    "z^2",\n'
    '    "x",\n'
    '    "y"\n'
    '  ],\n'
    '  "command": "closure",\n'
    '  "completeness": "heuristic: window stabilization certifies containment in the closure, not equality with it",\n'
    '  "e_max": 8,\n'
    '  "ideal": "I",\n'
    '  "q": 2,\n'
    '  "q_exponent": 1,\n'
    '  "ring": {\n'
    '    "characteristic": 2,\n'
    '    "order": "grevlex",\n'
    '    "quotient": [\n'
    '      "x^3 + y^3 + z^3"\n'
    '    ],\n'
    '    "variables": [\n'
    '      "x",\n'
    '      "y",\n'
    '      "z"\n'
    '    ]\n'
    '  },\n'
    '  "schema": 1,\n'
    '  "stabilization_index": 1,\n'
    '  "status": "certified_subset_window_stable",\n'
    '  "window": 2\n'
    '}\n'
)

# qnumber writes the closure report under its own command name
GOLDEN_QNUMBER_JSON = GOLDEN_CLOSURE_JSON.replace('"command": "closure"', '"command": "qnumber"')
GOLDEN_QNUMBER_STDOUT = 'q_exponent: 1\nQ: 2 (= 2^1)\n'

GOLDEN_CENSUS_CSV = (
    'params,regseq_ok,stabilized,q_exponent,closure_gens\n'
    'a=1;b=1,true,true,1,z^2; x; y\n'
    'a=1;b=2,true,true,1,y*z^2; z^3; y^2; x\n'
    'a=1;b=3,true,true,1,y^2*z^2; y^3; z^3; x\n'
    'a=2;b=1,true,true,1,x*z^2; z^3; x^2; y\n'
    'a=2;b=2,true,true,1,x*y*z^2; z^3; x^2; y^2\n'
    'a=2;b=3,true,true,1,x*y^2*z^2; y^3; z^3; x^2\n'
    'a=3;b=1,true,true,1,x^2*z^2; x^3; z^3; y\n'
    'a=3;b=2,true,true,1,x^2*y*z^2; x^3; z^3; y^2\n'
    'a=3;b=3,true,true,1,x^2*y^2*z^2; x^3; y^3; z^3\n'
)


GOLDEN_REGSEQ_TRUE_JSON = (
    '{\n'
    '  "command": "regseq",\n'
    '  "elems": [\n'
    '    "x",\n'
    '    "y"\n'
    '  ],\n'
    '  "failure_index": null,\n'
    '  "ok": true,\n'
    '  "ring": {\n'
    '    "characteristic": 2,\n'
    '    "order": "grevlex",\n'
    '    "quotient": [\n'
    '      "x^3 + y^3 + z^3"\n'
    '    ],\n'
    '    "variables": [\n'
    '      "x",\n'
    '      "y",\n'
    '      "z"\n'
    '    ]\n'
    '  },\n'
    '  "schema": 1\n'
    '}\n'
)
GOLDEN_REGSEQ_FALSE_JSON = (
    '{\n'
    '  "command": "regseq",\n'
    '  "elems": [\n'
    '    "z",\n'
    '    "x"\n'
    '  ],\n'
    '  "failure_index": 1,\n'
    '  "ok": false,\n'
    '  "ring": {\n'
    '    "characteristic": 2,\n'
    '    "order": "grevlex",\n'
    '    "quotient": [\n'
    '      "x^2*y"\n'
    '    ],\n'
    '    "variables": [\n'
    '      "x",\n'
    '      "y",\n'
    '      "z"\n'
    '    ]\n'
    '  },\n'
    '  "schema": 1\n'
    '}\n'
)
GOLDEN_REGSEQ_TRUE_STDOUT = 'poor regular sequence: true\n'
GOLDEN_REGSEQ_FALSE_STDOUT = 'poor regular sequence: false (fails at index 1)\n'

# J = (x(y - 1), z(y - 1), y) over F_2[x,y,z,w]: height 3 = c, although its
# generators are not a regular sequence in their given order
HEIGHT_RING = "char 2;\nvars x y z w;\nquotient x*y - x, y*z - z, y;\n"
GOLDEN_REGSEQ_HEIGHT_TRUE_JSON = (
    '{\n'
    '  "command": "regseq",\n'
    '  "elems": [\n'
    '    "w"\n'
    '  ],\n'
    '  "failure_index": null,\n'
    '  "ok": true,\n'
    '  "ring": {\n'
    '    "characteristic": 2,\n'
    '    "order": "grevlex",\n'
    '    "quotient": [\n'
    '      "x*y + x",\n'
    '      "y*z + z",\n'
    '      "y"\n'
    '    ],\n'
    '    "variables": [\n'
    '      "x",\n'
    '      "y",\n'
    '      "z",\n'
    '      "w"\n'
    '    ]\n'
    '  },\n'
    '  "schema": 1\n'
    '}\n'
)
GOLDEN_REGSEQ_HEIGHT_FALSE_JSON = (
    '{\n'
    '  "command": "regseq",\n'
    '  "elems": [\n'
    '    "w",\n'
    '    "x"\n'
    '  ],\n'
    '  "failure_index": 1,\n'
    '  "ok": false,\n'
    '  "ring": {\n'
    '    "characteristic": 2,\n'
    '    "order": "grevlex",\n'
    '    "quotient": [\n'
    '      "x*y + x",\n'
    '      "y*z + z",\n'
    '      "y"\n'
    '    ],\n'
    '    "variables": [\n'
    '      "x",\n'
    '      "y",\n'
    '      "z",\n'
    '      "w"\n'
    '    ]\n'
    '  },\n'
    '  "schema": 1\n'
    '}\n'
)

GOLDEN_GB_JSON = (
    '{\n'
    '  "basis": [\n'
    '    "z^3",\n'
    '    "x",\n'
    '    "y"\n'
    '  ],\n'
    '  "command": "gb",\n'
    '  "generators": [\n'
    '    "x",\n'
    '    "y"\n'
    '  ],\n'
    '  "ideal": "I",\n'
    '  "ring": {\n'
    '    "characteristic": 2,\n'
    '    "order": "grevlex",\n'
    '    "quotient": [\n'
    '      "x^3 + y^3 + z^3"\n'
    '    ],\n'
    '    "variables": [\n'
    '      "x",\n'
    '      "y",\n'
    '      "z"\n'
    '    ]\n'
    '  },\n'
    '  "schema": 1\n'
    '}\n'
)
GOLDEN_GB_STDOUT = (
    'reduced Groebner basis of the lift of I (grevlex):\n'
    '  z^3\n'
    '  x\n'
    '  y\n'
)
GOLDEN_MEMBER_JSON = (
    '{\n'
    '  "command": "member",\n'
    '  "ideal": "I",\n'
    '  "member": true,\n'
    '  "poly": "x^2 + x*y",\n'
    '  "ring": {\n'
    '    "characteristic": 2,\n'
    '    "order": "grevlex",\n'
    '    "quotient": [\n'
    '      "x^3 + y^3 + z^3"\n'
    '    ],\n'
    '    "variables": [\n'
    '      "x",\n'
    '      "y",\n'
    '      "z"\n'
    '    ]\n'
    '  },\n'
    '  "schema": 1\n'
    '}\n'
)
GOLDEN_MEMBER_STDOUT = 'x^2 + x*y in I: true\n'
GOLDEN_CENSUS_JSON = (
    '{\n'
    '  "command": "census",\n'
    '  "e_max": 8,\n'
    '  "family": {\n'
    '    "kind": "template",\n'
    '    "ranges": {\n'
    '      "a": [\n'
    '        1,\n'
    '        2\n'
    '      ],\n'
    '      "b": [\n'
    '        1,\n'
    '        2\n'
    '      ]\n'
    '    },\n'
    '    "template": "x^{a}, y^{b}"\n'
    '  },\n'
    '  "recheck_ok": true,\n'
    '  "ring": {\n'
    '    "characteristic": 2,\n'
    '    "order": "grevlex",\n'
    '    "quotient": [\n'
    '      "x^3 + y^3 + z^3"\n'
    '    ],\n'
    '    "variables": [\n'
    '      "x",\n'
    '      "y",\n'
    '      "z"\n'
    '    ]\n'
    '  },\n'
    '  "rows": [\n'
    '    {\n'
    '      "closure": [\n'
    '        "z^2",\n'
    '        "x",\n'
    '        "y"\n'
    '      ],\n'
    '      "params": {\n'
    '        "a": 1,\n'
    '        "b": 1\n'
    '      },\n'
    '      "q_exponent": 1,\n'
    '      "regseq_ok": true,\n'
    '      "stabilized": true\n'
    '    },\n'
    '    {\n'
    '      "closure": [\n'
    '        "y*z^2",\n'
    '        "z^3",\n'
    '        "y^2",\n'
    '        "x"\n'
    '      ],\n'
    '      "params": {\n'
    '        "a": 1,\n'
    '        "b": 2\n'
    '      },\n'
    '      "q_exponent": 1,\n'
    '      "regseq_ok": true,\n'
    '      "stabilized": true\n'
    '    },\n'
    '    {\n'
    '      "closure": [\n'
    '        "x*z^2",\n'
    '        "z^3",\n'
    '        "x^2",\n'
    '        "y"\n'
    '      ],\n'
    '      "params": {\n'
    '        "a": 2,\n'
    '        "b": 1\n'
    '      },\n'
    '      "q_exponent": 1,\n'
    '      "regseq_ok": true,\n'
    '      "stabilized": true\n'
    '    },\n'
    '    {\n'
    '      "closure": [\n'
    '        "x*y*z^2",\n'
    '        "z^3",\n'
    '        "x^2",\n'
    '        "y^2"\n'
    '      ],\n'
    '      "params": {\n'
    '        "a": 2,\n'
    '        "b": 2\n'
    '      },\n'
    '      "q_exponent": 1,\n'
    '      "regseq_ok": true,\n'
    '      "stabilized": true\n'
    '    }\n'
    '  ],\n'
    '  "schema": 1,\n'
    '  "uniform_e": 1,\n'
    '  "uniform_e_is_lower_bound": false,\n'
    '  "window": 2\n'
    '}\n'
)
GOLDEN_CENSUS_STDOUT = (
    '  a=1;b=1: q_exponent=1\n'
    '  a=1;b=2: q_exponent=1\n'
    '  a=2;b=1: q_exponent=1\n'
    '  a=2;b=2: q_exponent=1\n'
    'uniform_e: 1\n'
    'bracket-power recheck at uniform_e: ok\n'
)
GOLDEN_ETA_JSON = (
    '{\n'
    '  "command": "eta",\n'
    '  "complete": true,\n'
    '  "e_max": 8,\n'
    '  "eta_hat": 1,\n'
    '  "f_injective": false,\n'
    '  "label": "\\u03b7\\u0302 (scan n \\u2264 1) = 1",\n'
    '  "n_max": 1,\n'
    '  "ring": {\n'
    '    "characteristic": 2,\n'
    '    "order": "grevlex",\n'
    '    "quotient": [\n'
    '      "x^3 + y^3 + z^3"\n'
    '    ],\n'
    '    "variables": [\n'
    '      "x",\n'
    '      "y",\n'
    '      "z"\n'
    '    ]\n'
    '  },\n'
    '  "rows": [\n'
    '    {\n'
    '      "n": 0,\n'
    '      "q_exponent": 1\n'
    '    },\n'
    '    {\n'
    '      "n": 1,\n'
    '      "q_exponent": 1\n'
    '    }\n'
    '  ],\n'
    '  "schema": 1,\n'
    '  "sop": [\n'
    '    "x",\n'
    '    "y"\n'
    '  ],\n'
    '  "window": 2\n'
    '}\n'
)
GOLDEN_ETA_STDOUT = (
    '  n=0: q_exponent=1\n'
    '  n=1: q_exponent=1\n'
    'η̂ (scan n ≤ 1) = 1\n'
    'f_injective: false\n'
)
GOLDEN_PARAMCHECK_TRUE_JSON = (
    '{\n'
    '  "command": "paramcheck",\n'
    '  "e": 1,\n'
    '  "extension": [\n'
    '    "y"\n'
    '  ],\n'
    '  "holds": true,\n'
    '  "ideal": "P",\n'
    '  "ring": {\n'
    '    "characteristic": 2,\n'
    '    "order": "grevlex",\n'
    '    "quotient": [\n'
    '      "x^3 + y^3 + z^3"\n'
    '    ],\n'
    '    "variables": [\n'
    '      "x",\n'
    '      "y",\n'
    '      "z"\n'
    '    ]\n'
    '  },\n'
    '  "schema": 1\n'
    '}\n'
)
GOLDEN_PARAMCHECK_TRUE_STDOUT = '(closure)^[p^1] = (ideal)^[p^1] in R: true\n'
GOLDEN_PARAMCHECK_FALSE_JSON = (
    '{\n'
    '  "command": "paramcheck",\n'
    '  "e": 0,\n'
    '  "extension": [],\n'
    '  "holds": false,\n'
    '  "ideal": "I",\n'
    '  "ring": {\n'
    '    "characteristic": 2,\n'
    '    "order": "grevlex",\n'
    '    "quotient": [\n'
    '      "x^3 + y^3 + z^3"\n'
    '    ],\n'
    '    "variables": [\n'
    '      "x",\n'
    '      "y",\n'
    '      "z"\n'
    '    ]\n'
    '  },\n'
    '  "schema": 1\n'
    '}\n'
)
GOLDEN_PARAMCHECK_FALSE_STDOUT = '(closure)^[p^0] = (ideal)^[p^0] in R: false\n'
# (argv after the subcommand's --ring, pinned --json bytes, pinned stdout)
PINNED_RUNS = (
    (["gb", "--ideal", "I"], GOLDEN_GB_JSON, GOLDEN_GB_STDOUT),
    (["member", "--ideal", "I", "--poly", "x^2+x*y"], GOLDEN_MEMBER_JSON, GOLDEN_MEMBER_STDOUT),
    (["census", "--template", "x^{a}, y^{b}", "--range", "a=1..2", "--range", "b=1..2"],
     GOLDEN_CENSUS_JSON, GOLDEN_CENSUS_STDOUT),
    (["eta", "--sop", "x,y", "--nmax", "1"], GOLDEN_ETA_JSON, GOLDEN_ETA_STDOUT),
    (["paramcheck", "--ideal", "P", "--extend", "y", "--e", "1"],
     GOLDEN_PARAMCHECK_TRUE_JSON, GOLDEN_PARAMCHECK_TRUE_STDOUT),
    (["paramcheck", "--ideal", "I", "--e", "0"],
     GOLDEN_PARAMCHECK_FALSE_JSON, GOLDEN_PARAMCHECK_FALSE_STDOUT),
)


def test_reports_match_golden_bytes(ring_file, tmp_path, capsys):
    out_json = tmp_path / "closure.json"
    assert main(["closure", "--ring", ring_file, "--ideal", "I", "--json", str(out_json)]) == 0
    assert out_json.read_bytes() == GOLDEN_CLOSURE_JSON.encode()
    capsys.readouterr()
    q_json = tmp_path / "qnumber.json"
    assert main(["qnumber", "--ring", ring_file, "--ideal", "I", "--json", str(q_json)]) == 0
    assert capsys.readouterr().out == GOLDEN_QNUMBER_STDOUT
    assert q_json.read_bytes() == GOLDEN_QNUMBER_JSON.encode()
    assert GOLDEN_QNUMBER_JSON != GOLDEN_CLOSURE_JSON
    out_csv = tmp_path / "census.csv"
    assert main(["census", "--ring", ring_file, "--template", "x^{a}, y^{b}",
                 "--range", "a=1..3", "--range", "b=1..3", "--csv", str(out_csv)]) == 0
    assert out_csv.read_bytes() == GOLDEN_CENSUS_CSV.encode()
    capsys.readouterr()
    r_json = tmp_path / "regseq.json"
    assert main(["regseq", "--ring", ring_file, "--elems", "x,y", "--json", str(r_json)]) == 0
    assert capsys.readouterr().out == GOLDEN_REGSEQ_TRUE_STDOUT
    assert r_json.read_bytes() == GOLDEN_REGSEQ_TRUE_JSON.encode()
    x2y = tmp_path / "x2y.ring"
    x2y.write_text("char 2;\nvars x y z;\nquotient x^2*y;\n", encoding="utf-8")
    assert main(["regseq", "--ring", str(x2y), "--elems", "z,x", "--json", str(r_json)]) == 0
    assert capsys.readouterr().out == GOLDEN_REGSEQ_FALSE_STDOUT
    assert r_json.read_bytes() == GOLDEN_REGSEQ_FALSE_JSON.encode()
    height = tmp_path / "height.ring"
    height.write_text(HEIGHT_RING, encoding="utf-8")
    for elems, golden_json, golden_stdout in (
        ("w", GOLDEN_REGSEQ_HEIGHT_TRUE_JSON, GOLDEN_REGSEQ_TRUE_STDOUT),
        ("w, x", GOLDEN_REGSEQ_HEIGHT_FALSE_JSON, GOLDEN_REGSEQ_FALSE_STDOUT),
    ):
        assert main(["regseq", "--ring", str(height), "--elems", elems,
                     "--json", str(r_json)]) == 0
        assert capsys.readouterr().out == golden_stdout
        assert r_json.read_bytes() == golden_json.encode()
    for argv, golden_json, golden_stdout in PINNED_RUNS:
        out_json = tmp_path / f"{argv[0]}.json"
        assert main(argv[:1] + ["--ring", ring_file] + argv[1:] + ["--json", str(out_json)]) == 0
        assert capsys.readouterr().out == golden_stdout
        assert out_json.read_bytes() == golden_json.encode()


# The first pinned reports that print a coefficient other than 1: at p = 2
# every nonzero coefficient is 1 and -c = c, so a sign slip in the packed
# division cannot change the p = 2 reports above.
P5_RING = """char 5;
vars x y z;
quotient x^3+y^3+z^3;
ideal I = x^2 + 3*x*y, y^3;
"""
GOLDEN_P5_CLOSURE_JSON = (
    '{\n'
    '  "certificate_ok": true,\n'
    '  "chain": [\n'
    '    {\n'
    '      "basis": [\n'
    '        "z^6",\n'
    '        "x*z^3",\n'
    '        "y*z^3",\n'
    '        "x*y^2 + 4*z^3",\n'
    '        "y^3",\n'
    '        "x^2 + 3*x*y"\n'
    '      ],\n'
    '      "e": 0\n'
    '    },\n'
    '    {\n'
    '      "basis": [\n'
    '        "z^5",\n'
    '        "x*z^3",\n'
    '        "y*z^3",\n'
    '        "x*y^2 + 4*z^3",\n'
    '        "y^3",\n'
    '        "x^2 + 3*x*y"\n'
    '      ],\n'
    '      "e": 1\n'
    '    },\n'
    '    {\n'
    '      "basis": [\n'
    '        "z^5",\n'
    '        "x*z^3",\n'
    '        "y*z^3",\n'
    '        "x*y^2 + 4*z^3",\n'
    '        "y^3",\n'
    '        "x^2 + 3*x*y"\n'
    '      ],\n'
    '      "e": 2\n'
    '    }\n'
    '  ],\n'
    '  "closure": [\n'
    '    "z^5",\n'
    '    "x*z^3",\n'
    '    "y*z^3",\n'
    '    "x*y^2 + 4*z^3",\n'
    '    "y^3",\n'
    '    "x^2 + 3*x*y"\n'
    '  ],\n'
    '  "command": "closure",\n'
    '  "completeness": "heuristic: window stabilization certifies containment in the closure, not equality with it",\n'
    '  "e_max": 8,\n'
    '  "ideal": "I",\n'
    '  "q": 5,\n'
    '  "q_exponent": 1,\n'
    '  "ring": {\n'
    '    "characteristic": 5,\n'
    '    "order": "grevlex",\n'
    '    "quotient": [\n'
    '      "x^3 + y^3 + z^3"\n'
    '    ],\n'
    '    "variables": [\n'
    '      "x",\n'
    '      "y",\n'
    '      "z"\n'
    '    ]\n'
    '  },\n'
    '  "schema": 1,\n'
    '  "stabilization_index": 1,\n'
    '  "status": "certified_subset_window_stable",\n'
    '  "window": 2\n'
    '}\n'
)
GOLDEN_P5_CLOSURE_STDOUT = (
    'status: certified_subset_window_stable\n'
    'stabilization index: 1\n'
    'closure basis (lift): z^5, x*z^3, y*z^3, x*y^2 + 4*z^3, y^3, x^2 + 3*x*y\n'
    'q_exponent: 1 (Q = 5)\n'
    'certificate_ok: true\n'
    'completeness: heuristic: window stabilization certifies containment in the closure, not equality with it\n'
)
GOLDEN_P5_CENSUS_JSON = (
    '{\n'
    '  "command": "census",\n'
    '  "e_max": 8,\n'
    '  "family": {\n'
    '    "kind": "template",\n'
    '    "ranges": {\n'
    '      "a": [\n'
    '        1,\n'
    '        2\n'
    '      ],\n'
    '      "b": [\n'
    '        2,\n'
    '        3\n'
    '      ]\n'
    '    },\n'
    '    "template": "{a}*x^2 + y^{b}, z^2"\n'
    '  },\n'
    '  "recheck_ok": true,\n'
    '  "ring": {\n'
    '    "characteristic": 5,\n'
    '    "order": "grevlex",\n'
    '    "quotient": [\n'
    '      "x^3 + y^3 + z^3"\n'
    '    ],\n'
    '    "variables": [\n'
    '      "x",\n'
    '      "y",\n'
    '      "z"\n'
    '    ]\n'
    '  },\n'
    '  "rows": [\n'
    '    {\n'
    '      "closure": [\n'
    '        "y^4",\n'
    '        "y^3*z",\n'
    '        "x*y^2 + 4*y^3",\n'
    '        "x^2 + y^2",\n'
    '        "z^2"\n'
    '      ],\n'
    '      "params": {\n'
    '        "a": 1,\n'
    '        "b": 2\n'
    '      },\n'
    '      "q_exponent": 1,\n'
    '      "regseq_ok": true,\n'
    '      "stabilized": true\n'
    '    },\n'
    '    {\n'
    '      "closure": [\n'
    '        "x^2*y^2*z + 4*x*y^2*z",\n'
    '        "x^3 + 4*x^2",\n'
    '        "y^3 + x^2",\n'
    '        "z^2"\n'
    '      ],\n'
    '      "params": {\n'
    '        "a": 1,\n'
    '        "b": 3\n'
    '      },\n'
    '      "q_exponent": 1,\n'
    '      "regseq_ok": true,\n'
    '      "stabilized": true\n'
    '    },\n'
    '    {\n'
    '      "closure": [\n'
    '        "y^4",\n'
    '        "y^3*z",\n'
    '        "x*y^2 + 3*y^3",\n'
    '        "x^2 + 3*y^2",\n'
    '        "z^2"\n'
    '      ],\n'
    '      "params": {\n'
    '        "a": 2,\n'
    '        "b": 2\n'
    '      },\n'
    '      "q_exponent": 1,\n'
    '      "regseq_ok": true,\n'
    '      "stabilized": true\n'
    '    },\n'
    '    {\n'
    '      "closure": [\n'
    '        "x^2*y^2*z + 3*x*y^2*z",\n'
    '        "x^3 + 3*x^2",\n'
    '        "y^3 + 2*x^2",\n'
    '        "z^2"\n'
    '      ],\n'
    '      "params": {\n'
    '        "a": 2,\n'
    '        "b": 3\n'
    '      },\n'
    '      "q_exponent": 1,\n'
    '      "regseq_ok": true,\n'
    '      "stabilized": true\n'
    '    }\n'
    '  ],\n'
    '  "schema": 1,\n'
    '  "uniform_e": 1,\n'
    '  "uniform_e_is_lower_bound": false,\n'
    '  "window": 2\n'
    '}\n'
)
GOLDEN_P5_CENSUS_CSV = (
    'params,regseq_ok,stabilized,q_exponent,closure_gens\n'
    'a=1;b=2,true,true,1,y^4; y^3*z; x*y^2 + 4*y^3; x^2 + y^2; z^2\n'
    'a=1;b=3,true,true,1,x^2*y^2*z + 4*x*y^2*z; x^3 + 4*x^2; y^3 + x^2; z^2\n'
    'a=2;b=2,true,true,1,y^4; y^3*z; x*y^2 + 3*y^3; x^2 + 3*y^2; z^2\n'
    'a=2;b=3,true,true,1,x^2*y^2*z + 3*x*y^2*z; x^3 + 3*x^2; y^3 + 2*x^2; z^2\n'
)
GOLDEN_P5_CENSUS_STDOUT = (
    '  a=1;b=2: q_exponent=1\n'
    '  a=1;b=3: q_exponent=1\n'
    '  a=2;b=2: q_exponent=1\n'
    '  a=2;b=3: q_exponent=1\n'
    'uniform_e: 1\n'
    'bracket-power recheck at uniform_e: ok\n'
)


def test_reports_match_golden_bytes_at_p5(tmp_path, capsys):
    ring_file = tmp_path / "p5.ring"
    ring_file.write_text(P5_RING, encoding="utf-8")
    out_json = tmp_path / "closure.json"
    assert main(["closure", "--ring", str(ring_file), "--ideal", "I", "--json", str(out_json)]) == 0
    assert capsys.readouterr().out == GOLDEN_P5_CLOSURE_STDOUT
    assert out_json.read_bytes() == GOLDEN_P5_CLOSURE_JSON.encode()
    out_json, out_csv = tmp_path / "census.json", tmp_path / "census.csv"
    assert main(["census", "--ring", str(ring_file), "--template", "{a}*x^2 + y^{b}, z^2",
                 "--range", "a=1..2", "--range", "b=2..3",
                 "--json", str(out_json), "--csv", str(out_csv)]) == 0
    assert capsys.readouterr().out == GOLDEN_P5_CENSUS_STDOUT
    assert out_json.read_bytes() == GOLDEN_P5_CENSUS_JSON.encode()
    assert out_csv.read_bytes() == GOLDEN_P5_CENSUS_CSV.encode()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv,message", [
    (["gb", "--ideal", "I"], "charp gb: error: the following arguments are required: --ring"),
    (["closure", "--ring", "r", "--ideal", "I", "--emax", "abc"],
     "charp closure: error: argument --emax: invalid int value: 'abc'"),
    ([], "charp: error: the following arguments are required: command"),
    (["gb", "--ring", "r", "--ideal", "I", "--bogus"],
     "charp: error: unrecognized arguments: --bogus"),
])
def test_usage_errors_exit_1(argv, message, capsys):
    # exit 2 means a computation did not stabilize; argparse's own errors
    # are input errors and keep argparse's text
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: charp")
    assert captured.err.endswith(f"\n{message}\n")
    assert captured.out == ""


RING = ("--ring RING", "ring file path")
JSON = ("--json JSON", "write a JSON report to this path")
BOUNDS = (
    ("--emax EMAX", "chain bound (default 8)"),
    ("--window WINDOW", "consecutive equal chain members required, i.e. "
                        "window - 1 equalities; 1 acts as 2 (default 2)"),
)
IDEAL = ("--ideal IDEAL", "name of an ideal in the ring file")
JOBS = ("--jobs JOBS", "worker processes (default 1)")
# (subcommand, its help in the top-level list, its flags with their help, in order)
SUBCOMMAND_HELP = (
    ("gb", "reduced Groebner basis of a named ideal's lift", (RING, JSON, IDEAL)),
    ("member", "ideal membership in the quotient ring", (RING, JSON, IDEAL, ("--poly POLY", "polynomial to test for membership"))),
    ("regseq", "poor-regular-sequence check",
     (RING, JSON, ("--elems ELEMS", "comma-separated elements"))),
    ("closure", "Frobenius-closure chain with certificate", (RING, JSON, *BOUNDS, IDEAL)),
    ("qnumber", "Q-number of a named ideal", (RING, JSON, *BOUNDS, IDEAL)),
    ("census", "Q-exponent census over a family of ideals", (
        RING, JSON, *BOUNDS,
        ("--template TEMPLATE", "generator template, e.g. 'x^{a}, y^{b}'"),
        ("--range RANGE", "parameter range name=lo..hi (repeatable)"),
        ("--ideal IDEAL", "base ideal for --frobenius-family"),
        ("--frobenius-family", "census over the bracket powers of --ideal"),
        ("--nmax NMAX", "family bound (default 3)"),
        ("--csv CSV", "write census rows as CSV to this path"),
        JOBS,
    )),
    ("eta", "HSL-number scan via parameter-ideal closures", (
        RING, JSON, *BOUNDS,
        ("--sop SOP", "comma-separated regular system of parameters"),
        ("--nmax NMAX", "scan bound (default 1)"),
        JOBS,
    )),
    ("paramcheck", "bracket-power equality for a partial parameter ideal", (
        RING, JSON, *BOUNDS, IDEAL,
        ("--extend EXTEND", "elements completing the system of parameters"),
        ("--e E", "bracket-power exponent to test"),
    )),
)


def _help_options(argv, capsys):
    """The option entries of ``charp <argv> -h``, each with its wrapped help
    joined into one line."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-h"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    entries = []
    for line in captured.out.split("\n\n")[-1].splitlines()[1:]:
        if line.startswith("  ") and not line.startswith("   "):
            entries.append(line.strip())
        else:
            entries[-1] += " " + line.strip()
    return [" ".join(entry.split()) for entry in entries]


def test_help_lists_every_flag_with_its_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    top = _help_options([], capsys)
    assert top == [
        "-h, --help show this help message and exit",
        "--version show program's version number and exit",
    ]
    with pytest.raises(SystemExit):
        main(["-h"])
    listed = " ".join(capsys.readouterr().out.split())
    for name, summary, flags in SUBCOMMAND_HELP:
        assert f" {name} {summary} " in listed + " "
        assert _help_options([name], capsys) == [
            "-h, --help show this help message and exit",
            *(f"{flag} {text}".strip() for flag, text in flags),
        ], name


def test_parsed_defaults():
    parser = build_parser()

    def parse(*argv):
        return vars(parser.parse_args([argv[0], "--ring", "r", *argv[1:]]))

    closure = parse("closure", "--ideal", "I")
    assert (closure["emax"], closure["window"], closure["json"]) == (8, 2, None)
    census = parse("census")
    assert (census["emax"], census["window"], census["nmax"], census["jobs"]) == (8, 2, 3, 1)
    assert (census["range"], census["ideal"], census["frobenius_family"]) == ([], None, False)
    eta = parse("eta", "--sop", "x")
    assert (eta["emax"], eta["window"], eta["nmax"], eta["jobs"]) == (8, 2, 1, 1)
    paramcheck = parse("paramcheck", "--ideal", "I", "--e", "1")
    assert (paramcheck["emax"], paramcheck["window"], paramcheck["extend"]) == (8, 2, "")
    assert "emax" not in parse("gb", "--ideal", "I")


def test_module_entry_point():
    # python -m charp.cli runs the same command line as the charp script
    src = os.path.dirname(os.path.dirname(charp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "charp.cli", "--version"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout == f"charp {charp.__version__}\n"


def test_degree_cap_reaches_spawned_workers(ring_file, tmp_path):
    # spawned workers import charp afresh, so the cap must be handed to them
    script = tmp_path / "spawn_eta.py"
    script.write_text(
        "import multiprocessing, sys\n"
        "from charp.cli import main\n"
        "if __name__ == '__main__':\n"
        "    multiprocessing.set_start_method('spawn')\n"
        f"    sys.exit(main(['eta', '--ring', {ring_file!r}, '--sop', 'x, y',\n"
        "                   '--nmax', '1', '--jobs', '2']))\n",
        encoding="utf-8",
    )
    src = os.path.dirname(os.path.dirname(charp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, FROB_MAX_DEGREE="3")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "FROB_MAX_DEGREE" in proc.stderr
