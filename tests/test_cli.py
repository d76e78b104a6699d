import json

import pytest

from charp.cli import main

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


def test_paramcheck(ring_file, capsys):
    assert main(["paramcheck", "--ring", ring_file, "--ideal", "P",
                 "--extend", "y", "--e", "1"]) == 0
    assert "true" in capsys.readouterr().out
    assert main(["paramcheck", "--ring", ring_file, "--ideal", "I", "--e", "0"]) == 0
    assert "false" in capsys.readouterr().out


def test_input_errors_name_the_flag(ring_file, tmp_path, capsys):
    assert main(["member", "--ring", ring_file, "--ideal", "I", "--poly", "w"]) == 1
    assert "--poly" in capsys.readouterr().err
    assert main(["gb", "--ring", ring_file, "--ideal", "NOPE"]) == 1
    assert "--ideal" in capsys.readouterr().err
    assert main(["gb", "--ring", str(tmp_path / "nope.ring"), "--ideal", "I"]) == 1
    assert "--ring" in capsys.readouterr().err
    bad = tmp_path / "bad.ring"
    bad.write_text("char 4;\nvars x;\n")
    assert main(["gb", "--ring", str(bad), "--ideal", "I"]) == 1
    assert "1:1" in capsys.readouterr().err


def test_degree_cap_env(ring_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FROB_MAX_DEGREE", "4")
    assert main(["closure", "--ring", ring_file, "--ideal", "I"]) == 2
    assert "FROB_MAX_DEGREE" in capsys.readouterr().err
    monkeypatch.setenv("FROB_MAX_DEGREE", "junk")
    assert main(["closure", "--ring", ring_file, "--ideal", "I"]) == 1
    monkeypatch.delenv("FROB_MAX_DEGREE")
    assert main(["closure", "--ring", ring_file, "--ideal", "I"]) == 0


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
