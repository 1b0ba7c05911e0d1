import io
import json
import subprocess
import sys

import pytest

from defoutlier.cli import main
from conftest import CELLPHONE, CREDIT_CARD


@pytest.fixture
def credit_file(tmp_path):
    p = tmp_path / "creditcard.dth"
    p.write_text(CREDIT_CARD)
    return str(p)


@pytest.fixture
def cell_file(tmp_path):
    p = tmp_path / "cellphone.dth"
    p.write_text(CELLPHONE)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify(capsys, credit_file):
    code, out, _ = run(capsys, "classify", credit_file)
    assert code == 0 and out == "NU\n"


def test_extensions(capsys, credit_file, tmp_path):
    code, out, _ = run(capsys, "extensions", credit_file)
    assert code == 0
    assert out == "{CreditNumber, MultipleIPs}\n"
    p = tmp_path / "incoherent.dth"
    p.write_text("default : a / -a.")
    assert run(capsys, "extensions", str(p))[:2] == (0, "no extensions\n")


def test_extensions_takes_no_backend(capsys, credit_file):
    # extensions always runs the exhaustive search, so it offers no --backend.
    code, out, err = run(capsys, "extensions", "--backend", "fast", credit_file)
    assert (code, out) == (2, "")
    assert "--backend" in err


def test_entails_exit_codes(capsys, tmp_path):
    p = tmp_path / "t.dth"
    p.write_text("fact a. default a : b / b.")
    code, out, _ = run(capsys, "entails", "--goal", "b", str(p))
    assert (code, out) == (0, "entailed\n")
    code, out, _ = run(capsys, "entails", "--goal=-b", str(p))
    assert (code, out) == (1, "not entailed\n")


def test_malformed_literal_lists_exit_2(capsys, credit_file):
    # Literal lists use the letter syntax of the theory text format.
    for argv in (
        ["entails", "--goal=b c"],
        ["entails", "--goal=--b"],
        ["entails", "--goal=CreditNumber,-"],
        ["witness", "--L", "Credit|Number", "--S", "MultipleIPs"],
        ["witness", "--L", "CreditNumber", "--S", "1MultipleIPs"],
        ["recognize", "--L=-é"],
    ):
        code, out, err = run(capsys, *argv, credit_file)
        assert (code, out) == (2, ""), argv
        assert "bad literal" in err
    # Reserved prefixes stay allowed, as in CLI theory input.
    code, out, _ = run(capsys, "entails", "--goal", "CreditNumber,-_l0", credit_file)
    assert (code, out) == (1, "not entailed\n")
    # Blanks may follow the minus sign, as in the text format: "- b" is -b.
    code, out, _ = run(capsys, "entails", "--goal", " - MultipleIPs ", credit_file)
    assert (code, out) == (1, "not entailed\n")


def test_witness_golden(capsys, credit_file):
    code, out, _ = run(capsys, "witness", "--L", "CreditNumber", "--S", "MultipleIPs", credit_file)
    assert code == 0
    assert out == "witness: yes (general), yes (strong)\n"
    code, out, _ = run(capsys, "witness", "--L", "MultipleIPs", "--S", "CreditNumber", credit_file)
    assert code == 1
    assert out == "witness: no (general), no (strong)\n"


def test_witness_general_only(capsys, cell_file):
    code, out, _ = run(
        capsys, "witness", "--L", "CellUse", "--S=-MfC,NewLocation,QuietTime,MultipleIPs", cell_file
    )
    assert code == 0
    assert out == "witness: yes (general), no (strong)\n"


def test_recognize(capsys, cell_file):
    code, out, _ = run(capsys, "recognize", "--L", "CreditNumber", cell_file)
    assert code == 0
    assert out.splitlines()[0] == "strong outlier: yes"
    code, out, _ = run(capsys, "recognize", "--L", "MultipleIPs", cell_file)
    assert code == 1
    assert out == "strong outlier: no\n"


def test_enumerate_text_and_records(capsys, cell_file):
    code, out, _ = run(capsys, "enumerate", "--strong", "-k", "1", cell_file)
    assert code == 0
    lines = out.splitlines()
    assert any("outlier {CellUse}" in l for l in lines)
    assert any("outlier {CreditNumber}" in l for l in lines)

    code, out, _ = run(capsys, "enumerate", "--strong", "-k", "1", "--format", "records", cell_file)
    records = [json.loads(l) for l in out.splitlines()]
    assert {tuple(r["outlier"]) for r in records} == {("CellUse",), ("CreditNumber",)}
    assert all(r["strong"] for r in records)


def test_enumerate_without_outliers(capsys, tmp_path):
    p = tmp_path / "facts.dth"
    p.write_text("fact a & -b.")
    assert run(capsys, "enumerate", "--strong", "-k", "1", str(p))[:2] == (0, "no outliers\n")


def test_graph_summary_and_dot(capsys, credit_file):
    code, out, _ = run(capsys, "graph", credit_file)
    assert code == 0
    assert "tightness: 1" in out
    code, out, _ = run(capsys, "graph", "--dot", credit_file)
    assert out.startswith("digraph")


def test_parse_error_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.dth"
    p.write_text("default a : / b.")
    code, _, err = run(capsys, "classify", str(p))
    assert code == 2
    assert "justification" in err


def test_budget_exit_3(capsys, tmp_path):
    p = tmp_path / "t.dth"
    from defoutlier import random_theory, theory_to_text

    p.write_text(theory_to_text(random_theory("NU", 8, 12, 2, seed=3)))
    code, _, err = run(capsys, "extensions", "--budget", "3", str(p))
    assert code == 3
    assert "budget" in err
    # v2 is a fact, so every extension holds it and no search is needed.
    code, out, _ = run(capsys, "entails", "--backend", "exhaustive", "--budget", "1", "--goal=v2", str(p))
    assert (code, out) == (0, "entailed\n")


def test_budget_below_one_exit_2(capsys, credit_file):
    # A budget below 1 is a usage error, not an exhausted search, and the
    # fast backend does not ignore it either.
    for argv in (
        ["extensions", "--budget", "0"],
        ["extensions", "--budget", "-5"],
        ["extensions", "--budget", "many"],
        ["entails", "--backend", "fast", "--goal", "CreditNumber", "--budget", "-5"],
    ):
        code, out, err = run(capsys, *argv, credit_file)
        assert code == 2, argv
        assert out == ""
        assert "budget must be a positive integer" in err
    assert run(capsys, "extensions", "--budget", "1", credit_file)[0] == 0


def test_reduce_entails_pipeline(capsys, tmp_path, monkeypatch):
    # unsatisfiable CNF: thm10 reduction entails the designated letter
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run(capsys, "reduce", "--construction", "thm10", str(cnf))
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out2, _ = run(capsys, "entails", "--goal", "_l", "-")
    assert (code, out2) == (0, "entailed\n")

    sat_cnf = tmp_path / "sat.cnf"
    sat_cnf.write_text("p cnf 1 1\n1 0\n")
    code, out, _ = run(capsys, "reduce", "--construction", "thm10", str(sat_cnf))
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out2, _ = run(capsys, "entails", "--goal", "_l", "-")
    assert (code, out2) == (1, "not entailed\n")


def test_random_deterministic(capsys):
    code, out1, _ = run(capsys, "random", "--fragment", "NU", "--letters", "6", "--rules", "8",
                        "--tightness", "1", "--seed", "42")
    code, out2, _ = run(capsys, "random", "--fragment", "NU", "--letters", "6", "--rules", "8",
                        "--tightness", "1", "--seed", "42")
    assert code == 0 and out1 == out2


def test_cli_output_matches_library_serialization(capsys, cell_file):
    from defoutlier import enumerate_strong, format_report_lines, parse_theory

    code, out, _ = run(capsys, "enumerate", "--strong", "-k", "1", "--all-witnesses", cell_file)
    theory = parse_theory(CELLPHONE)
    expect = []
    for r in enumerate_strong(theory, 1):
        expect.extend(format_report_lines(r, all_witnesses=True))
    assert out == "".join(l + "\n" for l in expect)


def test_usage_error_exit_2(capsys):
    assert main(["enumerate"]) == 2  # missing theory argument


def test_enumerate_witness_bound_needs_general(capsys, cell_file):
    # --h bounds general witnesses only; strong enumeration must not ignore it.
    for argv in (["--h", "3"], ["--strong", "--h", "1"]):
        code, out, err = run(capsys, "enumerate", *argv, cell_file)
        assert (code, out) == (2, "") and "--general" in err
    code, out, err = run(capsys, "enumerate", "--general", "--h", "0", cell_file)
    assert (code, out) == (2, "") and "witness size bound" in err
    code, out, _ = run(capsys, "enumerate", "--general", "--h", "4", "--format", "records", cell_file)
    assert code == 0 and '"outlier": ["CellUse"]' in out


def test_console_entry_point(credit_file):
    proc = subprocess.run(
        [sys.executable, "-m", "defoutlier", "classify", credit_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "NU\n"
