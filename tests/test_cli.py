"""Exit codes and output formats of the command-line interface."""

import json
import subprocess
import sys

import pytest

from tetravol.case_suite_cli import main
from tetravol.cayley_menger import directional_derivative, f_polynomial
from tetravol.chamber_geometry import build_partitions
from tetravol.exact_poly import Polynomial
from tetravol.simplex_pullback import pullback


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def usage_error(capsys, *argv):
    """The exit code, the stdout and the one error line of a bad call."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    return exc.value.code, out.out, errors[0]


def test_eval_text_output(capsys):
    code, out, _ = run(capsys, "eval", "--point", "4", "4", "4", "4", "4",
                       "4")
    assert code == 0
    assert "f = 16384" in out
    assert "g_{12,13,14,23,24,34} = 24576" in out


def test_eval_json_output(capsys):
    code, out, _ = run(capsys, "eval", "--point", "6", "3", "3", "3", "3",
                       "6", "--beta", "12,13,14,23,24,34", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["f"] == -93312
    assert payload["g"] == -62208
    assert payload["in_cone"] is True


def test_eval_json_is_byte_deterministic(capsys):
    argv = ["eval", "--point", "4", "4", "4", "4", "4", "4", "--json"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def _write_poly(path, p):
    path.write_text(p.serialize())


def test_certify_file_nonnegative(tmp_path, capsys):
    cell = build_partitions().four["B_1"]
    comb = 3 * directional_derivative((0, 1, 3)) - f_polynomial()
    _write_poly(tmp_path / "p.poly", pullback(comb, cell))
    code, out, _ = run(capsys, "certify-file", str(tmp_path / "p.poly"))
    assert code == 0
    assert "status: Nonnegative" in out
    assert "steps: 1275" in out


def test_certify_file_json_is_the_certificate(tmp_path, capsys):
    cell = build_partitions().four["B_1"]
    comb = 3 * directional_derivative((0, 1, 3)) - f_polynomial()
    _write_poly(tmp_path / "p.poly", pullback(comb, cell))
    code, out, _ = run(capsys, "certify-file", str(tmp_path / "p.poly"),
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, dict)
    assert payload["status"] == "Nonnegative"
    assert payload["steps"] == 1275


def test_certify_file_negative(tmp_path, capsys):
    cell = build_partitions().twelve["C_21"]
    comb = 3 * directional_derivative((0, 2, 3)) - 3 * f_polynomial()
    _write_poly(tmp_path / "n.poly", pullback(comb, cell))
    code, out, _ = run(capsys, "certify-file", str(tmp_path / "n.poly"))
    assert code == 1
    assert "status: NegativeWitness" in out
    assert "corner value: -12288" in out


def test_certify_file_budget_exit(tmp_path, capsys):
    cell = build_partitions().four["B_1"]
    comb = 3 * directional_derivative((0, 1, 3)) - f_polynomial()
    _write_poly(tmp_path / "p.poly", pullback(comb, cell))
    code, out, _ = run(capsys, "certify-file", str(tmp_path / "p.poly"),
                       "--budget", "5")
    assert code == 2
    assert "status: BudgetExhausted" in out


def test_certify_file_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.poly"
    bad.write_text("this is not a polynomial")
    code, _, err = run(capsys, "certify-file", str(bad))
    assert code == 3
    assert "error:" in err


def test_certify_file_missing_file(capsys):
    code, _, err = run(capsys, "certify-file", "/nonexistent/q.poly")
    assert code == 3
    assert "error:" in err


def test_certify_file_rejects_a_budget_below_one(tmp_path, capsys):
    _write_poly(tmp_path / "p.poly", Polynomial.constant(5, 1))
    for budget in ("-1", "0", "many"):
        code, out, err = usage_error(capsys, "certify-file",
                                     str(tmp_path / "p.poly"),
                                     "--budget", budget)
        assert (code, out) == (2, "")
        assert "--budget" in err


def test_unknown_engine_is_a_usage_error(tmp_path, capsys, monkeypatch):
    _write_poly(tmp_path / "p.poly", Polynomial.constant(5, 1))
    monkeypatch.delenv("TETRAVOL_BACKEND", raising=False)
    for argv in (["certify-file", str(tmp_path / "p.poly"),
                  "--backend", "numba"],
                 ["case", "run", "single-edge", "--backend", "numba"]):
        code, out, err = usage_error(capsys, *argv)
        assert (code, out) == (2, "")
        assert "numba" in err
    monkeypatch.setenv("TETRAVOL_BACKEND", "numba")
    code, out, err = usage_error(capsys, "case", "run-all")
    assert (code, out) == (2, "")
    assert "numba" in err


def test_partition_check_small(capsys):
    code, out, _ = run(capsys, "partition-check", "--samples", "300",
                       "--cross-check", "30")
    assert code == 0
    assert "-> ok" in out


def test_anticert_found(capsys):
    code, out, _ = run(capsys, "anticert", "--beta", "12,13", "--chamber",
                       "p1234b3", "--trials", "500", "--seed", "4")
    assert code == 0
    fields = out.split()
    assert fields[0] == "12,13"
    assert fields[1] == "p1234b3"
    assert len(fields) == 10


def test_anticert_not_found_on_certified_chamber(capsys):
    code, out, _ = run(capsys, "anticert", "--beta", "12", "--chamber",
                       "p1324b2", "--trials", "200")
    assert code == 1
    assert "no witness" in out


def test_case_list(capsys):
    code, out, _ = run(capsys, "case", "list")
    assert code == 0
    for name in ["full-K4", "single-edge", "3-cycle"]:
        assert name in out


def test_case_run_json(capsys):
    code, out, _ = run(capsys, "case", "run", "3-cycle", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["tasks"][0]["steps"] == 1275
    assert payload["tasks"][0]["grade"] == "GOLD"


def test_case_run_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit):
        main(["case", "run", "pentagon"])


def test_lengthen_check_small(capsys):
    code, out, _ = run(capsys, "lengthen-check", "--trials", "5")
    assert code == 0
    assert "regular_equality=True" in out


def test_appendix_check_small(capsys):
    code, out, _ = run(capsys, "appendix-check", "--trials", "4")
    assert code == 0
    assert "quadrature_failures=0" in out


def test_explore_reports_unasserted_types_without_failing(capsys):
    code, out, _ = run(capsys, "explore", "--point", "4", "4", "4", "4",
                       "4", "4", "--beta", "12,13,14,23,24")
    assert code == 0
    assert "type: complement-of-edge" in out
    assert "certified=n/a" in out


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "tetravol.case_suite_cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "tetravol" in proc.stdout
