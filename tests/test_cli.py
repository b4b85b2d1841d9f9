"""Exit codes and output formats of the command-line interface."""

import argparse
import functools
import json
import os
import subprocess
import sys

import pytest

from tetravol import cli
from tetravol.cayley_menger import (EdgeSubset, directional_derivative,
                                    f_polynomial)
from tetravol.chamber_geometry import build_partitions
from tetravol.cli import build_parser, main
from tetravol.exact_poly import Polynomial
from tetravol.simplex_pullback import pullback

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


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
    comb = 3 * directional_derivative(EdgeSubset((0, 1, 3))) - f_polynomial()
    _write_poly(tmp_path / "p.poly", pullback(comb, cell))
    code, out, _ = run(capsys, "certify-file", str(tmp_path / "p.poly"))
    assert code == 0
    assert "status: Nonnegative" in out
    assert "steps: 1275" in out


def test_certify_file_json_is_the_certificate(tmp_path, capsys):
    cell = build_partitions().four["B_1"]
    comb = 3 * directional_derivative(EdgeSubset((0, 1, 3))) - f_polynomial()
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
    comb = (3 * directional_derivative(EdgeSubset((0, 2, 3)))
            - 3 * f_polynomial())
    _write_poly(tmp_path / "n.poly", pullback(comb, cell))
    code, out, _ = run(capsys, "certify-file", str(tmp_path / "n.poly"))
    assert code == 1
    assert "status: NegativeWitness" in out
    assert "corner value: -12288" in out


def test_certify_file_budget_exit(tmp_path, capsys):
    cell = build_partitions().four["B_1"]
    comb = 3 * directional_derivative(EdgeSubset((0, 1, 3))) - f_polynomial()
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


def test_count_flags_reject_values_below_one(capsys):
    # a run that checks nothing must not report success
    for argv in (["lengthen-check", "--trials"],
                 ["lengthen-check", "--max-entry"],
                 ["lengthen-check", "--t"],
                 ["appendix-check", "--trials"],
                 ["appendix-check", "--max-entry"],
                 ["partition-check", "--samples"],
                 ["partition-check", "--cross-check"],
                 ["anticert", "--beta", "12", "--chamber", "p1234b3",
                  "--trials"]):
        for value in ("-3", "0", "many"):
            code, out, err = usage_error(capsys, *argv, value)
            assert (code, out) == (2, "")
            assert argv[-1] in err


def test_malformed_beta_and_chamber_are_usage_errors(capsys):
    # exit 1 from anticert means "no witness found", never a bad argument
    point = ["--point", "4", "4", "4", "4", "4", "4"]
    for argv in (["eval"] + point + ["--beta"],
                 ["explore"] + point + ["--beta"],
                 ["anticert", "--chamber", "p1234b3", "--beta"]):
        for value in ("zz", "99", "12,5", ",", "12,12", "12,21"):
            code, out, err = usage_error(capsys, *argv, value)
            assert (code, out) == (2, "")
            assert "--beta" in err
    # an edge named twice is refused, not read as the one edge
    code, out, err = usage_error(capsys, "eval", *point, "--beta", "12,12")
    assert (code, out) == (2, "")
    assert "repeated edge '12'" in err
    for value in ("D_1111", "p1234b2", ""):
        code, out, err = usage_error(capsys, "anticert", "--beta", "12",
                                     "--chamber", value)
        assert (code, out) == (2, "")
        assert "--chamber" in err


def test_unknown_engine_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # there is one engine: --backend is not an argument and
    # TETRAVOL_BACKEND is ignored
    _write_poly(tmp_path / "p.poly", Polynomial.constant(5, 1))
    monkeypatch.delenv("TETRAVOL_BACKEND", raising=False)
    for argv in (["certify-file", str(tmp_path / "p.poly")],
                 ["case", "run", "single-edge"],
                 ["case", "run-all"]):
        code, out, err = usage_error(capsys, *argv, "--backend", "numpy")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --backend numpy" in err
    monkeypatch.setenv("TETRAVOL_BACKEND", "numba")
    code, out, _ = run(capsys, "certify-file", str(tmp_path / "p.poly"))
    assert code == 0
    assert "status: Nonnegative" in out


def test_partition_check_small(capsys):
    code, out, _ = run(capsys, "partition-check", "--samples", "300",
                       "--cross-check", "30")
    assert code == 0
    assert "-> ok" in out


def test_partition_check_reports_identities_apart_from_coverage(
        capsys, monkeypatch):
    # a coverage failure fails the run but leaves the identities true
    def failing(**kwargs):
        return {"samples": 1, "seed": 0, "misses": {"fortyeight": 1},
                "cross_checked": 0, "cross_mismatches": 0, "ok": False}
    monkeypatch.setattr(cli, "partition_check", failing)
    code, out, _ = run(capsys, "partition-check")
    assert code == 1
    assert "barycenter_identities=True -> FAIL" in out
    code, out, _ = run(capsys, "partition-check", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["barycenter_identities"] is True
    assert payload["ok"] is False


def test_anticert_found(capsys):
    code, out, _ = run(capsys, "anticert", "--beta", "12,13", "--chamber",
                       "p1234b3", "--trials", "500", "--seed", "4")
    assert code == 0
    fields = out.split()
    assert fields[0] == "12,13"
    assert fields[1] == "p1234b3"
    assert len(fields) == 10


def test_anticert_exits_3_when_the_witness_fails_reverification(
        capsys, monkeypatch):
    monkeypatch.setattr(cli.anticert, "verify_witness", lambda w: False)
    code, out, _ = run(capsys, "anticert", "--beta", "12,13", "--chamber",
                       "p1234b3", "--trials", "500", "--seed", "4", "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["reverified"] is False


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


def test_case_list_json_rows(capsys):
    code, out, _ = run(capsys, "case", "list", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["name"] for r in rows] == [
        "full-K4", "single-edge", "incident-pair", "opposite-pair",
        "tripod", "3-path", "4-cycle", "3-cycle"]
    assert [r["chambers"] for r in rows] == [48, 12, 4, 32, 12, 8, 16, 36]
    assert [r["tasks"] for r in rows] == [2, 6, 12, 8, 2, 3, 2, 1]
    assert [r["curves"] for r in rows] == [0, 2, 2, 0, 0, 0, 1, 2]
    assert all(r.keys() == {"name", "edges", "chambers", "tasks", "curves"}
               for r in rows)


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


def test_lengthen_check_fails_loudly_when_every_trial_fails(capsys,
                                                           monkeypatch):
    monkeypatch.setattr(cli, "lengthen_check", lambda d, t: False)
    code, out, _ = run(capsys, "lengthen-check", "--trials", "3", "--json")
    assert code == 1
    assert json.loads(out) == {"trials": 3, "failures": 3,
                               "regular_equality": True}
    code, out, _ = run(capsys, "lengthen-check", "--trials", "3")
    assert code == 1
    assert out.rstrip().endswith("failures=3 regular_equality=True -> FAIL")


@pytest.mark.parametrize("check, failed", [
    ("quadrature_check", (3, 0)), ("root_list_check", (0, 3)),
])
def test_appendix_check_fails_loudly_when_every_trial_fails(
        capsys, monkeypatch, check, failed):
    monkeypatch.setattr(cli, check, lambda *lists: False)
    code, out, _ = run(capsys, "appendix-check", "--trials", "3", "--json")
    assert code == 1
    assert json.loads(out) == {"trials": 3,
                               "quadrature_failures": failed[0],
                               "root_failures": failed[1]}
    code, out, _ = run(capsys, "appendix-check", "--trials", "3")
    assert code == 1
    assert out.rstrip().endswith(
        "quadrature_failures=%d root_failures=%d -> FAIL" % failed)


def test_explore_reports_unasserted_types_without_failing(capsys):
    code, out, _ = run(capsys, "explore", "--point", "4", "4", "4", "4",
                       "4", "4", "--beta", "12,13,14,23,24")
    assert code == 0
    assert "type: complement-of-edge" in out
    assert "certified=n/a" in out


def test_console_script_help():
    # a checkout imports the package only through pytest's pythonpath
    for module in ("tetravol.cli", "tetravol"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0
        assert "tetravol" in proc.stdout
        assert "case" in proc.stdout


@pytest.mark.parametrize("module", ["tetravol.case_suite_cli", "tetravol"])
def test_the_library_loads_no_command_line(module):
    # the cases, reports and sampled checks import without the parser
    probe = ("import sys, %s; print('argparse' in sys.modules, "
             "'tetravol.cli' in sys.modules)" % module)
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_a_closed_pipe_exits_141_without_a_traceback():
    # the read end closes before the child writes, as `| head` can
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tetravol", "case", "list"],
            stdout=write, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC))
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr


# -- one print path ------------------------------------------------------

CONTRACT_CALLS = {
    "eval": ["eval", "--point", "6", "3", "3", "3", "3", "6"],
    "certify-file": ["certify-file", "{poly}"],
    "partition-check": ["partition-check", "--samples", "50",
                        "--cross-check", "5"],
    "anticert": ["anticert", "--beta", "12", "--chamber", "p1324b2",
                 "--trials", "50"],
    "case list": ["case", "list"],
    "case run": ["case", "run", "3-cycle"],
    "case run-all": ["case", "run-all"],
    "lengthen-check": ["lengthen-check", "--trials", "3"],
    "appendix-check": ["appendix-check", "--trials", "2"],
    "explore": ["explore", "--point", "4", "4", "4", "4", "4", "4",
                "--beta", "12,34"],
}

# the text and --json runs of a case command share one suite pass
_run_case_once = functools.cache(cli.run_case)


def _leaf_commands(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_commands(sub, prefix + (name,))
            return
    yield " ".join(prefix)


def test_contract_covers_every_subcommand():
    assert set(_leaf_commands(build_parser())) == set(CONTRACT_CALLS)


@pytest.mark.parametrize("command", list(CONTRACT_CALLS))
def test_text_and_json_runs_agree_on_the_exit_code(command, tmp_path,
                                                   capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_case", _run_case_once)
    _write_poly(tmp_path / "p.poly", Polynomial.constant(5, -1))
    argv = [str(tmp_path / "p.poly") if a == "{poly}" else a
            for a in CONTRACT_CALLS[command]]
    code, text, _ = run(capsys, *argv)
    json_code, out, _ = run(capsys, *argv, "--json")
    assert json_code == code
    assert text.strip() and text.endswith("\n")
    assert len(out.splitlines()) == 1
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
def test_certify_file_errors_print_nothing_on_stdout(tmp_path, capsys, mode):
    bad = tmp_path / "bad.poly"
    bad.write_text("this is not a polynomial")
    for path in (tmp_path / "missing.poly", bad):
        code, out, err = run(capsys, "certify-file", str(path), *mode)
        assert (code, out) == (3, "")
        assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("certify-file", "{poly}"), ("case", "run", "3-cycle"),
    ("case", "run-all"), ("case", "run-all", "--json")])
def test_running_out_of_memory_exits_4(argv, tmp_path, capsys, monkeypatch):
    # an allocation that fails anywhere under a command, as numpy's own
    # MemoryError does under a small address-space limit, is not a
    # negative corner (exit 1) but exit 4, with one error line
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "certify", exhausted)
    monkeypatch.setattr(cli, "run_case", exhausted)
    _write_poly(tmp_path / "p.poly", Polynomial.constant(5, 1))
    argv = [str(tmp_path / "p.poly") if a == "{poly}" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (4, "", "error: out of memory\n")
