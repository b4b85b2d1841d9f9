"""Fast tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import workloads

reference = workloads.reference

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bits")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def ctx():
    return workloads.setup()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_untraced_run_reports_the_declared_metrics(name):
    out = run_cli("--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", "0")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_runs_repeat_their_counts_and_pass_cross_checks():
    runs = [run_cli("--workload", "replay", "--seed", "5", "--seconds", "1",
                    "--trace", "1") for _ in range(2)]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for out in runs:
        assert out["correct"]
        assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    counts = [{k: v["value"] for k, v in out["metrics"].items()
               if v["unit"] in COUNT_UNITS} for out in runs]
    assert counts[0] == counts[1]
    assert counts[0]["positive_dominance.replay.calls"] == 1
    assert counts[0]["kernels.wpd.calls"] == 421


def test_same_seed_same_ops_and_seed_changes_them(ctx):
    for name in workloads.WORKLOADS:
        first = workloads.make_ops(name, ctx, 7, 20)
        assert first == workloads.make_ops(name, ctx, 7, 20)
    assert (workloads.make_ops("endpoint-scan", ctx, 7, 20)
            != workloads.make_ops("endpoint-scan", ctx, 8, 20))


def test_run_length_encoding_round_trips():
    actions = "SSSWWSWWWWWWWWWWWWN"
    assert reference.rle_encode(actions) == "S3W2SW12N"
    assert reference.rle_decode("S3W2SW12N") == actions
    with pytest.raises(ValueError):
        reference.rle_decode("S3X")


def test_tampered_case_text_fails_the_suite_op(ctx):
    report = workloads.suite_run(ctx, "3-cycle")
    assert workloads.suite_check(ctx, "3-cycle", report)
    tampered = dataclasses.replace(
        ctx, texts=dict(ctx.texts, **{"3-cycle": ctx.texts["3-cycle"]
                                      .replace("steps=1275", "steps=1274")}))
    assert not workloads.suite_check(tampered, "3-cycle", report)


def test_tampered_action_string_fails_the_replay_op(ctx):
    key = "opposite-pair/U2/g"
    cert = ctx.certs[key]
    assert workloads.replay_check(ctx, key, workloads.replay_run(ctx, key))
    i = cert.actions.index("W")
    forged = dataclasses.replace(
        cert, actions=cert.actions[:i] + "S" + cert.actions[i + 1:])
    tampered = dataclasses.replace(ctx, certs=dict(ctx.certs, **{key: forged}))
    assert not workloads.replay_check(
        tampered, key, workloads.replay_run(tampered, key))


def test_lineage_corner_follows_reflections():
    assert workloads.lineage_corner("") == (0,) * 5
    assert workloads.lineage_corner("R0,L0")[0] == 1
    assert workloads.lineage_corner("R0,R0")[0] == 0.5
    assert workloads.lineage_corner("L2,R2")[2] == 0.5


def test_flipped_witness_corner_is_rejected(ctx):
    op = workloads.Endpoint(beta_mask=37, cell="D_1111", a=3, b=-1)
    p, cert = workloads.endpoint_run(ctx, op)
    assert cert.status == "NegativeWitness" and cert.witness_lineage
    assert workloads.endpoint_check(ctx, op, (p, cert))
    flipped = dataclasses.replace(cert, witness_corner=-cert.witness_corner)
    assert not workloads.endpoint_check(ctx, op, (p, flipped))
    assert not workloads.endpoint_check(ctx, op, (p * -1, cert))


def test_budget_exit_must_spend_the_whole_budget(ctx):
    op = workloads.Endpoint(beta_mask=37, cell="D_1111", a=3, b=-1)
    p, cert = workloads.endpoint_run(ctx, op)
    short = dataclasses.replace(cert, status="BudgetExhausted", steps=3,
                                budget=workloads.ENDPOINT_BUDGET)
    assert not workloads.endpoint_check(ctx, op, (p, short))


def test_normalize_scales_by_host_speed_and_drops_sampling_time():
    s = hostspeed.Sampler()
    ref = hostspeed.REFERENCE_S
    s.starts.extend([1.0, 2.0])
    s.walls.extend([0.01, 0.01])
    s.cpus.extend([ref, ref / 2])
    assert s.normalize(0.5, 2.5) == pytest.approx((2.0 - 0.02) * 1.5)
    assert s.normalize(2.9, 3.0) == pytest.approx(0.1 * 2)
    assert s.normalize(0.0, 0.2) == pytest.approx(0.2)
