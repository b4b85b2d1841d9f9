"""Run one tetravol benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics named in BENCHMARK.json, with every time in reference
seconds (see hostspeed.py); the ``info`` line also gives the raw op wall
time and the host's mean speed.  ``--trace 1`` first runs the
same ops untraced in a child process, then runs them with every layer
wrapped, reports the per-layer metrics and writes the spans and the
per-task table to perfbench/out/.  Two maintenance modes:

    python3 perfbench/run.py --check-reference   # re-certify, compare
    python3 perfbench/run.py --make-reference    # re-record the data
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed
import workloads
from tracer import Tracer
from tetravol import _kernels

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 7
DEADLINE_FACTOR = 3  # stop issuing ops after this many times --seconds


def declared_metrics(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    src = workloads.SRC / "tetravol"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_available": _kernels.NUMBA_AVAILABLE,
        "backend": _kernels.get_backend().name,
        "TETRAVOL_BACKEND": os.environ.get("TETRAVOL_BACKEND"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in src.glob("*.py")),
    }


def probe_setup():
    """Reference seconds from spawning a fresh interpreter to set-up done."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py")],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().split()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or len(line) != 3 or line[0] != "ready":
        raise RuntimeError("set-up probe failed")
    speed, overhead = float(line[1]), float(line[2])
    return (elapsed - overhead) * speed


def peak_rss_mb():
    """Peak resident memory of this process or its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024


def run_ops(name, ctx, ops, seconds, tracer=None, probes=0, sampler=None):
    """Issue the ops one at a time; time each, then check it untimed.

    Returns each op's (start, end) wall clock.  The set-up probes run
    between ops, spread over the whole run, so that set-up time samples
    the same stretch of machine time as the ops.  The sampler, if given,
    is paused while a probe runs.
    """
    w = workloads.WORKLOADS[name]
    spans, failed, steps, setup_times = [], 0, 0, []
    probe_at = [k * len(ops) // probes for k in range(probes)]
    loop_start = time.perf_counter()
    for i, op in enumerate(ops):
        if time.perf_counter() - loop_start > DEADLINE_FACTOR * seconds:
            print(f"deadline: issued {i} of {len(ops)} ops", file=sys.stderr)
            break
        while probe_at and probe_at[0] <= i:
            setup_times.append(probe_setup_paused(sampler))
            probe_at.pop(0)
        if tracer is not None:
            tracer.begin_op(i, w.label(op))
        start = time.perf_counter()
        try:
            result = w.run(ctx, op)
        except Exception:
            traceback.print_exc()
            result = None
        spans.append((start, time.perf_counter()))
        if tracer is not None:
            tracer.enabled = False
        try:
            ok = result is not None and w.check(ctx, op, result)
            if ok:
                steps += w.steps(ctx, op, result)
        finally:
            if tracer is not None:
                tracer.enabled = True
        if not ok:
            failed += 1
            print(f"failed op {i}: {w.label(op)}", file=sys.stderr)
    setup_times += [probe_setup_paused(sampler) for _ in probe_at]
    return spans, failed, steps, setup_times


def probe_setup_paused(sampler):
    if sampler is not None:
        sampler.stop()
    try:
        return probe_setup()
    finally:
        if sampler is not None:
            sampler.start()


def info(name, args, ops, durations, steps, **extra):
    line = {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "ops": len(durations), "steps": steps,
            "steps_per_s": steps / sum(durations), **extra}
    if name == "endpoint-scan":
        seen, repeats = set(), 0
        for op in ops[:len(durations)]:
            repeats += (op.beta_mask, op.cell) in seen
            seen.add((op.beta_mask, op.cell))
        line["seen_pair_share"] = repeats / len(durations)
    print("info " + json.dumps(line))


def untraced(args):
    """End-to-end metrics; every time is in reference seconds."""
    ctx = workloads.setup()
    ops = workloads.make_ops(args.workload, ctx, args.seed, args.seconds)
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        spans, failed, steps, setup_times = run_ops(
            args.workload, ctx, ops, args.seconds, probes=SETUP_PROBES,
            sampler=sampler)
    finally:
        sampler.stop()
    durations = [sampler.normalize(t0, t1) for t0, t1 in spans]
    info(args.workload, args, ops, durations, steps,
         op_wall_s=sum(t1 - t0 for t0, t1 in spans),
         op_reference_s=sum(durations), host_speed=sampler.mean_speed(),
         samples=len(sampler.cpus))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_s": float(np.percentile(durations, 50)),
        "op_p90_s": float(np.percentile(durations, 90)),
        "peak_rss_mb": peak_rss_mb(),
    }
    return failed == 0, len(durations), failed, metrics, "end_to_end"


def run_twin(args):
    """The same ops untraced, in a fresh process: the overhead baseline.

    Returns its result line and its ``info`` line.
    """
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    twin_info = next(json.loads(line[5:]) for line in lines
                     if line.startswith("info "))
    return json.loads(lines[-1]), twin_info


def cross_checks(name, ctx, tracer, metrics):
    """Count identities the traced run must satisfy; returns the misses."""
    problems = []
    wpd_expected = (metrics["positive_dominance.certify.wpd_tests"]
                    + tracer.replayed_wpd)
    if metrics["kernels.wpd.calls"] != wpd_expected:
        problems.append(f"kernels.wpd.calls {metrics['kernels.wpd.calls']}"
                        f" != wpd tests plus replayed checks {wpd_expected}")
    for row in tracer.tasks:
        if name == "suite":
            spec = ctx.registry[row["label"]]
            key = workloads.reference.task_key(row["label"],
                                               spec.tasks[row["call"]])
        elif name == "replay":
            key = row["label"]
        else:
            continue
        ref = ctx.certs[key]
        row["task"] = key
        if (row["steps"], row["max_depth"]) != (ref.steps, ref.max_depth):
            problems.append(f"{key}: traced steps/depth {row['steps']}/"
                            f"{row['max_depth']} != reference "
                            f"{ref.steps}/{ref.max_depth}")
    return problems


def traced(args):
    twin, twin_info = run_twin(args)
    untraced_wall = twin_info["op_wall_s"]
    tracer = Tracer()
    tracer.install(_kernels.get_backend())
    try:
        ctx = workloads.setup()
        ops = workloads.make_ops(args.workload, ctx, args.seed, args.seconds)
        spans, failed, steps, _ = run_ops(args.workload, ctx, ops,
                                          args.seconds, tracer)
    finally:
        tracer.uninstall()
    durations = [t1 - t0 for t0, t1 in spans]
    info(args.workload, args, ops, durations, steps)
    traced_wall = sum(durations)
    metrics = tracer.layer_metrics(traced_wall - untraced_wall, untraced_wall)
    problems = cross_checks(args.workload, ctx, tracer, metrics)
    if len(durations) != twin["attempted"]:
        problems.append("traced and untraced runs issued different op counts")
    for p in problems:
        print("cross-check failed: " + p, file=sys.stderr)
    print(f"tracing overhead: {traced_wall:.3f} s traced vs "
          f"{untraced_wall:.3f} s untraced op time")
    print(f"{'task':40s} {'kind':8s} {'steps':>6s} {'depth':>5s} "
          f"{'bits':>5s} {'seconds':>8s}")
    for row in tracer.tasks:
        print(f"{row.get('task', row['label']):40s} {row['kind']:8s} "
              f"{row['steps']:6d} {row['max_depth']:5d} {row['peak_bits']:5d} "
              f"{row['seconds']:8.3f}")
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}",
                 {"environment": environment(), "metrics": metrics,
                  "untraced": twin, "cross_check_failures": problems})
    correct = failed == 0 and twin["correct"] and not problems
    return correct, len(durations), failed, metrics, "per_layer"


def reference_mode(make):
    certs, texts = workloads.reference.record()
    if make:
        workloads.reference.write(certs, texts)
        print(f"wrote {len(certs)} certificates and {len(texts)} case texts")
        return 0
    problems = workloads.reference.compare(certs, texts)
    for p in problems:
        print(p)
    print(f"reference check: {len(certs)} certificates, {len(texts)} case "
          f"texts, {len(problems)} differences")
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", action="store_true")
    ap.add_argument("--check-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.make_reference or args.check_reference:
        return reference_mode(args.make_reference)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    print("env " + json.dumps(environment()))
    correct, attempted, failed, values, kind = (
        traced if args.trace else untraced)(args)
    units = declared_metrics(kind)
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json "
                           f"{kind}: {sorted(set(values) ^ set(units))}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
