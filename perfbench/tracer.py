"""Spans around tetravol's module boundaries, recorded from outside it.

The tracer replaces public functions with wrappers that record one span
per call: name, start, end, parent span and op id.  Spans live in flat
arrays while the run goes on; ``write`` stores them at the end and
``layer_metrics`` derives calls, inclusive seconds and self seconds from
them.  Nothing under ``src/`` is edited: names are replaced in every
module namespace that holds them, because callers such as
``case_suite_cli`` import ``certify`` and ``pullback`` by name, and the
engine methods live on the one instance that ``get_backend()`` caches.
"""

import json
import sys
import time
from array import array

import numpy as np

SIZE = 7 ** 5
KERNEL_OPS = ("from_poly", "wpd", "reflect", "dilate", "guard",
              "origin_negative")
STATUSES = {"Nonnegative": "nonnegative",
            "NegativeWitness": "negative_witness",
            "BudgetExhausted": "budget_exhausted"}
SHALLOW_DEPTH = 12
DEEP_DEPTH = 16
HOOK_SPAN = "trace.hooks"

# span name -> the stats reported for it
SPAN_STATS = {
    **{"kernels." + op: ("calls", "s") for op in KERNEL_OPS},
    "positive_dominance.certify": ("calls", "s", "self_s"),
    "positive_dominance.replay": ("calls", "s", "self_s"),
    "simplex_pullback.pullback": ("calls", "s"),
    "simplex_pullback.build_pullback": ("calls", "s"),
    "exact_poly.Polynomial.substitute": ("calls", "s"),
    "exact_poly.Polynomial.evaluate": ("calls", "s"),
    "exact_poly.Polynomial.restrict_curve": ("calls", "s"),
    "cayley_menger.directional_derivative": ("calls", "s"),
    "cayley_menger.is_tetrahedral": ("calls", "s"),
    "cayley_menger.f_polynomial": ("s",),
    "chamber_geometry.partition_check": ("calls", "s"),
    "chamber_geometry.LatticeSimplex6.contains": ("calls", "s"),
    "chamber_geometry.cell_description_membership": ("calls", "s"),
    "chamber_geometry.build_partitions": ("s",),
    "chamber_geometry.decoration_table": ("s",),
    "anti_certification.verify_witness": ("calls", "s"),
    "anti_certification.f_value_bordered": ("calls", "s"),
    "anti_certification.full_k4_campaign": ("calls", "s"),
    "case_suite_cli.run_case": ("calls", "s", "self_s"),
    "case_suite_cli.curve_result": ("calls", "s"),
}

# counters filled by the hooks; every one is reported, 0 when unused
COUNTERS = (
    "kernels.peak_coeff_bits",
    "positive_dominance.certify.steps",
    "positive_dominance.certify.wpd_tests",
    "positive_dominance.certify.subdivisions",
    "positive_dominance.certify.max_depth",
    *("positive_dominance.certify." + s for s in STATUSES.values()),
    "positive_dominance.replay.steps",
    "simplex_pullback.pullback.terms_out",
    "anti_certification.full_k4_campaign.trials",
    "anti_certification.full_k4_campaign.prescreen",
)

DERIVED = (
    "kernels.wpd.derived_coeffs_per_s",
    "kernels.reflect.derived_coeffs_per_s",
    "kernels.dilate.derived_coeffs_per_s",
    "positive_dominance.certify.wpd_pass_ratio",
    "positive_dominance.shallow_steps_per_s",
    "positive_dominance.deep_steps_per_s",
    "trace.overhead_s",
    "trace.overhead_share",
)


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{span}.{stat}" for span, stats in SPAN_STATS.items()
             for stat in stats]
    return names + list(COUNTERS) + list(DERIVED)


def cube_bits(cube):
    """Bit length of the largest coefficient magnitude in an engine cube."""
    if isinstance(cube, tuple):  # two-limb int64 engine, to within one bit
        hi, lo = cube
        top = int(np.abs(hi).max())
        return top.bit_length() + 40 if top else int(lo.max()).bit_length()
    return max(int(cube.max()), -int(cube.min())).bit_length()


class Tracer:
    """In-memory span recorder plus the hooks that count work per layer."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1  # -1 marks set-up, before the first op
        self.op_label = "setup"
        self.enabled = True
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.wpd_leaves = 0
        self.replayed_wpd = 0
        self.tasks = []
        self._task_bits = 0
        self._calls_in_op = 0
        self._stack = []
        self._undo = []
        self._hook_id = self._intern(HOOK_SPAN)

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, hook=None):
        """A callable that records a span around fn, then runs the hook.

        Hook time is recorded under its own span so that it is taken out
        of the enclosing spans' self time.
        """
        nid = self._intern(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hid = tracer._open(tracer._hook_id)
                hook(idx, args, kwargs, result)
                tracer._close(hid)
            return result

        return traced

    # -- installing wrappers ------------------------------------------

    def replace_everywhere(self, original, wrapper, namespaces):
        """Point every module-level name bound to original at wrapper."""
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    self._undo.append((ns, key, original))

    def install(self, engine):
        """Wrap the public functions of every tetravol layer."""
        from tetravol import (anti_certification, case_suite_cli,
                              cayley_menger, chamber_geometry, exact_poly,
                              positive_dominance, simplex_pullback)
        namespaces = [m for name, m in sys.modules.items()
                      if name == "tetravol" or name.startswith("tetravol.")]
        hooks = {"certify": self._after_certify, "replay": self._after_replay,
                 "pullback": self._after_pullback,
                 "full_k4_campaign": self._after_campaign}
        functions = (
            (positive_dominance, "certify"), (positive_dominance, "replay"),
            (simplex_pullback, "pullback"),
            (simplex_pullback, "build_pullback"),
            (cayley_menger, "directional_derivative"),
            (cayley_menger, "is_tetrahedral"), (cayley_menger, "f_polynomial"),
            (chamber_geometry, "partition_check"),
            (chamber_geometry, "cell_description_membership"),
            (chamber_geometry, "build_partitions"),
            (anti_certification, "verify_witness"),
            (anti_certification, "f_value_bordered"),
            (anti_certification, "full_k4_campaign"),
            (case_suite_cli, "run_case"), (case_suite_cli, "curve_result"),
        )
        for module, attr in functions:
            original = getattr(module, attr)
            layer = module.__name__.rsplit(".", 1)[1]
            wrapper = self.wrap(f"{layer}.{attr}", original, hooks.get(attr))
            self.replace_everywhere(original, wrapper, namespaces)
        methods = (
            (exact_poly.Polynomial, "substitute",
             "exact_poly.Polynomial.substitute"),
            (exact_poly.Polynomial, "evaluate",
             "exact_poly.Polynomial.evaluate"),
            (exact_poly.Polynomial, "restrict_curve",
             "exact_poly.Polynomial.restrict_curve"),
            (chamber_geometry.LatticeSimplex6, "contains",
             "chamber_geometry.LatticeSimplex6.contains"),
            (chamber_geometry.Partitions, "decoration_table",
             "chamber_geometry.decoration_table"),
        )
        for cls, attr, name in methods:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original))
            self._undo.append((cls, attr, original))
        for op in KERNEL_OPS:
            hook = self._after_cube if op in ("from_poly", "dilate") else None
            setattr(engine, op, self.wrap("kernels." + op,
                                          getattr(engine, op), hook))
            self._undo.append((engine, op, None))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            if original is None:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- hooks ----------------------------------------------------------

    def begin_op(self, op_id, label):
        self.op_id = op_id
        self.op_label = label
        self._calls_in_op = 0

    def _after_cube(self, idx, args, kwargs, cube):
        # dilate never shrinks a coefficient, so the roots and the dilated
        # children bound every cube the engine produces
        bits = cube_bits(cube)
        if bits > self._task_bits:
            self._task_bits = bits

    def _task_row(self, idx, kind, steps, depth, status):
        bits, self._task_bits = self._task_bits, 0
        c = self.counts
        c["kernels.peak_coeff_bits"] = max(c["kernels.peak_coeff_bits"], bits)
        self.tasks.append({
            "op": self.op_id, "label": self.op_label,
            "call": self._calls_in_op, "kind": kind, "status": status,
            "steps": steps, "max_depth": depth, "peak_bits": bits,
            "seconds": self.end[idx] - self.start[idx]})
        self._calls_in_op += 1

    def _after_certify(self, idx, args, kwargs, cert):
        c = self.counts
        pre = "positive_dominance.certify."
        c[pre + "steps"] += cert.steps
        c[pre + "wpd_tests"] += cert.wpd_tests
        c[pre + "subdivisions"] += cert.subdivisions
        c[pre + "max_depth"] = max(c[pre + "max_depth"], cert.max_depth)
        c[pre + STATUSES[cert.status]] += 1
        self.wpd_leaves += cert.actions.count("W")
        self._task_row(idx, "certify", cert.steps, cert.max_depth, cert.status)

    def _after_replay(self, idx, args, kwargs, ok):
        cert = args[1] if len(args) > 1 else kwargs["certificate"]
        self.counts["positive_dominance.replay.steps"] += len(cert.actions)
        self.replayed_wpd += len(cert.actions) - cert.actions.count("N")
        self._task_row(idx, "replay", len(cert.actions), cert.max_depth,
                       "replayed" if ok else "rejected")

    def _after_pullback(self, idx, args, kwargs, poly):
        self.counts["simplex_pullback.pullback.terms_out"] += len(poly.terms)

    def _after_campaign(self, idx, args, kwargs, result):
        trials = args[0] if args else kwargs.get("trials", 100000)
        c = self.counts
        c["anti_certification.full_k4_campaign.trials"] += trials
        c["anti_certification.full_k4_campaign.prescreen"] += result[1]

    # -- results --------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur, dur - child

    def layer_metrics(self, overhead_s, untraced_wall_s):
        """Every per-layer metric, from the spans and the hook counters."""
        dur, self_time = self._arrays()
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        out = {}
        for span, stats in SPAN_STATS.items():
            mask = ids == self._ids[span]
            values = {"calls": int(mask.sum()), "s": float(dur[mask].sum()),
                      "self_s": float(self_time[mask].sum())}
            for stat in stats:
                out[f"{span}.{stat}"] = values[stat]
        out.update(self.counts)
        for op in ("wpd", "reflect", "dilate"):
            s = out.get(f"kernels.{op}.s", 0.0)
            out[f"kernels.{op}.derived_coeffs_per_s"] = (
                SIZE * out[f"kernels.{op}.calls"] / s if s else 0.0)
        tests = out["positive_dominance.certify.wpd_tests"]
        out["positive_dominance.certify.wpd_pass_ratio"] = (
            self.wpd_leaves / tests if tests else 0.0)
        for key, keep in (("shallow", lambda d: d <= SHALLOW_DEPTH),
                          ("deep", lambda d: d >= DEEP_DEPTH)):
            rows = [t for t in self.tasks if keep(t["max_depth"])]
            secs = sum(t["seconds"] for t in rows)
            out[f"positive_dominance.{key}_steps_per_s"] = (
                sum(t["steps"] for t in rows) / secs if secs else 0.0)
        out["trace.overhead_s"] = overhead_s
        out["trace.overhead_share"] = (overhead_s / untraced_wall_s
                                       if untraced_wall_s else 0.0)
        return {name: out[name] for name in metric_names()}

    def write(self, path, extra):
        """Store the spans (npz) and the per-task table with extra (json)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path.with_suffix(".npz"),
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64))
        with open(path.with_suffix(".json"), "w") as fh:
            json.dump(dict(extra, tasks=self.tasks), fh, indent=1)
