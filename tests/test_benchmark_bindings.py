"""The names the benchmark harness under ``perfbench/`` binds still exist.

The harness wraps tetravol functions and engine methods by name and keys
pinned certificates by task label.  These checks install and remove its
tracer, so that deleting or renaming a bound name fails here and not only
in the harness's own suite.
"""

from pathlib import Path

import pytest

from tetravol import _kernels, positive_dominance
from tetravol._kernels import NumpyBackend, get_backend
from tetravol.case_suite_cli import case_registry
from tetravol.exact_poly import Polynomial

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_tracer_installs_and_uninstalls(perfbench_path):
    from tracer import Tracer
    tracer = Tracer()
    tracer.install(get_backend())
    tracer.uninstall()
    assert _kernels.NUMBA_AVAILABLE is False


def test_traced_wpd_calls_match_the_certificates_wpd_tests(perfbench_path):
    # the harness's cross-check, which tier-1 does not otherwise run: one
    # wpd call per W or S step, seen through the wrapped engine method.
    # (2^87 + 1)(3 - 4 x0 + 2 x0^2)^3 has coefficients past 2^86, so its
    # halves carry three limbs, and most are settled by their top limb
    from tracer import Tracer
    x0, one = Polynomial.variable(5, 0), Polynomial.constant(5, 1)
    p = (2 ** 87 + 1) * (3 * one - 4 * x0 + 2 * x0 * x0) ** 3
    tracer = Tracer()
    tracer.install(get_backend())
    try:
        cert = positive_dominance.certify(p)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(0.0, 0.0)
    assert (cert.status, cert.steps) == ("Nonnegative", 65)
    assert metrics["positive_dominance.certify.calls"] == 1
    assert (metrics["kernels.wpd.calls"]
            == metrics["positive_dominance.certify.wpd_tests"]
            == cert.wpd_tests == 65)
    assert metrics["kernels.peak_coeff_bits"] > 0


class HalvesMade(NumpyBackend):
    """The limb engine, counting the halves it makes."""

    made = 0

    def child(self, parent, side):
        self.made += 1
        return super().child(parent, side)


def test_traced_wpd_calls_match_the_wpd_tests_of_a_twin_walk(
        perfbench_path, monkeypatch):
    # prod (2 x_a^2 - 2 x_a + 1) is its own mirror image along every axis,
    # so the root's two halves are one cube: the engine answers the left
    # half's 31 steps from the right half's, still one wpd call per step
    from tracer import Tracer
    one = Polynomial.constant(5, 1)
    p = one
    for a in range(5):
        x = Polynomial.variable(5, a)
        p = p * (2 * x * x - 2 * x + one)
    eng = HalvesMade()
    monkeypatch.setattr(_kernels, "_ENGINE", eng)
    tracer = Tracer()
    tracer.install(eng)
    try:
        cert = positive_dominance.certify(p)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(0.0, 0.0)
    assert (cert.status, cert.steps) == ("Nonnegative", 63)
    assert (metrics["kernels.wpd.calls"]
            == metrics["positive_dominance.certify.wpd_tests"]
            == cert.wpd_tests == 63)
    # of the 62 halves, the walk made the right half's 31 and no more
    assert eng.made == 31


def test_reference_keys_tasks_by_label(perfbench_path):
    import reference
    spec = case_registry()["full-K4"]
    assert [reference.task_key("full-K4", t) for t in spec.tasks] == [
        "full-K4/C_11/2g-3f", "full-K4/C_11/3g-2f"]
