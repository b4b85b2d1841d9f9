"""The names the benchmark harness under ``perfbench/`` binds still exist.

The harness wraps tetravol functions and engine methods by name and keys
pinned certificates by task label.  These checks install and remove its
tracer, so that deleting or renaming a bound name fails here and not only
in the harness's own suite.
"""

from pathlib import Path

import pytest

from tetravol import _kernels
from tetravol._kernels import get_backend
from tetravol.case_suite_cli import case_registry

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


def test_reference_keys_tasks_by_label(perfbench_path):
    import reference
    spec = case_registry()["full-K4"]
    assert [reference.task_key("full-K4", t) for t in spec.tasks] == [
        "full-K4/C_11/2g-3f", "full-K4/C_11/3g-2f"]
