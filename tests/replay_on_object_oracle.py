"""Re-derive every pinned certificate on the object-dtype oracle engine.

    python tests/replay_on_object_oracle.py

Loads the 36 registry certificates pinned under ``perfbench/reference``
(read only), pulls each task's polynomial back to the cube and walks it
with ``_traverse`` on ``ObjectEngine`` under the certificate's budget,
stopping at the first action that differs from the recorded ones, as
``replay`` does.  The oracle's Python-int cubes share no limb, carry or
range logic with the package's engine, and it reads a polynomial's
``terms`` dict, not its arrays.  Its ``twin`` answers False, so it makes
and tests both halves of every split, where the package's engine answers
a left half that twins its right half from the right half's actions.
Prints one line per task and exits 1 if any walk differs from its
certificate.  It takes a few minutes, so tier-1 does not collect it.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import reference  # noqa: E402
from _object_engine import ObjectEngine  # noqa: E402
from tetravol.case_suite_cli import case_registry  # noqa: E402
from tetravol.positive_dominance import _traverse  # noqa: E402
from tetravol.simplex_pullback import pullback  # noqa: E402


def main():
    certs, _ = reference.load()
    tasks = {reference.task_key(name, task): (spec, task)
             for name, spec in case_registry().items() for task in spec.tasks}
    if set(tasks) != set(certs):
        print("the registry's tasks and the pinned certificates differ")
        return 1
    differ = 0
    for key, cert in certs.items():
        spec, task = tasks[key]
        p = pullback(task.func.polynomial(spec.beta),
                     spec.simplices[task.simplex])
        start = time.perf_counter()
        # like replay: the walk stops at its first action that differs
        same = _traverse(p, cert.budget, ObjectEngine(), cert.actions) == cert
        differ += not same
        print(f"{'ok' if same else 'DIFFERS':8}{key}: {cert.steps} steps in "
              f"{time.perf_counter() - start:.1f} s", flush=True)
    print(f"{len(certs) - differ} of {len(certs)} certificates re-derived "
          "on the object engine")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
