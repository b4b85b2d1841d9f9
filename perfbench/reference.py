"""Pinned reference data: the 36 registry certificates and the 8 case reports.

``certificates.json`` holds every field of each task's ``Certificate``,
with the action string run-length encoded ("S3W2N" is "SSSWWN").
``case_texts.json`` holds ``run_case(name).to_text()`` for every case.
Both are written by ``run.py --make-reference`` and compared against a
fresh re-certification by ``run.py --check-reference``.
"""

import itertools
import json
import re
from pathlib import Path

from tetravol import case_suite_cli as cli
from tetravol.positive_dominance import Certificate

REF_DIR = Path(__file__).resolve().parent / "reference"
CERT_FILE = REF_DIR / "certificates.json"
TEXT_FILE = REF_DIR / "case_texts.json"
_RUN = re.compile(r"([NSW])(\d*)")


def rle_encode(actions):
    return "".join(ch + (str(n) if n > 1 else "")
                   for ch, n in ((ch, len(list(g)))
                                 for ch, g in itertools.groupby(actions)))


def rle_decode(text):
    runs = _RUN.findall(text)
    if "".join(ch + n for ch, n in runs) != text:
        raise ValueError("malformed run-length action string")
    return "".join(ch * int(n or 1) for ch, n in runs)


def task_key(case_name, task):
    return f"{case_name}/{task.simplex}/{task.func.label}"


def cert_to_json(cert):
    return {"status": cert.status, "steps": cert.steps,
            "wpd_tests": cert.wpd_tests, "subdivisions": cert.subdivisions,
            "max_depth": cert.max_depth, "histogram": list(cert.histogram),
            "actions": rle_encode(cert.actions),
            "witness_lineage": cert.witness_lineage,
            "witness_corner": cert.witness_corner, "budget": cert.budget}


def cert_from_json(d):
    return Certificate(d["status"], d["steps"], d["wpd_tests"],
                       d["subdivisions"], d["max_depth"],
                       tuple(d["histogram"]), rle_decode(d["actions"]),
                       d["witness_lineage"], d["witness_corner"], d["budget"])


def _read():
    with open(CERT_FILE) as fh, open(TEXT_FILE) as gh:
        return json.load(fh), json.load(gh)


def load():
    """(certificates by task key, case texts by case name)."""
    certs, texts = _read()
    return {k: cert_from_json(v) for k, v in certs.items()}, texts


def record():
    """Run every pinned case and capture its report and its certificates."""
    certs, texts = {}, {}
    original = cli.certify
    for name, spec in cli.case_registry().items():
        captured = []

        def capture(*args, **kwargs):
            captured.append(original(*args, **kwargs))
            return captured[-1]

        cli.certify = capture
        try:
            report = cli.run_case(name)
        finally:
            cli.certify = original
        texts[name] = report.to_text()
        for task, cert in zip(spec.tasks, captured, strict=True):
            certs[task_key(name, task)] = cert_to_json(cert)
    return certs, texts


def write(certs, texts):
    REF_DIR.mkdir(exist_ok=True)
    for path, data in ((CERT_FILE, certs), (TEXT_FILE, texts)):
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")


def compare(certs, texts):
    """Differences between freshly recorded data and the stored data."""
    stored_certs, stored_texts = _read()
    problems = []
    for label, fresh, stored in (("certificate", certs, stored_certs),
                                 ("case text", texts, stored_texts)):
        for key in sorted(set(fresh) | set(stored)):
            if fresh.get(key) != stored.get(key):
                problems.append(f"{label} {key} differs from the reference")
    return problems
