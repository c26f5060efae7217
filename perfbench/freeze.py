"""Freeze the references the benchmark checks answers against.

    python3 perfbench/freeze.py bent3                 # bent map's lifting
    python3 perfbench/freeze.py conj SEED...          # check conjugations
    python3 perfbench/freeze.py pipeline COUNT        # quadruple pool 0..COUNT-1
    python3 perfbench/freeze.py deg5 SEED...          # random degree-5 tensors

Runs divalg in this process on the checkout's ``src/`` and updates
``references.json``.  Re-freezing is only right when a change is meant to
alter divalg's output bytes; a speed-up that changes them is a bug.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from divalg.cli import main as divalg_main  # noqa: E402
from inproc import run_jobs  # noqa: E402

WORK = ROOT / ".perfbench_work" / "freeze"


def run(argvs, files=None):
    """Run CLI jobs in a clean work dir; return [(code, report dict)]."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    for name, doc in (files or {}).items():
        (WORK / name).write_text(json.dumps(doc), encoding="utf-8")
    results = run_jobs(argvs, WORK, divalg_main)
    return [(code, json.loads((WORK / f"job{i}.out").read_text()))
            for i, (code, _) in enumerate(results)]


def freeze_bent3(refs):
    [(code, report)] = run([["lift", "--input", "B.json", "--emit", "phi.json"]],
                           {"B.json": inputs.map_document(inputs.bent3_tensor())})
    if not (code == 0 and report["degree"] == 3 and report["verification"]["all_pass"]):
        sys.exit("the bent map did not give a verified degree-3 lifting")
    phi_text = (WORK / "phi.json").read_text()
    phi = json.loads(phi_text)
    identity = [[int(i == j) for j in range(7)] for i in range(7)]
    if workloads.canonical(workloads.conjugated_lifting(phi, identity)) != phi_text:
        sys.exit("conjugated_lifting does not reproduce divalg's canonical lifting")
    refs["lift-deg3-conj"]["bent3_lifting"] = phi


def freeze_conj(refs, seeds):
    w = workloads.LiftDeg3Conj(refs)
    checked = set(map(tuple, refs["lift-deg3-conj"].get("checked_items", [])))
    for seed in seeds:
        for index in range(3):
            shutil.rmtree(WORK, ignore_errors=True)
            WORK.mkdir(parents=True)
            [job] = w.jobs(seed, index, WORK)
            [(code, _)] = run_jobs([job.argv], WORK, divalg_main)
            problems = job.problems(code, (WORK / "job0.out").read_text(), WORK)
            print(f"conj seed {seed} item {index}: {problems or 'ok'}", flush=True)
            if problems:
                sys.exit(1)
            checked.add((seed, index))
    refs["lift-deg3-conj"]["checked_items"] = sorted(checked)


def freeze_pipeline(refs, count):
    pool = []
    for q in range(count):
        jobs = workloads.pipeline_jobs(q)
        (b_code, _), (r_code, recovered) = run([jobs[2].argv, jobs[3].argv])
        if b_code or r_code:
            sys.exit(f"quadruple {q}: build exited {b_code}, recover exited {r_code}")
        pool.append(workloads.digest((WORK / "alg.json").read_text()) + " "
                    + workloads.digest(workloads.canonical(recovered["result"])))
    refs["pipeline-deg1"]["quadruples"] = pool


def freeze_deg5(refs, seeds):
    section = refs["lift-deg5"]
    for seed in seeds:
        doc = inputs.map_document(inputs.random_tensor(seed))
        [(code, report)] = run([["lift", "--input", "T.json", "--emit", "phi.json"]],
                               {"T.json": doc})
        ok = code == 0 and report.get("degree") == 5 and report["verification"]["all_pass"]
        verdict = f"degree {report.get('degree')}" if code == 0 else f"exit {code}"
        print(f"tensor seed {seed}: {verdict}", flush=True)
        if ok:
            section["tensors"][str(seed)] = workloads.digest((WORK / "phi.json").read_text())
        else:
            section["rejected"][str(seed)] = verdict
        save(refs)


def save(refs):
    text = json.dumps(refs, indent=1, sort_keys=True) + "\n"
    workloads.REFERENCES.write_text(text, encoding="utf-8")


def main():
    what, *rest = sys.argv[1:]
    refs = (workloads.load_references() if workloads.REFERENCES.exists() else
            {"lift-deg3-conj": {"rotation_seed": 5}, "pipeline-deg1": {},
             "lift-deg5": {"tensors": {}, "rejected": {}}})
    if what == "bent3":
        freeze_bent3(refs)
    elif what == "conj":
        freeze_conj(refs, [int(s) for s in rest])
    elif what == "pipeline":
        freeze_pipeline(refs, int(rest[0]))
    elif what == "deg5":
        freeze_deg5(refs, [int(s) for s in rest])
    else:
        sys.exit(f"unknown reference kind {what!r}")
    save(refs)
    shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    main()
