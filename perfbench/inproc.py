"""Run a list of divalg CLI jobs in this process through ``divalg.cli.main``.

    python3 perfbench/inproc.py SPEC.json RESULT.json

SPEC holds ``{"src": dir, "workdir": dir, "jobs": [argv, ...], "trace": bool}``.
Each job's stdout goes to ``job<i>.out`` in workdir, as it would for a CLI
process.  RESULT receives each job's exit code and wall time (imports are
done before the first job, so they are not in it) and, when tracing, the
tracer's snapshot.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def run_jobs(jobs, workdir, main, tracer=None):
    """[(exit code, seconds)] of each argv in jobs, run from workdir."""
    out = []
    cwd = os.getcwd()
    os.chdir(workdir)
    if tracer is not None:
        tracer.install()
    try:
        for i, argv in enumerate(jobs):
            buf = io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(buf):
                try:
                    code = main(list(argv))
                except SystemExit as exc:  # argparse rejects argv
                    code = exc.code if isinstance(exc.code, int) else 2
            out.append((code, time.perf_counter() - start))
            Path(f"job{i}.out").write_text(buf.getvalue(), encoding="utf-8")
    finally:
        if tracer is not None:
            tracer.uninstall()
        os.chdir(cwd)
    return out


def main():
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from divalg.cli import main as divalg_main

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    results = run_jobs(spec["jobs"], spec["workdir"], divalg_main, tracer)
    doc = {"jobs": results}
    if tracer is not None:
        doc["trace"] = tracer.snapshot()
    Path(sys.argv[2]).write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    main()
