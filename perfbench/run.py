"""divalg benchmark: closed-loop CLI workloads and an outside-in layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Run from a checkout: divalg is imported from the checkout's ``src/``, not
from an installed package.

``--trace 0`` runs the workload as a closed loop from one client: each item's
jobs run as ``python -m divalg.cli`` processes, one at a time, and the next
item starts when the last one ends, for about ``--seconds``.  Every answer is
checked; an item with any wrong answer counts as failed.  Before the items,
``import divalg.cli`` is timed in fresh interpreters (``setup_s``).  Item
times are reported at a reference machine speed (see SpeedProbe).

``--trace 1`` runs the first item of the seed in-process through
``divalg.cli.main``, once plain and once with the layer entry points wrapped
(tracer.py), and reports the per-layer metrics.  End-to-end numbers never
come from a traced run.

Prints one line per metric (name, value, unit), then as its last line a JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 5
IMPORTTIME_REPS = 3
PROBE_PERIOD_S = 0.1
# Thread CPU seconds of one probe at the reference speed; a normalised time
# is what the item would have taken had each probe during it taken this long.
PROBE_REF_S = 0.007


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares: per layer for a
    traced run, end to end otherwise."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


class DeadlineExceeded(RuntimeError):
    pass


class Runner:
    """Starts the run's child processes and ends the run, with
    DeadlineExceeded, when one is still running at the deadline."""

    def __init__(self, workdir: Path, deadline_s):
        self.workdir = workdir
        self.deadline = time.monotonic() + deadline_s
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")

    def call(self, argv, cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
        """Run argv to completion; return its exit code and resource usage."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded(" ".join(argv))
        proc = subprocess.Popen(argv, cwd=cwd, stdout=stdout, stderr=stderr, env=self.env)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            # wait4, unlike Popen.wait, returns the child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise DeadlineExceeded(" ".join(argv))
        return proc.returncode, usage


# ---------------------------------------------------------------------------
# environment


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded, or
    None where that library cannot be found."""
    import numpy

    libs_dir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs_dir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "sympy_ground_types": GROUND_TYPES,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def limit_blas_threads():
    """Keep BLAS threads at or below the CPUs this process may use; must run
    before numpy is imported here, and children inherit it."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)


# ---------------------------------------------------------------------------
# untraced closed loop


def probe_work():
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 11 + 1, i % 3 + 2)
    return acc


class SpeedProbe:
    """Samples the machine's speed while a run's items execute.

    A shared host's CPU speed drifts, by up to 2x in phases of seconds to
    minutes, and moves every item's time with it.  A thread of this process
    times a fixed pure-Python Fraction loop in its own CPU time every
    PROBE_PERIOD_S (about 5 % of one CPU).  CPU time makes it a measure of
    speed, not of how often it was scheduled, so more job threads do not
    read as a slower machine.
    """

    def __init__(self):
        self.samples = []  # (perf_counter at the end, thread CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while True:
            start = time.thread_time()
            probe_work()
            self.samples.append((time.perf_counter(), time.thread_time() - start))
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def factor(self, start, end):
        """PROBE_REF_S over the median probe between start and end (the
        last probe before end when none ended in between)."""
        during = [s for t, s in self.samples if start <= t <= end]
        during = during or [s for t, s in self.samples if t <= end][-1:]
        return PROBE_REF_S / statistics.median(during)


def time_imports(runner):
    """Wall seconds of ``import divalg.cli`` in fresh interpreters."""
    out = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        code, _ = runner.call([sys.executable, "-c", "import divalg.cli"], runner.workdir)
        out.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError("import divalg.cli failed")
    return out


def run_item(runner, workload, seed, index):
    """Run one item's jobs as CLI processes; return (wall s, cpu s, peak
    max-RSS in KiB, problems)."""
    itemdir = runner.workdir / f"item{index}"
    itemdir.mkdir()
    jobs = workload.jobs(seed, index, itemdir)
    problems = []
    cpu = peak_kb = 0
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        out_path = itemdir / f"job{i}.out"
        with open(out_path, "w", encoding="utf-8") as out:
            code, usage = runner.call([sys.executable, "-m", "divalg.cli", *job.argv], itemdir,
                                      stdout=out)
        cpu += usage.ru_utime + usage.ru_stime
        peak_kb = max(peak_kb, usage.ru_maxrss)
        problems += job.problems(code, out_path.read_text(encoding="utf-8"), itemdir)
        if problems:
            break
    wall = time.perf_counter() - start
    shutil.rmtree(itemdir)
    return wall, cpu, peak_kb, problems


def timed_run(runner, workload, seed, seconds):
    walls, cpus, factors, peak_kb, failed = [], [], [], 0, 0
    with SpeedProbe() as probe:
        setup = time_imports(runner)
        loop_start = time.perf_counter()
        index = 0
        while True:
            start = time.perf_counter()
            wall, cpu, item_peak_kb, problems = run_item(runner, workload, seed, index)
            factors.append(probe.factor(start, time.perf_counter()))
            walls.append(wall)
            cpus.append(cpu)
            peak_kb = max(peak_kb, item_peak_kb)
            print(f"item {index}: wall {wall:.3f} s, cpu {cpu:.3f} s, speed {factors[-1]:.3f}")
            if problems:
                failed += 1
                print(f"item {index} failed: {'; '.join(problems)}", file=sys.stderr)
            index += 1
            # start another item only if it is expected to end within the run
            if time.perf_counter() - loop_start + statistics.median(walls) > seconds:
                break
    print(f"measured: items_per_s {len(walls) / sum(walls)} (1/s), "
          f"item_s.p50 {statistics.median(walls)} (s), "
          f"cpu_s_per_item {statistics.median(cpus)} (s)")
    ref_walls = [w * f for w, f in zip(walls, factors)]
    metrics = {
        "items_per_s": len(walls) / sum(ref_walls),
        "item_s.p50": statistics.median(ref_walls),
        "cpu_s_per_item": statistics.median(c * f for c, f in zip(cpus, factors)),
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": statistics.median(setup),
    }
    return len(walls), failed, metrics


# ---------------------------------------------------------------------------
# traced run


def import_times(runner):
    """Median cumulative import seconds of sympy and numpy, and the self
    time of divalg's own modules, from ``python -X importtime``."""
    samples = {"sympy": [], "numpy": [], "divalg": []}
    for _ in range(IMPORTTIME_REPS):
        log = runner.workdir / "importtime.log"
        with open(log, "w", encoding="utf-8") as err:
            runner.call([sys.executable, "-X", "importtime", "-c", "import divalg.cli"],
                        runner.workdir, stderr=err)
        own = 0
        seen = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
            if not m:
                continue
            self_us, cumulative_us, module = int(m[1]), int(m[2]), m[3]
            seen[module] = cumulative_us
            if module.split(".")[0] == "divalg":
                own += self_us
        samples["sympy"].append(seen.get("sympy", 0) / 1e6)
        samples["numpy"].append(seen.get("numpy", 0) / 1e6)
        samples["divalg"].append(own / 1e6)
    return {f"setup.import.{k}_s": statistics.median(v) for k, v in samples.items()}


def inprocess(runner, jobs, itemdir, trace):
    spec = itemdir / "spec.json"
    result = itemdir / "result.json"
    spec.write_text(json.dumps({"src": str(SRC), "workdir": str(itemdir),
                                "jobs": [j.argv for j in jobs], "trace": trace}))
    code, _ = runner.call([sys.executable, str(HERE / "inproc.py"), str(spec), str(result)],
                          itemdir, stdout=None, stderr=None)
    if code != 0:
        raise RuntimeError(f"in-process run exited with {code}")
    return json.loads(result.read_text(encoding="utf-8"))


def traced_run(runner, workload, seed, names):
    itemdir = runner.workdir / "item0"
    itemdir.mkdir()
    jobs = workload.jobs(seed, 0, itemdir)
    plain = inprocess(runner, jobs, itemdir, trace=False)
    traced = inprocess(runner, jobs, itemdir, trace=True)
    problems = []
    for i, (job, (code, _)) in enumerate(zip(jobs, traced["jobs"])):
        problems += job.problems(code, (itemdir / f"job{i}.out").read_text(), itemdir)
    if problems:
        print(f"traced item failed: {'; '.join(problems)}", file=sys.stderr)
    snap = traced["trace"]
    for name, why in snap["missing"].items():
        print(f"span {name} is missing: {why}", file=sys.stderr)
    print_spans(snap)
    plain_s = sum(t for _, t in plain["jobs"])
    traced_s = sum(t for _, t in traced["jobs"])
    print(f"in-process job time: plain {plain_s:.3f} s, traced {traced_s:.3f} s")
    metrics = import_times(runner)
    metrics.update(per_layer_metrics(snap, names))
    metrics["trace.coverage"] = snap["top_level_s"] / traced_s
    metrics["trace.overhead"] = traced_s / plain_s - 1
    return 1, int(bool(problems)), metrics


def print_spans(snap):
    print(f"{'span':32} {'busy_s':>10} {'self_s':>10} {'calls':>8}  parents")
    for name, s in snap["spans"].items():
        parents = ", ".join(f"{p}:{c}" for p, c in s["parents"].items())
        print(f"{name:32} {s['busy_s']:10.4f} {s['self_s']:10.4f} {s['calls']:8d}  {parents}")


# ---------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, references):
    workload = workloads.WORKLOADS[name](references)
    units = declared_metrics(trace)
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir, workload.deadline_s)
        if trace:
            attempted, failed, values = traced_run(runner, workload, seed, list(units))
        else:
            attempted, failed, values = timed_run(runner, workload, seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {m: {"value": values.get(m), "unit": unit} for m, unit in units.items()}
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "divalg" / "cli.py").is_file():
        print(f"no divalg sources under {SRC}; run from a divalg checkout", file=sys.stderr)
        return 2
    limit_blas_threads()
    references = workloads.load_references()
    print("env " + json.dumps(environment(), sort_keys=True))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, args.seed, args.seconds, args.trace, references)
        attempted += a
        failed += f
        prefix = f"{name}." if args.workload == "all" else ""
        print(f"{name}: attempted {a}, failed {f}, fail_ratio {f / a} (ratio)")
        for metric, entry in m.items():
            print(f"{name}: {metric} {entry['value']} ({entry['unit']})")
            metrics[prefix + metric] = entry
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
