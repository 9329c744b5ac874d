"""Benchmark of the evenfactor CLI: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``). The workload's inputs are generated from the seed and written
under ``perfbench/work/`` before timing starts. Its CLI commands then run
in this process as repeated passes until ``--seconds`` have elapsed, and
every pass's reports are checked.

With ``--trace 0`` the end-to-end metrics are reported: ``graphs_per_s``
(median over passes), ``setup_s`` (median wall time of fresh interpreters
that import ``evenfactor.cli`` and build its parser) and ``peak_rss_mb``;
both times are scaled to a reference machine speed (see ScaledClock).
With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

BLAS_THREADS = min(2, os.cpu_count() or 1)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SPAWNS = 11
SETUP_CODE = "import evenfactor.cli as c; c.build_parser()"
# median time of one calibrate() on an idle 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4), the machine perfbench/baseline.json was measured on
REFERENCE_CALIBRATION_S = 0.0083


def _environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter loops and small-matrix numpy
    calls, the two kinds of work the CLI commands do."""
    import numpy as np

    t0 = time.perf_counter()
    m = np.arange(64.0).reshape(8, 8) / 100
    x = np.ones(8)
    for _ in range(1500):
        x = m @ x
        x = x / np.linalg.norm(x)
    s = 0
    for i in range(60000):
        s += i * i % 7
    return time.perf_counter() - t0


class Interval:
    """Result of ScaledClock.interval(): the body's scaled seconds."""

    seconds: float = 0.0


class ScaledClock:
    """Wall times scaled to the reference machine speed.

    The speed of a shared machine drifts by tens of percent within minutes,
    and every CPU-bound interval drifts with it. So calibrate() samples the
    speed right before and right after each measured interval (median of
    five runs each) and, for long intervals, every SAMPLE_EVERY_S inside it
    from a SIGALRM handler, whose own time is taken out of the interval. The
    interval is scaled by REFERENCE_CALIBRATION_S over the mean sample. A
    change to the program moves the interval and not the calibration; a
    change of machine speed moves both.
    """

    SAMPLE_EVERY_S = 0.5

    def __init__(self):
        self.last = self._edge()
        self.raw: list[float] = []

    @staticmethod
    def _edge() -> float:
        return statistics.median(calibrate() for _ in range(5))

    @contextlib.contextmanager
    def interval(self, sample_inside: bool):
        inside: list[float] = []
        result = Interval()
        if sample_inside:
            previous = signal.signal(signal.SIGALRM, lambda *_: inside.append(calibrate()))
            signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            yield result
        finally:
            wall = time.perf_counter() - t0
            if sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        wall -= sum(inside)
        now = self._edge()
        speed = statistics.mean([(self.last + now) / 2] + inside)
        self.last = now
        self.raw.append(wall)
        result.seconds = wall * REFERENCE_CALIBRATION_S / speed


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Scaled and raw wall times of fresh interpreters importing the CLI,
    after one warm-up that fills the bytecode cache."""
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True)
    # pinned to one CPU, so that each spawn runs where its calibration ran;
    # unpinned, the scaled medians of repeated measurements varied by 0.13 to
    # 0.23 s, pinned by 0.15 to 0.17 s
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        clock = ScaledClock()
        times = []
        for _ in range(SETUP_SPAWNS):
            with clock.interval(sample_inside=False) as spawn:
                subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True)
            times.append(spawn.seconds)
    finally:
        os.sched_setaffinity(0, cpus)
    return times, clock.raw


class Runner:
    """Runs passes of one workload through ``evenfactor.cli.main``."""

    def __init__(self, workload):
        import evenfactor.cli

        self.cli = evenfactor.cli
        self.workload = workload
        # lru caches of the program, emptied before each pass so that every
        # pass pays what a fresh CLI invocation pays
        self.caches = list({
            id(obj): obj
            for name, mod in list(sys.modules.items())
            if name == "evenfactor" or name.startswith("evenfactor.")
            for obj in vars(mod).values()
            if callable(getattr(obj, "cache_clear", None))
        }.values())
        self.checks = []

    def run_pass(self, clock: ScaledClock, sample_inside: bool) -> float:
        """Scaled seconds of one pass; its check runs after the timed part."""
        for cache in self.caches:
            cache.cache_clear()
        for argv in self.workload.commands:
            # a command that fails to write its report must not pass on the last one
            Path(argv[argv.index("--json") + 1]).unlink(missing_ok=True)
        codes = []
        sink = io.StringIO()
        with clock.interval(sample_inside) as timed, \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in self.workload.commands:
                try:
                    codes.append(self.cli.main(list(argv)))
                except SystemExit as exc:
                    codes.append(exc.code if isinstance(exc.code, int) else 1)
        self.checks.append(self.workload.check(codes))
        return timed.seconds

    def outcome(self) -> tuple[int, int, list[str]]:
        attempted = sum(c.graphs for c in self.checks)
        failed = sum(c.failed for c in self.checks)
        problems = [p for c in self.checks for p in c.problems]
        first = self.checks[0].fingerprint
        for i, c in enumerate(self.checks[1:], start=2):
            if c.fingerprint != first:
                failed += c.graphs
                problems.append(f"pass {i} reports differ from pass 1 on the same inputs")
        return attempted, failed, problems


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evenfactor" / "cli.py").is_file():
        print(f"error: no evenfactor sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    import evenfactor

    if Path(evenfactor.__file__).resolve().parent != SRC / "evenfactor":
        print(f"error: imported evenfactor from {evenfactor.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    env = _environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, WORK)
    print(f"{args.workload}: seed {args.seed}, {workload.graphs_per_pass} graphs per pass, "
          f"inputs ready in {time.perf_counter() - t0:.2f} s")
    runner = Runner(workload)

    values = traced_run(runner, args) if args.trace else timed_run(runner, args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    attempted, failed, problems = runner.outcome()
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def timed_run(runner: Runner, args) -> dict:
    setup, setup_raw = measure_setup(dict(os.environ))
    clock = ScaledClock()
    rates = []
    started = time.perf_counter()
    while not rates or time.perf_counter() - started < args.seconds:
        rates.append(runner.workload.graphs_per_pass / runner.run_pass(clock, sample_inside=True))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    q1, med, q3 = quartiles(rates)
    s1, setup_med, s3 = quartiles(setup)
    raw_rates = [runner.workload.graphs_per_pass / t for t in clock.raw]
    print(f"graphs_per_s  median {med:.6g}  quartiles [{q1:.6g}, {q3:.6g}]  passes {len(rates)}; "
          f"unscaled median {statistics.median(raw_rates):.6g}")
    print(f"setup_s       median {setup_med:.6g}  quartiles [{s1:.6g}, {s3:.6g}]  spawns {len(setup)}; "
          f"unscaled median {statistics.median(setup_raw):.6g}")
    print(f"peak_rss_mb   {peak_mb:.6g}")
    return {"graphs_per_s": med, "setup_s": setup_med, "peak_rss_mb": peak_mb}


def traced_run(runner: Runner, args) -> dict:
    from spans import Tracer

    tracer = Tracer()
    clock = ScaledClock()
    plain, traced = [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < args.seconds:
        # no calibration inside traced passes: it would land in their spans
        plain.append(runner.run_pass(clock, sample_inside=False))
        tracer.install()
        try:
            traced.append(runner.run_pass(clock, sample_inside=False))
        finally:
            tracer.remove()
    metrics = tracer.layer_metrics(len(traced))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    tracer.save(WORK / f"trace_{args.workload}.npz")
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          f"{len(tracer.start)} spans written to {WORK.name}/trace_{args.workload}.npz")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
