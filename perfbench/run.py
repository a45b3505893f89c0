"""proverloop lifelong-loop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Generates the workload from the seed under
.perfbench_work/, then repeats it for about S seconds, each repetition in a
fresh interpreter (`perfbench/worker.py`) so that no process-wide cache is
warm. Every repetition's outputs are checked (see checks.py); a repetition
that raises or fails a check counts as failed.

--trace 0 reports the end-to-end metrics: medians over repetitions of
run_s and setup_s (wall times scaled to the reference speed, see
REFERENCE_NOMINAL_S) and of peak_rss_mb, and output_mb, final_recall10 and
proved_frac, which are the same on every repetition of a seed.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics (medians over traced repetitions) and trace.overhead_frac;
the spans of the last traced repetition go to
.perfbench_work/spans-<workload>-seed<N>.jsonl.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path[:0] = [str(HERE), str(SRC)]
from checks import Checker, CheckFailed, tree_digest  # noqa: E402
from tracing import COUNTS, PER_LAYER  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "output_mb": "MiB",
    "final_recall10": "%",
    "proved_frac": "ratio",
}
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 150
MIN_RUNS = 3  # untraced repetitions with --trace 0
MIN_TRACED = 2  # traced repetitions with --trace 1, so counts can be compared
HARD_STOP_S = 120

# The shared host runs a process at one of two speeds about 1.6x apart, and
# keeps one for seconds to minutes, so medians of raw wall time differ by
# that much from run to run. Each repetition therefore also times a fixed
# reference work in the same process (worker.reference_s) and its wall time
# is reported scaled: wall * REFERENCE_NOMINAL_S / reference. The constant
# is the reference work's time at the faster speed of a 2-vCPU Xeon VM, so
# scaled times read as that machine's wall seconds.
REFERENCE_NOMINAL_S = 0.05


class RepFailed(Exception):
    pass


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def _child(*args: str) -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
    })
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as e:
        raise RepFailed(f"{args[0]} repetition exceeded {CHILD_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise RepFailed(f"{args[0]} repetition exited {proc.returncode}: "
                        + proc.stderr.strip()[-2000:])
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise RepFailed(f"{args[0]} repetition printed no result") from e


class Session:
    """The repetitions of one benchmark run and what they measured."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload, self.seed, self.work = workload, seed, work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []  # scaled
        self.setup_wall_s: list[float] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.first_digest: str | None = None
        self.spans = WORK / f"spans-{workload}-seed{seed}.jsonl"

        files = workloads.generate(workload, seed)
        if workloads.digest(files) != workloads.digest(workloads.generate(workload, seed)):
            self.problems.append("the generator gave different bytes for one seed")
        self.config = workloads.write(files, work / "inputs")
        self.checker = Checker(work / "inputs", workloads.fixture_names(workload))

    def attempt(self, fn) -> bool:
        self.attempted += 1
        try:
            fn()
            return True
        except (RepFailed, CheckFailed, OSError, KeyError, ValueError) as e:
            self.failed += 1
            _log(f"repetition {self.attempted} failed: {type(e).__name__}: {e}")
            return False

    def setup(self, keep: bool = True) -> None:
        result = _child("setup", "--config", str(self.config))
        if keep:
            self.setup_s.append(_scaled(result["setup_s"], result))
            self.setup_wall_s.append(result["setup_s"])

    def run(self, traced: bool) -> None:
        n = self.attempted
        out = self.work / f"out{n}"
        args = ["trace" if traced else "run", "--config", str(self.config), "--out", str(out)]
        if traced:
            args += ["--spans", str(self.spans), "--run-id", f"{self.workload}-seed{self.seed}-rep{n}"]
        result = _child(*args)
        result.update(self.checker.check(out))
        digest, size = tree_digest(out)
        shutil.rmtree(out)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            raise CheckFailed("outputs differ from the first repetition of this seed")
        result["output_mb"] = size / 2**20
        result["scaled_run_s"] = _scaled(result["run_s"], result)
        (self.traced if traced else self.untraced).append(result)
        _log(f"repetition {n} ({'traced' if traced else 'untraced'}): "
             f"run_s={result['run_s']:.3f} reference_s={result['reference_s']:.4f}")


def _scaled(wall_s: float, result: dict) -> float:
    return wall_s * REFERENCE_NOMINAL_S / result["reference_s"]


def _median(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def measure(session: Session, seconds: float, trace: bool) -> dict[str, float] | None:
    start = time.perf_counter()
    session.attempt(lambda: session.setup(keep=False))  # fills bytecode and file caches
    rounds: list[float] = []
    while True:
        t = time.perf_counter()
        if trace:
            session.attempt(lambda: session.run(traced=False))
            session.attempt(lambda: session.run(traced=True))
            enough = len(session.traced) >= MIN_TRACED
        else:
            session.attempt(lambda: session.run(traced=False))
            session.attempt(session.setup)
            enough = len(session.untraced) >= MIN_RUNS and len(session.setup_s) >= MIN_RUNS
        rounds.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if enough and elapsed + statistics.median(rounds) > seconds:
            break
        if elapsed > seconds and not session.untraced or elapsed > HARD_STOP_S:
            break  # nothing succeeds, or a repetition is far slower than expected

    if not session.untraced or not (session.traced if trace else session.setup_s):
        return None
    if not trace:
        rows = session.untraced
        return {
            "run_s": _median(rows, "scaled_run_s"),
            "setup_s": statistics.median(session.setup_s),
            "peak_rss_mb": _median(rows, "peak_rss_mb"),
            "output_mb": _median(rows, "output_mb"),
            "final_recall10": _median(rows, "final_recall10"),
            "proved_frac": _median(rows, "proved_frac"),
        }
    layers = [r["layers"] for r in session.traced]
    for name in COUNTS:
        if len({row[name] for row in layers}) != 1:
            session.problems.append(f"count {name} differs between traced repetitions")
    metrics = {name: statistics.median(row[name] for row in layers) for name in layers[0]}
    metrics["trace.overhead_frac"] = (
        _median(session.traced, "scaled_run_s") / _median(session.untraced, "scaled_run_s")
        - 1.0
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="proverloop lifelong-loop benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "proverloop" / "__init__.py").is_file():
        _log(f"no proverloop sources at {SRC}; run from a full checkout")
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        session = Session(args.workload, args.seed, work)
        metrics = measure(session, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        _log("no repetition succeeded; no result")
        return 1

    import numpy

    units = {k: u for k, (u, _) in PER_LAYER.items()} if args.trace else END_TO_END_UNITS
    if set(metrics) != set(units):
        raise AssertionError(f"metric names drifted: {sorted(set(metrics) ^ set(units))}")
    for problem in session.problems:
        _log(problem)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={session.attempted} failed={session.failed} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} blas_threads={BLAS_THREADS}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'(unscaled) run wall time':40s} "
              f"{_median(session.untraced, 'run_s'):14.6g} s")
        print(f"  {'(unscaled) setup wall time':40s} "
              f"{statistics.median(session.setup_wall_s):14.6g} s")
    print(f"  {'failed_frac':40s} {session.failed / session.attempted:14.6g} ratio")
    print(json.dumps({
        "correct": session.failed == 0 and not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
