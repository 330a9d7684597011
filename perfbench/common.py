"""Shared plumbing for the workloads: paths, run context, the timed pass
loop, in-process CLI calls and summary statistics."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "vaikit" / "data"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150


@dataclass
class Context:
    seed: int
    seconds: float
    tmp: Path


@dataclass
class Outcome:
    """What a workload hands back: the final-line metrics and the report."""

    attempted: int
    failed: int
    metrics: dict
    report: dict


def child_env() -> dict:
    """Environment for child processes: the checkout's src first on the
    path and ``VAI_THREADS`` unset, so the estimator runs one thread."""
    env = dict(os.environ)
    env.pop("VAI_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str]):
    """Run a child process to completion; returns (seconds, process)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc


_PROBE = ("import importlib, sys; sys.path.insert(0, sys.argv[1]); "
          "importlib.import_module(sys.argv[2]).setup(int(sys.argv[3]))")


def measure_setup(module: str, seed: int) -> tuple[float, list[float]]:
    """Median wall time of a fresh process doing a workload's set-up.

    The set-up (interpreter start, imports, input load, instance
    generation, warm-up) runs ``SETUP_REPEATS`` times, each in its own
    process, because imports are paid only once per process.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, proc = run_child([sys.executable, "-c", _PROBE, str(BENCH),
                                   module, str(seed)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {module} failed:\n{proc.stderr}")
        times.append(elapsed)
    return statistics.median(times), times


def timed_passes(seconds: float, min_passes: int, run_pass):
    """Call ``run_pass(i)`` until one more pass would end after ``seconds``.

    Returns the pass results and the elapsed wall time.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_pass(len(results)))
        elapsed = time.perf_counter() - start
        done = len(results)
        if done >= min_passes and elapsed * (done + 1) / done > seconds:
            return results, elapsed


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``vaikit.cli.main(argv)`` in this process, stdout captured."""
    from vaikit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def result_sha256(stdout: str) -> str | None:
    """sha256 of a report's canonical ``result`` payload."""
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return None
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def timing(values: list[float], unit: str, scale: float = 1.0) -> dict:
    """Median, tail percentile and sample count of a list of timings."""
    out = {"value": statistics.median(values) * scale, "unit": unit,
           "samples": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out[f"p{tail[0]}"] = tail[1] * scale
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def e2e(setup_s: float, ops: int, elapsed: float, passes: list) -> dict:
    """The final-line end-to-end metrics every workload reports.

    Each pass is ``(light group times, heavy group times)``; the light
    and heavy metrics are the medians over all groups of the run.
    """
    light = [t for groups, _ in passes for t in groups]
    heavy = [t for _, groups in passes for t in groups]
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(ops / elapsed, "1/s"),
        "light_ops_s": metric(statistics.median(light), "s"),
        "heavy_ops_s": metric(statistics.median(heavy), "s"),
    }


def bound(name: str) -> float:
    """An end-to-end metric's regression bound, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)


def baseline_rows(rows: dict[str, tuple[float, float]], limit: float) -> dict:
    """Compare ``{row: (ROADMAP seconds, measured seconds)}``; a row is
    flagged when it differs from the ROADMAP figure by more than ``limit``."""
    out = {}
    for row, (then, now) in rows.items():
        ratio = now / then
        out[row] = {"roadmap_s": then, "now_s": now, "ratio": ratio,
                    "outside_bound": abs(ratio - 1.0) > limit}
    return out
