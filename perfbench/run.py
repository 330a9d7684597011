"""The vaikit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory): ``cli-catalog``,
``exact-random``, ``mc-estimate``.  With ``--trace 0`` the run measures
the end-to-end metrics with no tracing; with ``--trace 1`` it measures
once more under spans and reports per-layer metrics and the tracing
overhead.  Every output is checked; a wrong exit code, verdict, hash or
CSV counts as a failed operation.

The second-to-last line of stdout is a JSON report (environment stamp,
every named metric with its unit and sample count, per-layer detail);
the last line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from importlib import metadata

import common

WORKLOADS = {
    "cli-catalog": "cli_catalog",
    "exact-random": "exact_random",
    "mc-estimate": "mc_estimate",
}


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=common.ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(common.ROOT):
        return None  # a repository around the checkout, not the checkout
    return lines[1]


def _source_sha256() -> str:
    """One hash over the package sources and data, for checkouts without git."""
    digest = hashlib.sha256()
    package = common.SRC / "vaikit"
    for path in sorted(package.rglob("*")):
        if path.suffix in (".py", ".json") and path.is_file():
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(vai_threads: str | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "VAI_THREADS": vai_threads,  # unset for the run itself
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_nonnegative, default=0)
    parser.add_argument("--seconds", type=_positive, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (common.SRC / "vaikit" / "__init__.py").is_file():
        print(f"error: no vaikit sources under {common.SRC}", file=sys.stderr)
        return 2
    vai_threads = os.environ.pop("VAI_THREADS", None)
    sys.path.insert(0, str(common.SRC))
    import vaikit

    if not os.path.realpath(vaikit.__file__).startswith(
            os.path.realpath(common.SRC)):
        print(f"error: imported vaikit from {vaikit.__file__}, "
              f"not from {common.SRC}", file=sys.stderr)
        return 2

    workload = importlib.import_module(WORKLOADS[args.workload])
    with tempfile.TemporaryDirectory(prefix=".tmp-",
                                     dir=common.BENCH) as tmp:
        ctx = common.Context(args.seed, args.seconds, common.Path(tmp))
        outcome = (workload.traced if args.trace else workload.run)(ctx)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp(vai_threads),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        **outcome.report,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
