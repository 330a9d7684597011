"""mc-estimate: ``vaikit estimate --fit`` on the four SL(2,R) models.

Each command runs in process through ``vaikit.cli.main`` with stdout
captured: 9 grid points x 100k samples, radius 0.3, the workload seed as
``--seed``.  One pass runs the plane + cone pair before, between and
after the spd2 and hyperboloid commands.  spd2 and the hyperboloid
call the quartic root finder on every sample while the plane and the
cone never do, so a kernel change has a mechanism side (heavy) and a
bypass side (light) in one workload.  The exact share is the sl2
exponent behind ``--fit``.

An operation fails unless it exits 0 with fit verdict MATCH and its CSV
is byte-identical to the first pass's CSV for the same seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time

import common
import spans

RADIUS = 0.3
SAMPLES = 100_000
# short name -> (space, t-range); light ones bypass the quartic
SPACES = {
    "plane": ("sl2-mod-n", "-4:0:0.5"),
    "cone": ("sl2-orbit-cone", "-4:0:0.5"),
    "spd2": ("spd2", "0:4:0.5"),
    "hyperboloid": ("sl2-orbit-hyperboloid", "0:4:0.5"),
}
LIGHT = ("plane", "cone")
HEAVY = ("spd2", "hyperboloid")  # call the quartic; also rerun on 2 threads
# a pass takes about 16 s (2-core x86, CPython 3.11); a run makes at
# least three, so the CSV repeats can be compared and the timings
# average over about 50 s of a machine whose speed wanders
MIN_PASSES = 3
BASELINE_S = {"spd2": 3.65, "hyperboloid": 10.75}  # ROADMAP baseline rows

LAYERS = {
    "witness.prediction_ms": (("witness.unipotent_witness",
                               "witness.predict_symmetric_exponent",
                               "witness.predict_lower_bound"),),
}


def setup(seed: int):
    """Import the CLI and run each model's membership once (warm-up)."""
    from vaikit import cli, volume  # noqa: F401  (import is the set-up)

    for space, _ in SPACES.values():
        model = volume.get_model(space)
        volume.estimate_volume(model, model.curve(0.0), radius=RADIUS,
                               samples=1000, seed=seed)


def _argv(short: str, seed: int, out) -> list[str]:
    space, t_range = SPACES[short]
    return ["estimate", "--space", space, "--t-range", t_range,
            "--radius", str(RADIUS), "--samples", str(SAMPLES),
            "--seed", str(seed), "--fit", "--out", str(out)]


class _Runner:
    """Runs estimate commands; the first CSV per space is the reference."""

    def __init__(self, ctx: common.Context, tracer=None):
        self.ctx = ctx
        self.tracer = tracer
        self.reference: dict[str, bytes] = {}
        self.walls = {short: [] for short in SPACES}
        self.failures = []
        self.ops = []
        self.attempted = 0

    def command(self, short: str) -> float:
        out = self.ctx.tmp / f"{short}.csv"
        out.unlink(missing_ok=True)
        self.attempted += 1
        start = time.perf_counter()
        try:
            code, stdout = common.run_cli(_argv(short, self.ctx.seed, out))
            elapsed = time.perf_counter() - start
            verdict = json.loads(stdout)["result"]["fit"]["verdict"]
            blob = out.read_bytes()
        except Exception as exc:  # a crash is a failed command
            elapsed = time.perf_counter() - start
            code, verdict, blob = None, f"{type(exc).__name__}: {exc}", b""
        if self.tracer is not None:
            self.ops.append(self.tracer.take())
        reference = self.reference.setdefault(short, blob)
        if code != 0 or verdict != "MATCH" or not blob or blob != reference:
            self.failures.append({"space": short, "exit": code,
                                  "verdict": verdict,
                                  "csv_identical": blob == reference})
        self.walls[short].append(elapsed)
        return elapsed

    def one_pass(self, _index: int):
        # the light pair is short, so it runs before, between and after
        # the heavy commands and its median sees the whole pass
        light = [self.light()]
        heavy = 0.0
        for short in HEAVY:
            heavy += self.command(short)
            light.append(self.light())
        return light, [heavy]

    def light(self) -> float:
        return sum(self.command(short) for short in LIGHT)


def _named(runner: _Runner) -> dict:
    w = runner.walls
    plane_cone = [a + b for a, b in zip(w["plane"], w["cone"])]
    return {
        "estimate_plane_cone_s": common.timing(plane_cone, "s"),
        "estimate_spd2_s": common.timing(w["spd2"], "s"),
        "estimate_hyperboloid_s": common.timing(w["hyperboloid"], "s"),
        "command_s": {s: common.timing(v, "s") for s, v in w.items()},
    }


def run(ctx: common.Context) -> common.Outcome:
    setup_s, setup_runs = common.measure_setup(__name__, ctx.seed)
    setup(ctx.seed)
    runner = _Runner(ctx)
    passes, elapsed = common.timed_passes(ctx.seconds, MIN_PASSES,
                                          runner.one_pass)
    metrics = common.e2e(setup_s, runner.attempted, elapsed, passes)
    named = _named(runner)
    bound = common.bound("heavy_ops_s")
    report = {
        "end_to_end": {**metrics, **named, "passes": len(passes),
                       "estimate_seed": ctx.seed, "setup_runs_s": setup_runs,
                       "error_rate": len(runner.failures) / runner.attempted},
        "roadmap_baseline": common.baseline_rows(
            {f"estimate {s}": (BASELINE_S[s], named["command_s"][s]["value"])
             for s in HEAVY}, bound),
        "failures": runner.failures[:20],
    }
    return common.Outcome(runner.attempted, len(runner.failures), metrics,
                          report)


def rederive(short: str, csv_bytes: bytes, seed: int) -> dict:
    """Redo each grid point's batches from ``chart_box`` and
    ``membership_chart`` with the estimator's substreams and batch size.

    Times sampling and membership per sample, counts hits, measures how
    far hits reach toward the box edge, and checks that hits x box
    measure / samples reproduces every estimate in the CSV.
    """
    import numpy as np
    from vaikit import volume

    model = volume.get_model(SPACES[short][0])
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    counts = [volume.BATCH] * (SAMPLES // volume.BATCH)
    if SAMPLES % volume.BATCH:
        counts.append(SAMPLES % volume.BATCH)
    hits = sampling_ns = membership_ns = 0
    extent = 0.0
    mismatched = []
    for point, row in enumerate(rows):
        z = model.curve(float(row["t"]))
        lo, hi = model.chart_box(z, RADIUS)
        centre, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        point_hits = 0
        for batch, count in enumerate(counts):
            t0 = time.perf_counter_ns()
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, point, batch]))
            coords = rng.uniform(lo, hi, size=(count, model.chart_dim))
            t1 = time.perf_counter_ns()
            inside = model.membership_chart(z, coords, RADIUS)
            t2 = time.perf_counter_ns()
            sampling_ns += t1 - t0
            membership_ns += t2 - t1
            found = int(np.count_nonzero(inside))
            if found:
                reach = np.abs(coords[inside] - centre) / half
                extent = max(extent, float(reach.max()))
            point_hits += found
        hits += point_hits
        value = point_hits * float(np.prod(hi - lo)) / SAMPLES
        if not math.isclose(value, float(row["estimate"]), rel_tol=1e-12):
            mismatched.append({"t": row["t"], "rederived": value,
                               "estimate": row["estimate"]})
    total = SAMPLES * len(rows)
    return {
        "points": len(rows),
        "sampling_ns": sampling_ns / total,
        "membership_ns": membership_ns / total,
        "hits": hits,
        "hit_rate": hits / total,
        "hit_extent": extent,
        "mismatched": mismatched,
    }


def traced(ctx: common.Context) -> common.Outcome:
    """One untraced pass, one traced pass, batch re-derivation, and the
    heavy commands again with two estimator threads."""
    setup(ctx.seed)
    plain = _Runner(ctx)
    start = time.perf_counter()
    plain.one_pass(0)
    plain_s = time.perf_counter() - start
    tracer = spans.Tracer()
    runner = _Runner(ctx, tracer)
    runner.reference = plain.reference
    with spans.instrumented(tracer):
        start = time.perf_counter()
        runner.one_pass(0)
        traced_s = time.perf_counter() - start
    summary, common_layers = spans.span_summary(runner.ops, traced_s, 1)

    layers = spans.layer_report(runner.ops, LAYERS)
    failures = plain.failures + runner.failures
    for short, (space, _) in SPACES.items():
        calls = [s[spans.END] - s[spans.START] for op in runner.ops
                 for s in op if s[spans.NAME] == "volume.estimate_volume"
                 and s[spans.TAG] == space]
        if calls:
            layers[f"volume.{short}.point_ms"] = {
                "value": sum(calls) / len(calls) / 1e6, "unit": "ms",
                "points": len(calls)}
        derived = rederive(short, plain.reference[short], ctx.seed)
        if derived.pop("mismatched"):
            failures.append({"space": short, "rederived": "mismatch"})
        layers[f"volume.{short}.membership_ns"] = common.metric(
            derived["membership_ns"], "ns")
        layers[f"volume.{short}.sampling_ns"] = common.metric(
            derived["sampling_ns"], "ns")
        layers[f"volume.{short}.hit_rate"] = {
            "value": derived["hit_rate"], "unit": "ratio",
            "hits": derived["hits"]}
        layers[f"volume.{short}.hit_extent"] = common.metric(
            derived["hit_extent"], "ratio")

    threaded = _Runner(ctx)
    threaded.reference = plain.reference
    os.environ["VAI_THREADS"] = "2"
    try:
        for short in HEAVY:
            threaded.command(short)
    finally:
        os.environ.pop("VAI_THREADS")
    failures += threaded.failures
    for short in HEAVY:
        layers[f"volume.{short}.speedup_2threads"] = common.metric(
            plain.walls[short][0] / threaded.walls[short][0], "ratio")

    report = {
        "untraced": _named(plain),
        "traced": _named(runner),
        "trace_overhead": {
            "pass_s": traced_s - plain_s,
            "share": (traced_s - plain_s) / plain_s,
            **{s: runner.walls[s][0] - plain.walls[s][0] for s in SPACES},
        },
        "layers": layers,
        **summary,
        "failures": failures[:20],
    }
    metrics = {
        "trace.overhead_s": common.metric(traced_s - plain_s, "s"),
        "trace.coverage": common.metric(summary["span_coverage"], "ratio"),
        **{k: common.metric(v, "s") for k, v in common_layers.items()},
    }
    attempted = (plain.attempted + runner.attempted + threaded.attempted
                 + len(SPACES))
    return common.Outcome(attempted, len(failures), metrics, report)
