"""cli-catalog: every command a fresh ``python -m vaikit.cli`` process.

The commands are ``check`` on the seven catalog pairs plus sl3/so(3)
with the negative-transpose involution, and ``witness`` on the five
catalog cases that have one.  The seed only permutes the order within a
pass.  Interpreter start and import are most of every command, so
import cuts and load/validate costs show here; in-process caches and
the Monte Carlo kernel cannot.

An operation fails unless its exit code is the documented one and the
sha256 of its report's ``result`` payload matches ``reference.json``
(the byte-identical gate for refactors of the exact layer).
"""

from __future__ import annotations

import json
import random
import sys
import time

import common
import spans

# (kind, algebra, subalgebra, option, option file) -> expected exit code
COMMANDS = {
    ("check", "sl2", "sl2-so2", None, None): 0,
    ("check", "sl2", "sl2-so11", None, None): 0,
    ("check", "sl2", "sl2-n", None, None): 3,
    ("check", "sl2", "sl2-borel", None, None): 4,
    ("check", "sl3", "sl3-so3", None, None): 0,
    ("check", "sl3", "sl3-e12", None, None): 3,
    ("check", "sl5", "sl5-nilpair", None, None): 3,
    ("check", "sl3", "sl3-so3", "--theta", "theta-negative-transpose"): 0,
    ("witness", "sl2", "sl2-n", None, None): 0,
    ("witness", "sl2", "sl2-n", "--parabolic", "sl2-borel-parabolic"): 0,
    ("witness", "sl3", "sl3-e12", None, None): 0,
    ("witness", "sl3", "sl3-e12", "--parabolic", "sl3-flag-parabolic"): 0,
    ("witness", "sl5", "sl5-nilpair", None, None): 0,
}
REFERENCE = common.BENCH / "reference.json"
BASELINE_S = {  # ROADMAP baseline rows
    "import vaikit.cli": 0.63,
    "check sl5 sl5-nilpair": 1.18,
    "witness sl5 sl5-nilpair": 2.03,
}

LAYERS = {
    "catalog.load_ms.sl2": ("catalog.load_algebra_file", "sl2"),
    "catalog.load_ms.sl3": ("catalog.load_algebra_file", "sl3"),
    "catalog.load_ms.sl5": ("catalog.load_algebra_file", "sl5"),
    "catalog.load_subalgebra_ms": ("catalog.load_subalgebra_file",),
    "exact.inverse_ms": ("exact.RatMat.inverse",),
    "exact.eigen_ms": ("exact.rational_eigen_decomposition",),
    "exact.minpoly_ms": ("exact.minimal_polynomial",),
    "reductivity.cartan_ms": ("reductivity.default_cartan",),
    "reductivity.verdict_sl5_ms": ("reductivity.vai_verdict", "sl5"),
    "witness.unipotent_ms.sl2": ("witness.unipotent_witness", "sl2"),
    "witness.unipotent_ms.sl3": ("witness.unipotent_witness", "sl3"),
    "witness.unipotent_ms.sl5": ("witness.unipotent_witness", "sl5"),
    "witness.build_n1_ms": ("witness.build_n1",),
    "witness.mt_bounded_ms": ("witness.check_mt_bounded",),
}


def key(command: tuple) -> str:
    return " ".join(part for part in command if part)


def cli_args(command: tuple) -> list[str]:
    kind, algebra, subalgebra, option, option_file = command
    args = [kind, "--algebra", str(common.DATA / f"{algebra}.json"),
            "--subalgebra", str(common.DATA / f"{subalgebra}.json")]
    if option:
        args += [option, str(common.DATA / f"{option_file}.json")]
    return args


def setup(seed: int):
    """What every command pays before its work: importing the CLI."""
    import vaikit.cli  # noqa: F401

    return random.Random(seed), json.loads(REFERENCE.read_text())


class _Runner:
    """Runs passes of commands as child processes and checks each one."""

    def __init__(self, rng, reference, tmp=None):
        self.rng = rng
        self.reference = reference
        self.tmp = tmp  # set: run each command under spans, files here
        self.walls = {key(c): [] for c in COMMANDS}
        self.failures = []
        self.ops = []
        self.attempted = 0

    def command(self, command: tuple) -> float:
        name = key(command)
        if self.tmp is None:
            argv = [sys.executable, "-m", "vaikit.cli", *cli_args(command)]
        else:
            spans_out = self.tmp / "spans.json"
            argv = [sys.executable, str(common.BENCH / "traced_cli.py"),
                    str(spans_out), *cli_args(command)]
            spans_out.unlink(missing_ok=True)
        self.attempted += 1
        elapsed, proc = common.run_child(argv)
        self.walls[name].append(elapsed)
        if self.tmp is not None and spans_out.exists():
            self.ops.append(json.loads(spans_out.read_text()))
        digest = common.result_sha256(proc.stdout)
        expected = COMMANDS[command]
        if proc.returncode != expected or digest != self.reference.get(name):
            self.failures.append({"command": name, "exit": proc.returncode,
                                  "want_exit": expected,
                                  "result_sha256": digest,
                                  "stderr": proc.stderr[-300:]})
        return elapsed

    def one_pass(self, _index: int):
        order = list(COMMANDS)
        self.rng.shuffle(order)
        walls = {c: self.command(c) for c in order}
        light = sum(w for c, w in walls.items() if c[0] == "check")
        return [light], [sum(walls.values()) - light]


def _named(runner: _Runner, passes: list) -> dict:
    return {
        "check_wall_s": common.timing([p[0][0] for p in passes], "s"),
        "witness_wall_s": common.timing([p[1][0] for p in passes], "s"),
        "command_s": {k: common.timing(v, "s")
                      for k, v in runner.walls.items()},
    }


def run(ctx: common.Context) -> common.Outcome:
    setup_s, setup_runs = common.measure_setup(__name__, ctx.seed)
    runner = _Runner(*setup(ctx.seed))
    passes, elapsed = common.timed_passes(ctx.seconds, 1, runner.one_pass)
    metrics = common.e2e(setup_s, runner.attempted, elapsed, passes)
    named = _named(runner, passes)
    rows = {"import vaikit.cli": (BASELINE_S["import vaikit.cli"], setup_s)}
    for row in ("check sl5 sl5-nilpair", "witness sl5 sl5-nilpair"):
        rows[row] = (BASELINE_S[row], named["command_s"][row]["value"])
    report = {
        "end_to_end": {**metrics, **named, "passes": len(passes),
                       "setup_runs_s": setup_runs,
                       "error_rate": len(runner.failures) / runner.attempted},
        "roadmap_baseline": common.baseline_rows(
            rows, common.bound("light_ops_s")),
        "failures": runner.failures[:20],
    }
    return common.Outcome(runner.attempted, len(runner.failures), metrics,
                          report)


def _import_ms() -> dict:
    """Import time of each package, from ``python -X importtime -c
    'import vaikit.cli'``: the cumulative time of its outermost imports.

    numpy and scipy exclude each other, so numpy modules that scipy pulls
    in count to scipy; vaikit's figure covers everything it imports.
    """
    _, proc = common.run_child([sys.executable, "-X", "importtime", "-c",
                                "import vaikit.cli"])
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((level, name.strip(), int(cumulative)))

    def inside(name, package):
        return name == package or name.startswith(package + ".")

    packages = ("numpy", "scipy", "vaikit")
    totals = dict.fromkeys(packages, 0)
    ancestors: list[str] = []
    levels: list[int] = []
    # children print before their parent, so walk backwards
    for level, name, cumulative in reversed(entries):
        while levels and levels[-1] >= level:
            levels.pop()
            ancestors.pop()
        for package in packages:
            blockers = ((package,) if package == "vaikit"
                        else tuple(p for p in packages if p != "vaikit"))
            if inside(name, package) and not any(
                    inside(a, b) for a in ancestors for b in blockers):
                totals[package] += cumulative
        levels.append(level)
        ancestors.append(name)
    return {p: us / 1e3 for p, us in totals.items()}


def _inprocess_ms(rng) -> tuple[dict, list]:
    """The same commands through ``cli.main`` in this process, per kind."""
    totals = {"check": 0.0, "witness": 0.0}
    failures = []
    order = list(COMMANDS)
    rng.shuffle(order)
    for command in order:
        start = time.perf_counter()
        code, _ = common.run_cli(cli_args(command))
        totals[command[0]] += time.perf_counter() - start
        if code != COMMANDS[command]:
            failures.append({"command": key(command), "inprocess_exit": code})
    return {k: v * 1e3 for k, v in totals.items()}, failures


def traced(ctx: common.Context) -> common.Outcome:
    """One untraced pass, one pass under spans, then CLI start-up, import
    times and an in-process pass."""
    rng, reference = setup(ctx.seed)
    plain = _Runner(rng, reference)
    plain_pass = plain.one_pass(0)
    runner = _Runner(rng, reference, ctx.tmp)
    traced_pass = runner.one_pass(0)
    plain_s = plain_pass[0][0] + plain_pass[1][0]
    traced_s = traced_pass[0][0] + traced_pass[1][0]
    summary, common_layers = spans.span_summary(runner.ops, traced_s, 1)

    layers = spans.layer_report(runner.ops, LAYERS)
    startup = [common.run_child([sys.executable, "-m", "vaikit.cli",
                                 "--version"])[0]
               for _ in range(common.SETUP_REPEATS)]
    layers["cli.startup_ms"] = common.timing(startup, "ms", 1e3)
    imports = [_import_ms() for _ in range(common.SETUP_REPEATS)]
    for package in imports[0]:
        layers[f"cli.import_ms.{package}"] = common.timing(
            [i[package] for i in imports], "ms")
    inprocess, failures = _inprocess_ms(rng)
    for kind, ms in inprocess.items():
        layers[f"cli.inprocess_ms.{kind}"] = common.metric(ms, "ms")
    failures = plain.failures + runner.failures + failures

    report = {
        "untraced": _named(plain, [plain_pass]),
        "traced": _named(runner, [traced_pass]),
        "trace_overhead": {
            "pass_s": traced_s - plain_s,
            "share": (traced_s - plain_s) / plain_s,
            "check_wall_s": traced_pass[0][0] - plain_pass[0][0],
            "witness_wall_s": traced_pass[1][0] - plain_pass[1][0],
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
    attempted = plain.attempted + runner.attempted + len(COMMANDS)
    return common.Outcome(attempted, len(failures), metrics, report)
