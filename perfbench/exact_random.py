"""exact-random: a stream of criterion-10-style instances, in process.

Each instance is a nonzero strictly upper-triangular nilpotent with
entries in {-1, 0, 1} and a basis change made of five +-1 shears, in
sl3 and sl4 at a 4:1 ratio (every fifth instance is sl4).  One pass is
a block of five instances.  Per instance the benchmark

* builds the twisted ``LieAlgebra`` (Jacobi validation runs),
* checks the Killing form transforms by congruence,
* runs ``jacobson_morozov`` and ``grading_of`` on the base algebra and
  validates the transported ``Grading`` on the twisted one,
* checks ``minimal_polynomial(ad nu)`` annihilates and is a plain power,
* checks ``vai_verdict`` is ``fails`` on both algebras.

Base algebras are shared by all instances, so a per-algebra cache can
hit on their queries; twisted algebras are always new, so it cannot.
No import and no Monte Carlo run inside the timed region.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import common
import spans

BLOCK = 5  # one pass: four sl3 instances, then one sl4
SHEARS = 5

# An instance's cost depends mostly on its nilpotent N: on the Jordan
# type (the ranks of N, N^2, ...) and on how many entries are nonzero.
# Left to chance, the mix of those moves the timings from seed to seed
# more than the code does, so every run walks the same sequence of
# (type, nonzeros) strata, in about the proportions uniform {-1, 0, 1}
# entries give, and the seed draws N within each stratum and the shears.
SL3_STRATA = (((1, 0), 1), ((2, 1), 3), ((1, 0), 2), ((2, 1), 2))
SL4_STRATA = (((3, 2, 1), 5), ((2, 1, 0), 3), ((3, 2, 1), 4),
              ((2, 1, 0), 4), ((2, 0, 0), 3), ((3, 2, 1), 6),
              ((2, 1, 0), 4), ((2, 1, 0), 3), ((1, 0, 0), 2),
              ((2, 1, 0), 5))

# per-layer metrics: name -> (span names, tag regex, direct child of the
# instance span); base algebras are named sl3/sl4, twisted ones twisted-k
LAYERS = {
    "lie.construct_ms": ("lie.LieAlgebra", "twisted-.*", True),
    "lie.killing_ms": ("lie.LieAlgebra.killing_form", "twisted-.*", True),
    "lie.unimodular_ms": ("lie.is_unimodular_pair",),
    "lie.radical_center_ms": (("lie.radical", "lie.center"),),
    "exact.inverse_ms": ("exact.RatMat.inverse", None, True),
    "exact.minpoly_ms": ("exact.minimal_polynomial", None, True),
    "exact.eigen_ms": ("exact.rational_eigen_decomposition",),
    "reductivity.cartan_ms": ("reductivity.default_cartan", "sl[34]"),
    "reductivity.verdict_base_ms": ("reductivity.vai_verdict", "sl[34]"),
    "reductivity.verdict_twisted_ms": ("reductivity.vai_verdict",
                                       "twisted-.*"),
    "grading.jm_ms": ("grading.jacobson_morozov", None, True),
    "grading.grading_of_ms": ("grading.grading_of", None, True),
    "grading.validate_ms": ("grading.Grading", "twisted-.*", True),
}


def _rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def jordan_type(rows) -> tuple[int, ...]:
    """Ranks of N, N^2, ..., N^(n-1) for a nilpotent n x n matrix N."""
    n = len(rows)
    ranks = []
    power = rows
    for _ in range(n - 1):
        ranks.append(_rank(power))
        power = [[sum(power[i][k] * rows[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)]
    return tuple(ranks)


def generate(seed: int):
    """The instance stream ``(n, nilpotent rows, shears)`` of ``seed``.

    Each nilpotent has its slot's number of nonzero entries, at uniform
    positions above the diagonal with uniform signs, redrawn until it
    has the slot's Jordan type.  A shear ``(i, j, c)`` adds ``c`` times
    row ``j`` to row ``i`` of the identity, in the algebra's own basis.
    """
    rng = random.Random(seed)
    for k in itertools.count():
        block, slot = divmod(k, BLOCK)
        if slot == BLOCK - 1:
            n, (want, nonzeros) = 4, SL4_STRATA[block % len(SL4_STRATA)]
        else:
            n, (want, nonzeros) = 3, SL3_STRATA[slot]
        uppers = [(i, j) for i in range(n) for j in range(i + 1, n)]
        while True:
            rows = [[0] * n for _ in range(n)]
            for i, j in rng.sample(uppers, nonzeros):
                rows[i][j] = rng.choice((-1, 1))
            if jordan_type(rows) == want:
                break
        dim = n * n - 1
        shears = [(*rng.sample(range(dim), 2), rng.choice((-1, 1)))
                  for _ in range(SHEARS)]
        yield n, rows, shears


def setup(seed: int):
    """Load sl3 and sl4, warm their Killing forms, start the inputs.

    Instances are generated a block at a time as the run needs them,
    outside the instance timers.
    """
    from vaikit import catalog

    algebras = {n: catalog.load_algebra_file(catalog.data_path(f"sl{n}.json"))
                for n in (3, 4)}
    for g in algebras.values():
        g.killing_form()
    return algebras, generate(seed)


def inputs(g, instance):
    """nu in g's coordinates and the shear matrix S, as exact objects.

    The catalog basis is H_1..H_{n-1}, then E_ij (i < j) in
    lexicographic order; ``realize`` checks the coordinates.
    """
    from vaikit.exact import RatMat

    n, rows, shears = instance
    uppers = [(i, j) for i in range(n) for j in range(i + 1, n)]
    nu = [Fraction(0)] * g.dim
    for k, (i, j) in enumerate(uppers):
        nu[n - 1 + k] = Fraction(rows[i][j])
    nu = tuple(nu)
    if g.realize(nu) != RatMat(rows):
        raise ValueError("nilpotent coordinates do not realize the matrix")
    s = [[Fraction(int(i == j)) for j in range(g.dim)] for i in range(g.dim)]
    for i, j, c in shears:
        s[i] = [a + c * b for a, b in zip(s[i], s[j])]
    return nu, RatMat(s)


def run_instance(g, nu, s, name: str) -> list[str]:
    """The criterion-10 checks on one instance; returns failed checks."""
    from vaikit import exact, grading, lie, reductivity

    failed = []
    sinv = s.inverse()
    cols = s.cols()
    table = [[sinv.apply(g.bracket(cols[i], cols[j])) for j in range(g.dim)]
             for i in range(g.dim)]
    g2 = lie.LieAlgebra(table, name=name)  # Jacobi validated
    if g2.killing_form().gram != s.transpose() @ g.killing_form().gram @ s:
        failed.append("killing congruence")

    nu2 = sinv.apply(nu)
    triple = grading.jacobson_morozov(g, nu)
    base = grading.grading_of(g, triple.x)
    parts2 = {lam: lie.Subspace(g2, [sinv.apply(b) for b in part.basis])
              for lam, part in base.parts.items()}
    grading.Grading(g2, sinv.apply(triple.x), parts2)  # brackets validated

    ad2 = g2.ad(nu2)
    poly = exact.minimal_polynomial(ad2)
    value = exact.RatMat.zeros(g.dim, g.dim)
    power = exact.RatMat.identity(g.dim)
    for coeff in poly:
        value = value + power.scale(coeff)
        power = power @ ad2
    if not value.is_zero():
        failed.append("minimal polynomial does not annihilate")
    if any(c != 0 for c in poly[:-1]):
        failed.append("minimal polynomial of a nilpotent is not a power")

    first = reductivity.vai_verdict(g, lie.Subalgebra(g, [nu], name="n")).vai
    second = reductivity.vai_verdict(
        g2, lie.Subalgebra(g2, [nu2], name="n2")).vai
    if not first == second == "fails":
        failed.append(f"verdicts {first}/{second}, want fails/fails")
    return failed


class _Stream:
    """Runs blocks of instances and keeps per-instance records."""

    def __init__(self, algebras, instances, tracer=None):
        self.algebras = algebras
        self.instances = instances  # an iterator
        self.used = []  # what this stream ran, for a replay under spans
        self.tracer = tracer
        self.times = {3: [], 4: []}
        self.failures = []
        self.ops = []

    def block(self, index: int):
        chunk = list(itertools.islice(self.instances, BLOCK))
        self.used += chunk
        light = heavy = 0.0
        for offset, instance in enumerate(chunk):
            k = index * BLOCK + offset
            n = instance[0]
            g = self.algebras[n]
            start = time.perf_counter()
            try:
                nu, s = inputs(g, instance)
                start = time.perf_counter()
                if self.tracer is None:
                    bad = run_instance(g, nu, s, f"twisted-{k}")
                else:
                    with self.tracer.span("bench.instance", f"sl{n}"):
                        bad = run_instance(g, nu, s, f"twisted-{k}")
            except Exception as exc:  # a crash is a failed instance
                bad = [f"{type(exc).__name__}: {exc}"]
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.ops.append(self.tracer.take())
            self.times[n].append(elapsed)
            if bad:
                self.failures.append({"instance": k, "n": n, "failed": bad})
            if n == 4:
                heavy += elapsed
            else:
                light += elapsed
        return [light], [heavy]

    def attempted(self) -> int:
        return len(self.times[3]) + len(self.times[4])


def _named(stream: _Stream, elapsed: float, seed: int) -> dict:
    return {
        "instances_per_s": common.metric(stream.attempted() / elapsed, "1/s"),
        "instance_p50_ms.sl3": common.timing(stream.times[3], "ms", 1e3),
        "instance_p50_ms.sl4": common.timing(stream.times[4], "ms", 1e3),
        "instances": {"seed": seed, "sl3": len(stream.times[3]),
                      "sl4": len(stream.times[4])},
    }


def run(ctx: common.Context) -> common.Outcome:
    setup_s, setup_runs = common.measure_setup(__name__, ctx.seed)
    stream = _Stream(*setup(ctx.seed))
    blocks, elapsed = common.timed_passes(ctx.seconds, 1, stream.block)
    attempted = stream.attempted()
    metrics = common.e2e(setup_s, attempted, elapsed, blocks)
    report = {
        "end_to_end": {**metrics, **_named(stream, elapsed, ctx.seed),
                       "setup_runs_s": setup_runs,
                       "error_rate": len(stream.failures) / attempted},
        "failures": stream.failures[:20],
    }
    return common.Outcome(attempted, len(stream.failures), metrics, report)


def traced(ctx: common.Context) -> common.Outcome:
    """Half the time untraced, then the same blocks again under spans."""
    algebras, instances = setup(ctx.seed)
    plain = _Stream(algebras, instances)
    blocks, plain_s = common.timed_passes(ctx.seconds / 2, 1, plain.block)
    passes = len(blocks)
    tracer = spans.Tracer()
    traced_stream = _Stream(algebras, iter(plain.used), tracer)
    with spans.instrumented(tracer):
        start = time.perf_counter()
        for index in range(passes):
            traced_stream.block(index)
        traced_s = time.perf_counter() - start
    summary, common_layers = spans.span_summary(traced_stream.ops, traced_s,
                                                passes)
    overhead_s = (traced_s - plain_s) / passes
    report = {
        "untraced": _named(plain, plain_s, ctx.seed),
        "traced": _named(traced_stream, traced_s, ctx.seed),
        "trace_overhead": {
            "pass_s": overhead_s,
            "share": (traced_s - plain_s) / plain_s,
            "instances_per_s": (traced_stream.attempted() / traced_s
                                - plain.attempted() / plain_s),
        },
        "layers": spans.layer_report(traced_stream.ops, LAYERS),
        **summary,
        "failures": (plain.failures + traced_stream.failures)[:20],
    }
    metrics = {
        "trace.overhead_s": common.metric(overhead_s, "s"),
        "trace.coverage": common.metric(summary["span_coverage"], "ratio"),
        **{k: common.metric(v, "s") for k, v in common_layers.items()},
    }
    attempted = plain.attempted() + traced_stream.attempted()
    failed = len(plain.failures) + len(traced_stream.failures)
    return common.Outcome(attempted, failed, metrics, report)
