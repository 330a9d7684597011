"""Acceptance suite: one test per shipping criterion.

Each test ends by printing a single verdict line

    [PASS] criterion N: <what was checked> (<measured values>)

so a run with ``pytest tests/test_acceptance.py -s -v`` reads as a
checklist.  Tolerances and time budgets are stated inline; the
Monte Carlo checks pin their seeds, so reruns are deterministic.

The whole module takes about 14 s on two cores; the randomized-instance
criterion at the end dominates (1000 exact constructions).
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import builders
from float_checks import chi_partial, phi_jacobian_sandwich
from vaikit import catalog
from vaikit.cli import main as cli_main
from vaikit.exact import RatMat, minimal_polynomial
from vaikit.grading import (
    Grading,
    grading_of,
    jacobson_morozov,
    verify_nonnegative_grading,
)
from vaikit.lie import LieAlgebra, Subalgebra, Subspace
from vaikit.reductivity import (
    VAI_HOLDS,
    CartanData,
    check_theta_stable,
    vai_verdict,
)
from vaikit.volume import get_model, volume_along_curve
from vaikit.witness import (
    ParabolicData,
    build_n1,
    check_mt_bounded,
    predict_symmetric_exponent,
    unipotent_witness,
)


def d(name):
    return str(catalog.data_path(name))


def verdict_line(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{tag}] criterion {num}: {label}{suffix}", flush=True)
    assert ok, f"criterion {num}: {label}{suffix}"


@pytest.fixture(scope="module")
def sl2():
    return catalog.load_algebra_file(d("sl2.json"))


@pytest.fixture(scope="module")
def sl3():
    return catalog.load_algebra_file(d("sl3.json"))


@pytest.fixture(scope="module")
def sl5():
    return catalog.load_algebra_file(d("sl5.json"))


CATALOG_PAIRS = [
    ("sl2.json", "sl2-so2.json"),
    ("sl2.json", "sl2-so11.json"),
    ("sl2.json", "sl2-n.json"),
    ("sl2.json", "sl2-borel.json"),
    ("sl3.json", "sl3-so3.json"),
    ("sl3.json", "sl3-e12.json"),
    ("sl5.json", "sl5-nilpair.json"),
]


def test_criterion_01_check_verdicts(capsys):
    """Seven catalog pairs return the right exit code in under 1s."""
    expected = {
        ("sl2.json", "sl2-so2.json"): 0,
        ("sl2.json", "sl2-so11.json"): 0,
        ("sl3.json", "sl3-so3.json"): 0,
        ("sl2.json", "sl2-n.json"): 3,
        ("sl3.json", "sl3-e12.json"): 3,
        ("sl5.json", "sl5-nilpair.json"): 3,
        ("sl2.json", "sl2-borel.json"): 4,
    }
    start = time.monotonic()
    codes = {}
    for (algebra, subalgebra), want in expected.items():
        code = cli_main(["check", "--algebra", d(algebra),
                         "--subalgebra", d(subalgebra)])
        codes[(algebra, subalgebra)] = code
    elapsed = time.monotonic() - start
    capsys.readouterr()
    ok = codes == expected and elapsed < 1.0
    with capsys.disabled():
        verdict_line(1, "check verdicts 0/3/4 on the seven catalog pairs",
                     ok, f"elapsed {elapsed:.3f}s < 1s")


def test_criterion_02_theta_equivalence():
    """For every catalog pair: verdict holds iff a theta-stable
    complement q with [h, q] in q exists under the bundled involution."""
    exceptions = []
    for algebra, subalgebra in CATALOG_PAIRS:
        g = catalog.load_algebra_file(d(algebra))
        h = catalog.load_subalgebra_file(d(subalgebra), g)
        theta = catalog.parse_theta(
            catalog.load_json(d("theta-negative-transpose.json")), g)
        cartan = CartanData(g, theta)
        verdict = vai_verdict(g, h, cartan)
        stable, q = check_theta_stable(g, h, cartan)
        if (verdict.vai == VAI_HOLDS) != stable:
            exceptions.append((algebra, subalgebra, verdict.vai, stable))
            continue
        if stable:
            closed = all(q.contains(g.bracket(b, c))
                         for b in h.basis for c in q.basis)
            if not closed:
                exceptions.append((algebra, subalgebra, "q not h-stable"))
    verdict_line(2, "holds iff theta-stable complement, [h,q] in q",
                 not exceptions,
                 f"{len(CATALOG_PAIRS)} pairs, {len(exceptions)} exceptions")


def test_criterion_03_triples_and_grading(sl2, sl3, sl5):
    """Exact triples over E, E12 and the principal regular nilpotent;
    the two-generator subalgebra sits in eigencomponents {2, 4, 6}."""
    two = Fraction(2)
    cases = [
        (sl2, sl2.basis_vector(1)),
        (sl3, sl3.basis_vector(2)),
        (sl5, catalog.load_subalgebra_file(d("sl5-nilpair.json"),
                                           sl5).basis[0]),
    ]
    ok = True
    for g, u in cases:
        triple = jacobson_morozov(g, u)
        ok &= g.bracket(triple.x, triple.u) == tuple(two * c for c in triple.u)
        ok &= g.bracket(triple.x, triple.v) == tuple(-two * c
                                                     for c in triple.v)
        ok &= g.bracket(triple.u, triple.v) == triple.x

    pair = catalog.load_subalgebra_file(d("sl5-nilpair.json"), sl5)
    triple5 = jacobson_morozov(sl5, pair.basis[0])
    ok &= verify_nonnegative_grading(sl5, pair, triple5)
    grading = grading_of(sl5, triple5.x)
    # b has a g^lam component exactly when it leaves the sum of the other parts
    others = {lam: Subspace(sl5, [v for mu, p in grading.parts.items() if mu != lam
                                  for v in p.basis]) for lam in grading.parts}
    seen = set()
    for b in pair.basis:
        seen.update(lam for lam, rest in others.items() if not rest.contains(b))
    ok &= seen == {Fraction(2), Fraction(4), Fraction(6)}
    verdict_line(3, "exact sl2-triples and nonnegative grading",
                 ok, f"eigencomponents {sorted(int(s) for s in seen)}")


def test_criterion_04_unipotent_rate(sl2):
    """gamma = 2 exactly; measured slope within 2.0 +/- 0.2 in < 60s."""
    witness = unipotent_witness(
        sl2, catalog.load_subalgebra_file(d("sl2-n.json"), sl2))
    exact_ok = witness.gamma == 2

    start = time.monotonic()
    series = volume_along_curve(
        get_model("sl2-mod-n"),
        t_grid=[-4.0 + 0.5 * k for k in range(9)],
        radius=0.3, samples=100_000, seed=42)
    elapsed = time.monotonic() - start
    slope_ok = series.slope is not None and abs(series.slope - 2.0) <= 0.2
    ok = exact_ok and slope_ok and elapsed < 60.0
    verdict_line(4, "unipotent decay rate 2 and matching measured slope",
                 ok, f"gamma={witness.gamma}, slope={series.slope:.4f}, "
                     f"elapsed {elapsed:.1f}s < 60s")


def test_criterion_05_parabolic_witness(sl3):
    """Greedy complement is exactly the E13 line with rate 3, and the
    conjugated projection stays bounded."""
    fields = catalog.parse_parabolic(
        catalog.load_json(d("sl3-flag-parabolic.json")), sl3)
    parabolic = ParabolicData(sl3, fields["p0"], fields["l0"],
                              fields["n0"], fields["nbar0"], fields["x"])
    h = catalog.load_subalgebra_file(d("sl3-e12.json"), sl3)
    witness = build_n1(sl3, h, parabolic)
    e13 = sl3.basis_vector(3)
    ok = (witness.n1.dim == 1
          and witness.n1.contains(e13)
          and witness.gamma == 3
          and bool(check_mt_bounded(witness)))
    verdict_line(5, "n1 = span(E13), gamma = 3, bounded projection",
                 ok, f"gamma={witness.gamma}, dim n1={witness.n1.dim}")


def test_criterion_06_symmetric_exponent(sl2):
    """Two-sided exponent 2 exactly; measured slope on the positive
    curve within 2.0 +/- 0.2 and no volume collapse, in < 90s."""
    h = catalog.load_subalgebra_file(d("sl2-so2.json"), sl2)
    raising = Subspace(sl2, [sl2.basis_vector(1)], name="u")
    exponent = predict_symmetric_exponent(sl2, h, raising, sl2.basis_vector(0))
    exact_ok = exponent == 2

    start = time.monotonic()
    series = volume_along_curve(
        get_model("spd2"),
        t_grid=[0.5 * k for k in range(9)],
        radius=0.3, samples=100_000, seed=42)
    elapsed = time.monotonic() - start
    slope_ok = series.slope is not None and abs(series.slope - 2.0) <= 0.2
    floor_ok = min(series.estimates) >= 0.5 * series.estimates[0] > 0
    ok = exact_ok and slope_ok and floor_ok and elapsed < 90.0
    verdict_line(6, "symmetric growth exponent 2 with measured slope",
                 ok, f"2rho={exponent}, slope={series.slope:.4f}, "
                     f"min/v(0)={min(series.estimates)/series.estimates[0]:.2f}, "
                     f"elapsed {elapsed:.1f}s < 90s")


def test_criterion_07_jacobian_sandwich(sl2):
    """Normalized Jacobian sups stay within 10x down to t = -8 for the
    true rate and blow past 100x for a corrupted one."""
    fields = catalog.parse_parabolic(
        catalog.load_json(d("sl2-borel-parabolic.json")), sl2)
    parabolic = ParabolicData(sl2, fields["p0"], fields["l0"],
                              fields["n0"], fields["nbar0"], fields["x"])
    h = catalog.load_subalgebra_file(d("sl2-n.json"), sl2)
    witness = build_n1(sl2, h, parabolic)

    true_ratio, records = phi_jacobian_sandwich(witness, q_box=0.1,
                                                samples=400, seed=7)
    bad_ratio, _ = phi_jacobian_sandwich(witness, q_box=0.1, samples=400,
                                         seed=7,
                                         claimed_gamma=witness.gamma + 1)
    ok = (len(records) == 9 and records[0]["t"] == 0.0
          and true_ratio <= 10.0 and bad_ratio > 100.0)
    verdict_line(7, "sandwich flat for true rate, divergent for rate+1",
                 ok, f"true ratio {true_ratio:.2f} <= 10, "
                     f"corrupted {bad_ratio:.0f} > 100")


def test_criterion_08_weighted_tail():
    """Weighted patch norm: tail ratio near 1/e, sup at least K, and
    the K = 6 -> 10 norm growth under 5 percent."""
    norm10, sup10, tail10 = chi_partial(10, p=2.0, samples=100_000, seed=0)
    norm6, _, _ = chi_partial(6, p=2.0, samples=100_000, seed=0)
    growth = (norm10 - norm6) / norm6
    ok = (abs(tail10 - math.exp(-1)) <= 0.15
          and sup10 >= 10.0
          and 0 <= growth < 0.05)
    verdict_line(8, "partial weighted norms converge with 1/e tail",
                 ok, f"tail={tail10:.4f} (target {math.exp(-1):.4f}"
                     f" +/- 0.15), sup={sup10:.1f} >= 10, "
                     f"growth {100 * growth:.3f}% < 5%")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_criterion_09_thread_determinism(tmp_path):
    """The slope-series runs re-emit byte-identical CSV pinned to one CPU
    (one estimator worker) and unpinned (one worker per usable CPU)."""
    jobs = [
        ("sl2-mod-n", "-4:0:0.5"),
        ("spd2", "0:4:0.5"),
    ]
    ok = True
    for space, t_range in jobs:
        blobs = []
        for pinned in (True, False):
            out = tmp_path / f"{space}-pinned-{pinned}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "vaikit.cli", "estimate",
                 "--space", space, "--t-range", t_range,
                 "--radius", "0.3", "--samples", "100000", "--seed", "42",
                 "--out", str(out)],
                capture_output=True, text=True,
                preexec_fn=(lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}))
                if pinned else None)
            ok &= proc.returncode == 0
            blobs.append(out.read_bytes())
        ok &= blobs[0] == blobs[1] and len(blobs[0]) > 0
    verdict_line(9, "byte-identical CSV pinned to one CPU and unpinned",
                 ok, f"{len(jobs)} spaces x 2 CPU sets, {len(os.sched_getaffinity(0))} usable")


# --- randomized exact properties ------------------------------------------


def _unimodular_change(rng, n):
    """Random integer basis change with determinant +/- 1 (shears)."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(5):
        i, j = rng.integers(0, n, 2)
        while i == j:
            i, j = rng.integers(0, n, 2)
        c = Fraction(int(rng.choice((-1, 1))))
        for k in range(n):
            rows[i][k] += c * rows[j][k]
    return RatMat(rows)


def _random_nilpotent(rng, n, g):
    """Coordinates of a nonzero strictly upper triangular matrix."""
    while True:
        m = np.triu(rng.integers(-1, 2, size=(n, n)), 1)
        if m.any():
            break
    coords = [Fraction(0)] * g.dim
    for i in range(n):
        for j in range(i + 1, n):
            if m[i, j]:
                coords[builders._upper_index(n, i, j)] = Fraction(int(m[i, j]))
    return tuple(coords)


def test_criterion_10_randomized_instances(assert_bracket_compatible, assert_checked_grading,
                                           assert_sl2_triple):
    """1000 random (nilpotent, basis change) instances in sl3/sl4:
    transformed structure constants pass Jacobi validation, the Killing
    form transforms by congruence, the triple satisfies the sl2
    relations and its grading stays bracket compatible, the minimal polynomial annihilates exactly, and the
    verdict never depends on the basis."""
    algebras = {3: builders.sl(3), 4: builders.sl(4)}
    for g in algebras.values():
        g.killing_form()
    rng = np.random.default_rng(20260817)
    checks = 0
    start = time.monotonic()
    for k in range(1000):
        n = 4 if k % 5 == 4 else 3
        g = algebras[n]
        nu = _random_nilpotent(rng, n, g)
        s = _unimodular_change(rng, g.dim)
        sinv = s.inverse()

        cols = [tuple(s.rows[r][c] for r in range(g.dim))
                for c in range(g.dim)]
        table = [[sinv.apply(g.bracket(cols[i], cols[j]))
                  for j in range(g.dim)] for i in range(g.dim)]
        g2 = LieAlgebra(table, name=f"twisted-{k}")  # Jacobi validated
        checks += 1

        gram = g.killing_form().gram
        assert g2.killing_form().gram == s.transpose() @ gram @ s
        checks += 1

        nu2 = sinv.apply(nu)
        triple = jacobson_morozov(g, nu)
        assert_sl2_triple(triple)
        base = grading_of(g, triple.x)
        assert_checked_grading(base, triple.x)
        parts2 = {lam: Subspace(g2, [sinv.apply(b) for b in part.basis])
                  for lam, part in base.parts.items()}
        assert_bracket_compatible(Grading(g2, sinv.apply(triple.x), parts2))
        checks += 1

        ad2 = g2.ad(nu2)
        poly = minimal_polynomial(ad2)
        value = RatMat.zeros(g.dim, g.dim)
        power = RatMat.identity(g.dim)
        for coeff in poly:
            value = value + power.scale(coeff)
            power = power @ ad2
        assert all(e == 0 for row in value.rows for e in row)
        assert all(c == 0 for c in poly[:-1])  # nilpotent: plain power
        checks += 1

        first = vai_verdict(g, Subalgebra(g, [nu], name="n")).vai
        second = vai_verdict(g2, Subalgebra(g2, [nu2], name="n2")).vai
        assert first == second == "fails"
        checks += 1
    elapsed = time.monotonic() - start
    verdict_line(10, "randomized exact properties, zero failures",
                 True, f"1000 instances, {checks} checks, "
                       f"elapsed {elapsed:.0f}s")
