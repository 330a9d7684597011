"""Reductive-type decisions, involution certificates, verdicts.

The expected complements and minimal polynomials were computed by hand
from the bracket tables before the implementation existed.
"""

import random
from fractions import Fraction

import pytest

import builders
from vaikit import catalog
from vaikit.errors import InputError, InvariantViolation
from vaikit.exact import RatMat, kernel, vec
from vaikit.lie import LieAlgebra, Subalgebra, Subspace
from vaikit.reductivity import (
    VAI_FAILS,
    VAI_HOLDS,
    VAI_NO_MEASURE,
    CartanData,
    check_theta_stable,
    default_cartan,
    is_reductive_in_g,
    is_symmetric_pair,
    vai_verdict,
)
from vaikit.witness import unipotent_witness


@pytest.fixture(scope="module")
def cartan2(sl2):
    return CartanData.negative_transpose(sl2)


@pytest.fixture(scope="module")
def cartan3(sl3):
    return CartanData.negative_transpose(sl3)


def test_cartan_split_sl2(sl2, cartan2):
    # fixed space: antisymmetric matrices; flipped space: symmetric ones
    eye = RatMat.identity(sl2.dim)
    k_part = Subspace(sl2, kernel(cartan2.theta - eye))
    p_part = Subspace(sl2, kernel(cartan2.theta + eye))
    assert k_part.dim == 1
    assert p_part.dim == 2
    assert k_part.contains(vec([0, 1, -1]))
    assert p_part.contains(vec([1, 0, 0]))
    assert p_part.contains(vec([0, 1, 1]))


def test_cartan_rejects_non_involution(sl2):
    with pytest.raises(InvariantViolation):
        CartanData(sl2, RatMat([[1, 0, 0], [0, 1, 0], [0, 1, 1]]))


def test_cartan_rejects_non_automorphism(sl2):
    # an involution of the vector space that scrambles brackets
    swap_h_e = RatMat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(InvariantViolation):
        CartanData(sl2, swap_h_e)


def test_reductive_in_g_so2(sl2, sl2_subs):
    ok, cert = is_reductive_in_g(sl2, sl2_subs["so2"])
    assert ok and cert is None


def test_reductive_in_g_so11(sl2, sl2_subs):
    ok, cert = is_reductive_in_g(sl2, sl2_subs["so11"])
    assert ok and cert is None


def test_not_reductive_span_e(sl2, sl2_subs):
    ok, cert = is_reductive_in_g(sl2, sl2_subs["n"])
    assert not ok
    assert cert["kind"] == "center-witness"
    assert cert["element"] == vec([0, 1, 0])
    # nilpotent action: minimal polynomial is a cube
    assert cert["minpoly"] == (0, 0, 0, 1)


def test_not_reductive_borel(sl2, sl2_subs):
    ok, cert = is_reductive_in_g(sl2, sl2_subs["borel"])
    assert not ok
    assert cert["kind"] == "radical-witness"
    assert cert["radical_dim"] == 2
    assert cert["center_dim"] == 0


def test_theta_stable_so2(sl2, sl2_subs, cartan2):
    stable, q = check_theta_stable(sl2, sl2_subs["so2"], cartan2)
    assert stable
    assert q.dim == 2
    assert q.contains(vec([1, 0, 0]))
    assert q.contains(vec([0, 1, 1]))


def test_theta_stable_so11(sl2, sl2_subs, cartan2):
    stable, q = check_theta_stable(sl2, sl2_subs["so11"], cartan2)
    assert stable
    assert q.dim == 2
    assert q.contains(vec([0, 1, 0]))
    assert q.contains(vec([0, 0, 1]))


def test_theta_unstable_span_e(sl2, sl2_subs, cartan2):
    stable, q = check_theta_stable(sl2, sl2_subs["n"], cartan2)
    assert not stable and q is None


def test_symmetric_pairs_sl2(sl2, sl2_subs):
    assert is_symmetric_pair(sl2, sl2_subs["so2"])
    assert is_symmetric_pair(sl2, sl2_subs["so11"])
    # kappa vanishes on span(E): no complement, not symmetric
    assert not is_symmetric_pair(sl2, sl2_subs["n"])


def test_so3_symmetric_in_sl3(sl3):
    so3 = builders.sl3_so3(sl3)
    assert is_symmetric_pair(sl3, so3)


def test_cartan_line_not_symmetric_in_sl3(sl3, cartan3):
    h = Subalgebra(sl3, [sl3.basis_vector(0)], name="span(H1)")
    stable, q = check_theta_stable(sl3, h, cartan3)
    assert stable and q.dim == 7
    assert not is_symmetric_pair(sl3, h)


def test_verdict_holds_cases(sl2, sl3, sl2_subs):
    for h in (sl2_subs["so2"], sl2_subs["so11"]):
        rep = vai_verdict(sl2, h)
        assert rep.vai == VAI_HOLDS
        assert rep.unimodular and rep.reductive_in_g
        assert rep.certificate["kind"] == "theta-stable"
        assert rep.symmetric_pair
    rep = vai_verdict(sl3, builders.sl3_so3(sl3))
    assert rep.vai == VAI_HOLDS
    assert rep.certificate["kind"] == "theta-stable"


def test_verdict_fails_cases(sl2, sl3, sl5, sl2_subs):
    rep = vai_verdict(sl2, sl2_subs["n"])
    assert rep.vai == VAI_FAILS
    assert rep.unimodular and not rep.reductive_in_g
    assert rep.certificate["kind"] == "center-witness"

    rep = vai_verdict(sl3, builders.sl3_e12(sl3))
    assert rep.vai == VAI_FAILS

    rep = vai_verdict(sl5, builders.sl5_nilpotent_pair(sl5))
    assert rep.vai == VAI_FAILS
    assert rep.certificate["kind"] == "center-witness"


def test_verdict_no_measure_borel(sl2, sl2_subs):
    rep = vai_verdict(sl2, sl2_subs["borel"])
    assert rep.vai == VAI_NO_MEASURE
    assert not rep.unimodular
    assert rep.trace_witness == vec([1, 0, 0])  # tr(ad H on borel) = 2


def test_verdict_requires_reductive_ambient():
    sc = [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]
    aff = LieAlgebra([[[int(c) for c in r] for r in p] for p in sc], name="aff1")
    with pytest.raises(InputError, match="not reductive"):
        vai_verdict(aff, Subalgebra(aff, [aff.basis_vector(i) for i in range(aff.dim)]))


def test_default_cartan_without_realization(sl2):
    bare = LieAlgebra(sl2.sc, name="sl2-bare")
    assert default_cartan(bare) is None
    h = Subalgebra(bare, [vec([0, 1, -1])], name="so2")
    rep = vai_verdict(bare, h)
    # verdict still decided; no involution certificate available
    assert rep.vai == VAI_HOLDS
    assert rep.certificate is None


def test_theta_stable_consistency_catalog(sl2, sl3, sl5, sl2_subs):
    # involution-stable implies reductive in g, exact check on catalog
    pairs = [
        (sl2, sl2_subs["so2"]), (sl2, sl2_subs["so11"]), (sl2, sl2_subs["borel"]),
        (sl2, sl2_subs["n"]), (sl3, builders.sl3_so3(sl3)), (sl3, builders.sl3_e12(sl3)),
        (sl5, builders.sl5_nilpotent_pair(sl5)),
    ]
    for g, h in pairs:
        cartan = default_cartan(g)
        stable, _ = check_theta_stable(g, h, cartan)
        reductive, _ = is_reductive_in_g(g, h)
        if stable:
            assert reductive, (g.name, h.name)
        if not reductive:
            assert not stable, (g.name, h.name)


def test_verdict_invariant_under_h_basis_change(sl2, sl2_subs):
    import random

    rng = random.Random(3)
    b = sl2_subs["borel"]
    for _ in range(5):
        # random unimodular mix of the borel basis
        k = rng.randint(-3, 3)
        nb = [b.basis[0], tuple(e + k * f for e, f in zip(b.basis[1], b.basis[0]))]
        rep = vai_verdict(sl2, Subalgebra(sl2, nb, name="borel'"))
        assert rep.vai == VAI_NO_MEASURE


def _random_sl(n: int, rng: random.Random) -> tuple[RatMat, RatMat]:
    """P in SL(n, Q) and its inverse: a lower times an upper unitriangular
    matrix, scaled by diag(2, 1/2, 1, ...)."""
    lower = [[1 if i == j else rng.randint(-2, 2) if i > j else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else rng.randint(-2, 2) if i < j else 0 for j in range(n)]
             for i in range(n)]
    scale = RatMat([[(2 if i == 0 else Fraction(1, 2) if i == 1 else 1) if i == j else 0
                     for j in range(n)] for i in range(n)])
    p = RatMat(lower) @ RatMat(upper) @ scale
    return p, p.inverse()


@pytest.mark.parametrize("algebra,subalgebra", [
    ("sl2.json", "sl2-so2.json"), ("sl2.json", "sl2-so11.json"),
    ("sl2.json", "sl2-n.json"), ("sl2.json", "sl2-borel.json"),
    ("sl3.json", "sl3-so3.json"), ("sl3.json", "sl3-e12.json"),
    ("sl5.json", "sl5-nilpair.json"),
])
def test_verdict_invariant_under_conjugation(algebra, subalgebra):
    # Ad(P) is an automorphism of sl(n), so every field of the verdict,
    # symmetric_pair included, and the unipotent rate are invariants
    g = catalog.load_algebra_file(catalog.data_path(algebra))
    h = catalog.load_subalgebra_file(catalog.data_path(subalgebra), g)
    rep = vai_verdict(g, h)
    gamma = unipotent_witness(g, h).gamma if rep.vai == VAI_FAILS else None
    rng = random.Random(f"{algebra}/{subalgebra}")
    n = g.realization[0].nrows
    for _ in range(3):
        p, p_inv = _random_sl(n, rng)
        basis = [g.realization_coords(p @ g.realize(b) @ p_inv) for b in h.basis]
        hp = Subalgebra(g, basis, name=f"Ad(P) {h.name}")
        got = vai_verdict(g, hp)
        assert (got.vai, got.unimodular, got.reductive_in_g, got.symmetric_pair) == \
            (rep.vai, rep.unimodular, rep.reductive_in_g, rep.symmetric_pair)
        if gamma is not None:
            assert unipotent_witness(g, hp).gamma == gamma
