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
from vaikit.exact import RatMat, kernel, solve, vec
from vaikit.lie import LieAlgebra, Subalgebra, Subspace, negative_transpose_involution
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
from vaikit.witness import (
    ParabolicData,
    build_n1,
    predict_lower_bound,
    predict_symmetric_exponent,
    unipotent_witness,
)


@pytest.fixture(scope="module")
def cartan2(sl2):
    return default_cartan(sl2)


@pytest.fixture(scope="module")
def cartan3(sl3):
    return default_cartan(sl3)


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
    bare = LieAlgebra(builders.structure(sl2), name="sl2-bare")
    assert default_cartan(bare) is None
    h = Subalgebra(bare, [vec([0, 1, -1])], name="so2")
    rep = vai_verdict(bare, h)
    # verdict still decided; no involution certificate available
    assert rep.vai == VAI_HOLDS
    assert rep.certificate is None


def _realized(name, *mats):
    return LieAlgebra.from_realization([RatMat(m) for m in mats], name=name)


_SL2_BLOCK = [[[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
              [[0, 0, 0], [1, 0, 0], [0, 0, 0]]]
_DOMAIN = {
    "gl2": builders.gl2,  # its center lies in ker kappa
    "diag2": lambda: _realized("diag2", [[1, 0], [0, 0]], [[0, 0], [0, 1]]),
    "b2": lambda: _realized("b2", [[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]]),
    "so3": lambda: _realized("so3", [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
                             [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                             [[0, 0, 0], [0, 0, 1], [0, -1, 0]]),  # theta = 1
    "sl2+gl1": lambda: _realized("sl2+gl1", *_SL2_BLOCK, [[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
}


@pytest.mark.parametrize("algebra,is_cartan", [
    ("sl2", True), ("sl3", True), ("sl4", True), ("sl5", True), ("sheared_sl3", True),
    ("gl2", False), ("diag2", False), ("b2", False), ("so3", True), ("sl2+gl1", False)])
def test_default_cartan_matches_checked_constructor(algebra, is_cartan, request):
    # default_cartan proves what CartanData checks: it gives theta exactly
    # where the checked constructor accepts X -> -X^T, and that theta
    g = _DOMAIN[algebra]() if algebra in _DOMAIN else request.getfixturevalue(algebra)
    try:
        want = CartanData(g, negative_transpose_involution(g)).theta
    except InvariantViolation:  # b2 is not transpose-stable; the rest fail a check
        want = None
    assert (want is not None) == is_cartan
    cartan = default_cartan(g)
    if want is None:
        assert cartan is None
    else:
        assert cartan.algebra is g and cartan.theta == want


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
        # the verdict carries a failure certificate exactly when h is not
        # reductive in g
        certificate = vai_verdict(g, h, cartan).certificate
        failure = certificate is not None and certificate["kind"] != "theta-stable"
        assert failure == (not reductive), (g.name, h.name)


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


def _ad_p(g, rng: random.Random) -> RatMat:
    """The coordinate matrix of Ad(P) for a random P of ``_random_sl``:
    column j holds the coordinates of P m_j P^-1, m_j g's realization."""
    p, p_inv = _random_sl(g.realization[0].nrows, rng)
    flat = RatMat([[e for r in m.rows for e in r] for m in g.realization]).transpose()
    return RatMat([solve(flat, tuple(e for r in (p @ m @ p_inv).rows for e in r))
                   for m in g.realization]).transpose()


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
    for _ in range(3):
        a = _ad_p(g, rng)
        hp = Subalgebra(g, [a.apply(b) for b in h.basis], name=f"Ad(P) {h.name}")
        got = vai_verdict(g, hp)
        assert (got.vai, got.unimodular, got.reductive_in_g, got.symmetric_pair) == \
            (rep.vai, rep.unimodular, rep.reductive_in_g, rep.symmetric_pair)
        if gamma is not None:
            assert unipotent_witness(g, hp).gamma == gamma


@pytest.mark.parametrize("algebra,subalgebra,parabolic", [
    ("sl2", "sl2-n", "sl2-borel-parabolic"), ("sl3", "sl3-e12", "sl3-flag-parabolic"),
])
def test_parabolic_gamma_invariant_under_conjugation(algebra, subalgebra, parabolic):
    # gamma is a trace gap of ad x, so Ad(P) applied to h, p0, l0, n0, nbar0
    # and x keeps it; mt_bounded is not compared, as l1 is a
    # coordinate-orthogonal complement, which Ad(P) does not preserve
    g = catalog.load_algebra_file(catalog.data_path(f"{algebra}.json"))
    h = catalog.load_subalgebra_file(catalog.data_path(f"{subalgebra}.json"), g)
    fields = catalog.parse_parabolic(
        catalog.load_json(catalog.data_path(f"{parabolic}.json")), g)
    keys = ("p0", "l0", "n0", "nbar0")
    gamma = build_n1(g, h, ParabolicData(g, *[fields[k] for k in keys], fields["x"])).gamma
    rng = random.Random(f"{algebra}/{parabolic}")
    for _ in range(3):
        a = _ad_p(g, rng)
        hp = Subalgebra(g, [a.apply(b) for b in h.basis], name=f"Ad(P) {h.name}")
        par = ParabolicData(g, *[[a.apply(b) for b in fields[k]] for k in keys],
                            a.apply(fields["x"]))
        assert build_n1(g, hp, par).gamma == gamma


def test_symmetric_exponent_invariant_under_conjugation(sl2, sl2_subs):
    u, x = sl2.basis_vector(1), sl2.basis_vector(0)
    want = predict_symmetric_exponent(sl2, sl2_subs["so2"], Subspace(sl2, [u]), x)
    assert want == 2
    rng = random.Random(29)
    for _ in range(3):
        a = _ad_p(sl2, rng)
        hp = Subalgebra(sl2, [a.apply(b) for b in sl2_subs["so2"].basis])
        got = predict_symmetric_exponent(sl2, hp, Subspace(sl2, [a.apply(u)]), a.apply(x))
        assert got == want


def test_lower_bound_exponent_invariant_under_conjugation(sl2, sl2_subs,
                                                         assert_lower_bound_split):
    # under theta_P = Ad(P) theta Ad(P)^-1 the direction Ad(P) x is flipped
    # and orthogonal to Ad(P) h, and the ad-x spectrum is kept
    theta = default_cartan(sl2).theta
    x = vec([0, 1, 1])
    want = predict_lower_bound(sl2, sl2_subs["so11"], default_cartan(sl2), x)
    assert_lower_bound_split(want)
    rng = random.Random(31)
    for _ in range(3):
        a = _ad_p(sl2, rng)
        cartan = CartanData(sl2, a @ theta @ a.inverse())
        hp = Subalgebra(sl2, [a.apply(b) for b in sl2_subs["so11"].basis])
        got = predict_lower_bound(sl2, hp, cartan, a.apply(x))
        assert_lower_bound_split(got)
        assert (got.cosh_exponent, got.eigenvalues) == (want.cosh_exponent, want.eigenvalues)


@pytest.mark.parametrize("algebra,subalgebras", [
    ("sl2", ["sl2-so2", "sl2-so11", "sl2-n", "sl2-borel"]),
    ("sl3", ["sl3-so3", "sl3-e12"]),
    ("sl4", []),
    ("sl5", ["sl5-nilpair"]),
])
def test_killing_and_cartan_pairings_are_symmetric(algebra, subalgebras):
    # BilinearForm takes the Gram matrices of killing_form and of the
    # CartanData pairing -theta^T K as symmetric without a check
    g = catalog.load_algebra_file(catalog.data_path(f"{algebra}.json"))
    hs = [catalog.load_subalgebra_file(catalog.data_path(f"{name}.json"), g)
          for name in subalgebras]
    for a in [g] + [h.abstract() for h in hs]:
        gram = a.killing_form().gram
        assert gram == gram.transpose(), a.name
    theta = default_cartan(g).theta
    thetas = [theta, catalog.parse_theta(catalog.load_json(
        catalog.data_path("theta-negative-transpose.json")), g)]
    p = _ad_p(g, random.Random(algebra))
    thetas.append(CartanData(g, p @ theta @ p.inverse()).theta)
    for t in thetas:
        pairing = -(t.transpose() @ g.killing_form().gram)
        assert pairing == pairing.transpose()


def test_cartan_data_with_non_integral_theta(sl3):
    # theta_P = Ad(P) theta Ad(P)^-1 is a Cartan involution with a denominator;
    # changing one entry breaks theta^2 = 1, and the involution
    # Ad(P) D Ad(P)^-1, D theta with its first diagonal entry negated, is
    # no automorphism
    theta = default_cartan(sl3).theta
    a = _ad_p(sl3, random.Random(37))
    theta_p = a @ theta @ a.inverse()
    assert theta_p.den > 1
    CartanData(sl3, theta_p)
    rows = [list(r) for r in theta_p.rows]
    rows[2][5] += 1
    with pytest.raises(InvariantViolation, match="^involution does not square to the identity$"):
        CartanData(sl3, RatMat(rows))
    flip = [list(r) for r in theta.rows]
    flip[0][0] = -flip[0][0]
    bad = a @ RatMat(flip) @ a.inverse()
    assert bad @ bad == RatMat.identity(8) and bad.den > 1
    with pytest.raises(InvariantViolation,
                       match=r"^involution is not an automorphism at basis pair \(0, 1\)$"):
        CartanData(sl3, bad)
