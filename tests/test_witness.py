"""Decay witnesses, boundedness checks, and growth exponents."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import builders
from float_checks import beta_series, phi_jacobian_sandwich, to_floats
from vaikit.errors import (
    GammaNotPositive,
    InputError,
    InvariantViolation,
    NotNilpotent,
)
from vaikit.exact import RatMat, pivot_indices, vec
from vaikit.grading import grading_of
from vaikit.lie import Subalgebra, Subspace
from vaikit.reductivity import default_cartan
from vaikit.witness import (
    DecayWitness,
    ParabolicData,
    build_n1,
    check_mt_bounded,
    predict_lower_bound,
    predict_symmetric_exponent,
    unipotent_witness,
)

F = Fraction


@pytest.fixture(scope="module")
def sl2_parabolic(sl2):
    d = builders.sl2_parabolic()
    return ParabolicData(sl2, d["p0"], d["l0"], d["n0"], d["nbar0"], d["x"])


@pytest.fixture(scope="module")
def sl3_parabolic(sl3):
    d = builders.sl3_flag_parabolic()
    return ParabolicData(sl3, d["p0"], d["l0"], d["n0"], d["nbar0"], d["x"])


@pytest.fixture(scope="module")
def sl2_witness(sl2, sl2_subs, sl2_parabolic):
    return build_n1(sl2, sl2_subs["n"], sl2_parabolic)


@pytest.fixture(scope="module")
def sl3_witness(sl3, sl3_parabolic):
    return build_n1(sl3, builders.sl3_e12(sl3), sl3_parabolic)


def borel_parabolic(sl3, x=vec([1, 1, 0, 0, 0, 0, 0, 0])):
    """Minimal parabolic of sl3: upper triangulars over the diagonal.

    The default grading element H1 + H2 is diag(1, 0, -1).
    """
    h1, h2 = sl3.basis_vector(0), sl3.basis_vector(1)
    return ParabolicData(
        sl3,
        p0=[h1, h2, sl3.basis_vector(2), sl3.basis_vector(3), sl3.basis_vector(4)],
        l0=[h1, h2],
        n0=[sl3.basis_vector(2), sl3.basis_vector(3), sl3.basis_vector(4)],
        nbar0=[sl3.basis_vector(5), sl3.basis_vector(6), sl3.basis_vector(7)],
        x=x,
    )


class TestParabolicData:
    def test_sl2_fields(self, sl2_parabolic):
        assert sl2_parabolic.n0_trace == 2
        assert list(sl2_parabolic.n0_eigen) == [F(2)]

    def test_sl3_flag_fields(self, sl3_parabolic):
        assert sl3_parabolic.n0_trace == 6
        assert list(sl3_parabolic.n0_eigen) == [F(3)]
        assert len(sl3_parabolic.n0_eigen[F(3)]) == 2

    def test_rejects_non_ideal(self, sl2):
        h, e, f = (sl2.basis_vector(i) for i in range(3))
        with pytest.raises(InvariantViolation):
            ParabolicData(sl2, [h, f], [h], [f], [e], x=h)

    def test_rejects_noncentral_x(self, sl3):
        d = builders.sl3_flag_parabolic()
        with pytest.raises(InvariantViolation):
            ParabolicData(sl3, d["p0"], d["l0"], d["n0"], d["nbar0"],
                          x=sl3.basis_vector(0))

    def test_rejects_negative_spectrum(self, sl2):
        h, e, f = (sl2.basis_vector(i) for i in range(3))
        neg = tuple(-c for c in h)
        with pytest.raises(InvariantViolation):
            ParabolicData(sl2, [h, e], [h], [e], [f], x=neg)

    def test_rejects_overlapping_split(self, sl2):
        h, e, f = (sl2.basis_vector(i) for i in range(3))
        with pytest.raises(InvariantViolation, match="nbar0 overlaps"):
            ParabolicData(sl2, [h, e], [h], [e], [e], x=h)
        # l0 meets n0 in span(E); the dimensions still add up to dim p0
        with pytest.raises(InvariantViolation, match="linearly dependent"):
            ParabolicData(sl2, [h, e, f], [h, e], [e], [f], x=h)

    @pytest.mark.parametrize("length", [7, 9])
    def test_rejects_x_of_wrong_length(self, sl3, length):
        d = builders.sl3_flag_parabolic()
        x = (d["x"] + (F(0),))[:length]
        with pytest.raises(InvariantViolation, match=f"x has {length} entries"):
            ParabolicData(sl3, d["p0"], d["l0"], d["n0"], d["nbar0"], x=x)


class TestBuildN1:
    def test_sl2_mod_n(self, sl2, sl2_witness):
        w = sl2_witness
        assert w.gamma == 2
        assert w.n1.dim == 0
        assert w.l1.basis == (sl2.basis_vector(0),)
        # v = span(F, H): the chart complement of span(E)
        assert w.v.basis == (sl2.basis_vector(2), sl2.basis_vector(0))

    def test_sl3_flag(self, sl3, sl3_witness):
        w = sl3_witness
        assert w.gamma == 3
        assert w.n1.basis == (sl3.basis_vector(3),)  # E13
        assert w.l1.same_span(Subspace(sl3, builders.sl3_flag_parabolic()["l0"]))
        assert w.v.dim == 7

    def test_n0_inside_h(self, sl3, sl3_parabolic):
        # h swallowing the whole nilradical leaves n1 = 0 and the full
        # trace as the rate
        h = Subalgebra(sl3, [sl3.basis_vector(2), sl3.basis_vector(3)])
        w = build_n1(sl3, h, sl3_parabolic)
        assert w.n1.dim == 0
        assert w.gamma == 6

    def test_gamma_not_positive_payload(self, sl2, sl2_subs, sl2_parabolic):
        with pytest.raises(GammaNotPositive) as exc:
            build_n1(sl2, sl2_subs["so11"], sl2_parabolic)
        payload = exc.value.payload
        assert payload["levi"] == (sl2.basis_vector(0),)
        assert payload["h_projected"] == [sl2.basis_vector(0)]

    def test_h_outside_p0_rejected(self, sl2, sl2_subs, sl2_parabolic):
        with pytest.raises(InvariantViolation):
            build_n1(sl2, sl2_subs["so2"], sl2_parabolic)

    def test_h_basis_order_irrelevant(self, sl3):
        par = borel_parabolic(sl3)
        e12, e13 = sl3.basis_vector(2), sl3.basis_vector(3)
        both = tuple(a + b for a, b in zip(e12, e13))
        variants = [[e12, e13], [e13, e12], [both, e12],
                    [tuple(2 * c for c in e13), both]]
        results = [build_n1(sl3, Subalgebra(sl3, b), par) for b in variants]
        assert all(w.gamma == 3 for w in results)
        first = results[0]
        assert all(w.n1.same_span(first.n1) for w in results)

    def test_witness_projection_roundtrip(self, sl2, sl2_witness):
        w = sl2_witness
        h, e, f = (sl2.basis_vector(i) for i in range(3))
        assert w.project_v(e) == vec([0, 0, 0])
        assert w.project_v(f) == f
        mixed = tuple(a + 2 * b for a, b in zip(h, e))
        assert w.project_v(mixed) == h
        for u in (h, e, f, mixed):
            assert w.project_v(w.project_v(u)) == w.project_v(u)

    def test_assumption_recorded(self, sl2_witness):
        assert any("infinity" in a for a in sl2_witness.assumptions)


class TestDecayWitnessValidation:
    def test_wrong_gamma_rejected(self, sl3, sl3_parabolic):
        h = builders.sl3_e12(sl3)
        with pytest.raises(InvariantViolation):
            DecayWitness(sl3, h, sl3_parabolic, [sl3.basis_vector(3)],
                         builders.sl3_flag_parabolic()["l0"], gamma=4)

    def test_n1_must_be_proper(self, sl3, sl3_parabolic):
        h = builders.sl3_e12(sl3)
        with pytest.raises(InvariantViolation):
            DecayWitness(sl3, h, sl3_parabolic,
                         [sl3.basis_vector(2), sl3.basis_vector(3)],
                         builders.sl3_flag_parabolic()["l0"], gamma=0)


def _float_growth(w, t):
    """|M_t| / |M_0| in floats, M_t = Ad(a_t) pi_v Ad(a_t)^{-1}.

    pi_v is taken exactly in the ad-x eigenbasis before the switch to
    floats, so an entry that is zero stays zero at every t.
    """
    g = w.algebra
    grading = grading_of(g, w.parabolic.x)
    c = RatMat.from_cols([b for part in grading.parts.values() for b in part.basis])
    pi_v = RatMat.from_cols([w.project_v(g.basis_vector(i)) for i in range(g.dim)])
    c_inv = c.inverse()
    b = to_floats(c_inv @ pi_v @ c)
    c_f, c_inv_f = to_floats(c), to_floats(c_inv)
    lams = np.array([float(lam) for lam, part in grading.parts.items() for _ in part.basis])

    def norm(s):
        scale = np.exp(s * lams)
        return np.linalg.norm(c_f @ (scale[:, None] * b / scale[None, :]) @ c_inv_f, 2)

    return norm(t) / norm(0.0)


class TestMtBounded:
    def test_sl2_witness_bounded(self, sl2_witness):
        assert check_mt_bounded(sl2_witness)

    def test_sl3_witness_bounded(self, sl3_witness):
        assert check_mt_bounded(sl3_witness)

    def test_descending_choice_bounded(self, sl3):
        par = borel_parabolic(sl3)
        e12, e13, e23 = (sl3.basis_vector(i) for i in (2, 3, 4))
        h = Subalgebra(sl3, [tuple(a + b for a, b in zip(e12, e13))])
        w = build_n1(sl3, h, par)
        assert w.gamma == 1
        assert w.n1.same_span(Subspace(sl3, [e13, e23]))
        assert check_mt_bounded(w)

    def test_ascending_choice_unbounded(self, sl3):
        # same h, but the complement keeps the low eigenvalue vector:
        # projecting the level-2 component of h hits level 1, which the
        # conjugated projection blows up on
        par = borel_parabolic(sl3)
        e12, e13, e23 = (sl3.basis_vector(i) for i in (2, 3, 4))
        h = Subalgebra(sl3, [tuple(a + b for a, b in zip(e12, e13))])
        bad = DecayWitness(sl3, h, par, n1=[e12, e23],
                           l1=[sl3.basis_vector(0), sl3.basis_vector(1)],
                           gamma=2)
        assert not check_mt_bounded(bad)

    def test_decaying_head_is_bounded(self, sl3):
        # the norm of M_t falls from 3.32 at t = 0 to sqrt(2) and stays
        # there; a test against the deepest samples alone would reject it
        par = borel_parabolic(sl3)
        e12, e13 = sl3.basis_vector(2), sl3.basis_vector(3)
        h = Subalgebra(sl3, [vec([0, 0, -1, 3, -1, 0, 0, 0])])  # -E12 + 3E13 - E23
        w = build_n1(sl3, h, par)
        assert w.gamma == 1
        assert w.n1.same_span(Subspace(sl3, [e12, e13]))
        assert check_mt_bounded(w)

    @pytest.mark.parametrize("x", [vec([1, 1, 0, 0, 0, 0, 0, 0]),   # diag(1, 0, -1)
                                   vec([2, 3, 0, 0, 0, 0, 0, 0])])  # diag(2, 1, -3)
    def test_matches_float_growth(self, sl3, x):
        # every admissible (n1, l1) from the n0 eigenbasis and the l0
        # basis, for seeded random h in p0: the verdict is False exactly
        # when |M_-30| / |M_0| exceeds 1e6 in floats
        par = borel_parabolic(sl3, x)
        lams = [lam for lam, basis in par.n0_eigen.items() for _ in basis]
        eigvecs = [b for basis in par.n0_eigen.values() for b in basis]
        rng = np.random.default_rng(0)
        subalgebras = []
        for _ in range(20):
            y = [int(c) for c in rng.integers(-2, 3, size=5)]
            # span(y), its n0 part alone, and that part beside E13
            for basis in ([y], [[0, 0] + y[2:]], [[0, 0] + y[2:], [0, 0, 0, 1, 0]]):
                basis = [vec(b + [0, 0, 0]) for b in basis]
                if len(pivot_indices(basis)) == len(basis):
                    subalgebras.append(Subalgebra(sl3, basis))
        verdicts = []
        for h in subalgebras:
            for picks in itertools.product((0, 1), repeat=3):
                if sum(picks) == 3:
                    continue
                n1 = [b for b, keep in zip(eigvecs, picks) if keep]
                gamma = par.n0_trace - sum(lam for lam, keep in zip(lams, picks) if keep)
                for l1 in ([], [par.l0.basis[0]], [par.l0.basis[1]], list(par.l0.basis)):
                    try:
                        w = DecayWitness(sl3, h, par, n1, l1, gamma)
                    except InvariantViolation:
                        continue
                    bounded = check_mt_bounded(w)
                    assert bounded == (_float_growth(w, -30.0) <= 1e6), (h.basis, picks, l1)
                    verdicts.append(bounded)
        assert True in verdicts and False in verdicts


class TestBetaMap:
    def test_defining_identity(self, sl2):
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(5)
        for _ in range(5):
            t = vec([F(int(c), 8) for c in rng.integers(-20, 20, size=3)])
            ad_t = to_floats(sl2.ad(t))
            lhs = beta_series(ad_t) @ ad_t
            rhs = np.eye(3) - expm(-ad_t)
            assert np.allclose(lhs, rhs, atol=1e-10)


class TestJacobianSandwich:
    def test_true_gamma_flat(self, sl2_witness):
        ratio, recs = phi_jacobian_sandwich(sl2_witness, q_box=0.1,
                                            samples=400, seed=7)
        assert ratio <= 10
        assert len(recs) == 9
        assert recs[0]["t"] == 0.0

    def test_corrupted_gamma_blows_up(self, sl2_witness):
        ratio, _ = phi_jacobian_sandwich(sl2_witness, q_box=0.1, samples=400,
                                         seed=7,
                                         claimed_gamma=sl2_witness.gamma + 1)
        assert ratio > 100

    def test_deterministic(self, sl2_witness):
        r1, recs1 = phi_jacobian_sandwich(sl2_witness, samples=300, seed=11)
        r2, recs2 = phi_jacobian_sandwich(sl2_witness, samples=300, seed=11)
        assert r1 == r2
        assert recs1 == recs2


class TestUnipotentWitness:
    def test_sl2_direct(self, sl2, sl2_subs):
        w = unipotent_witness(sl2, sl2_subs["n"])
        assert w.gamma == 2
        assert not w.averaged
        assert w.x == sl2.basis_vector(0)

    def test_auto_falls_back_to_triple(self, sl3):
        # the search goes through the sl2-triple of a central vector;
        # diag(1,-1,0) normalizes span(E12, E13) with eigenvalues 2 and 1
        n = Subalgebra(sl3, [sl3.basis_vector(2), sl3.basis_vector(3)])
        w = unipotent_witness(sl3, n)
        assert not w.averaged
        assert w.gamma == 3
        assert w.x == sl3.basis_vector(0)

    def test_rate_is_log_derivative_of_jacobian(self, sl3):
        # det Ad(exp(tx))|_n = e^{t gamma}: check at t = 1 in floats
        expm = pytest.importorskip("scipy.linalg").expm
        n = Subalgebra(sl3, [sl3.basis_vector(2), sl3.basis_vector(3)])
        w = unipotent_witness(sl3, n)
        assert w.x == sl3.basis_vector(0)
        assert w.gamma == 3
        ad_n = to_floats(n.restriction_matrix(sl3.ad(w.x)))
        det = np.linalg.det(expm(ad_n))
        assert abs(det - np.exp(float(w.gamma))) < 1e-9

    def test_sl5_averaged(self, sl5):
        pair = builders.sl5_nilpotent_pair(sl5)
        w = unipotent_witness(sl5, pair)
        assert w.averaged
        assert w.gamma == 2
        assert w.n1.basis == (pair.basis[0],)
        diag = [4, 2, 0, -2, -4]
        realized = sl5.realize(w.x)
        assert all(realized.rows[i][i] == diag[i] for i in range(5))

    def test_non_nilpotent_rejected(self, sl2, sl2_subs):
        with pytest.raises(NotNilpotent):
            unipotent_witness(sl2, sl2_subs["borel"])
        with pytest.raises(NotNilpotent):
            unipotent_witness(sl2, Subalgebra(sl2, []))


class TestLowerBound:
    def test_so11_cosh_rate(self, sl2, sl2_subs):
        cart = default_cartan(sl2)
        x = vec([0, 1, 1])  # E + F
        cert = predict_lower_bound(sl2, sl2_subs["so11"], cart, x)
        assert cert.lam == -2
        assert cert.cosh_exponent == 2
        assert cert.eigenvalues == [F(2), F(0)]
        assert cert.vx.basis[0] == vec([1, -1, 1])

    def test_so2_cosh_rate(self, sl2, sl2_subs):
        cart = default_cartan(sl2)
        cert = predict_lower_bound(sl2, sl2_subs["so2"], cart, sl2.basis_vector(0))
        assert cert.cosh_exponent == 2
        assert [b for b in cert.vx.basis] == [sl2.basis_vector(1),
                                              sl2.basis_vector(0)]

    def test_zero_direction(self, sl2, sl2_subs):
        cart = default_cartan(sl2)
        cert = predict_lower_bound(sl2, sl2_subs["so2"], cart, vec([0, 0, 0]))
        assert cert.lam == 0
        assert cert.cosh_exponent == 0

    def test_direction_must_flip(self, sl2, sl2_subs):
        cart = default_cartan(sl2)
        with pytest.raises(InputError):
            predict_lower_bound(sl2, sl2_subs["so2"], cart, sl2.basis_vector(1))

    def test_direction_must_be_orthogonal(self, sl2, sl2_subs):
        cart = default_cartan(sl2)
        with pytest.raises(InputError):
            predict_lower_bound(sl2, sl2_subs["so11"], cart, sl2.basis_vector(0))


class TestSymmetricExponent:
    def test_sl2_so2(self, sl2, sl2_subs):
        u = Subspace(sl2, [sl2.basis_vector(1)])
        assert predict_symmetric_exponent(sl2, sl2_subs["so2"], u,
                                          sl2.basis_vector(0)) == 2

    def test_sl2_so11(self, sl2, sl2_subs):
        # the adapted nilradical is the +2 eigenline of ad(E+F)
        u = Subspace(sl2, [vec([1, -1, 1])])
        assert predict_symmetric_exponent(sl2, sl2_subs["so11"], u,
                                          vec([0, 1, 1])) == 2

    def test_sl3_so3(self, sl3):
        so3 = builders.sl3_so3(sl3)
        u = Subspace(sl3, [sl3.basis_vector(i) for i in (2, 3, 4)])
        x = vec([1, 1, 0, 0, 0, 0, 0, 0])  # diag(1, 0, -1)
        assert predict_symmetric_exponent(sl3, so3, u, x) == 4

    def test_not_symmetric(self, sl3):
        h = Subalgebra(sl3, [sl3.basis_vector(0)])
        u = Subspace(sl3, [sl3.basis_vector(2)])
        with pytest.raises(InputError, match="not symmetric"):
            predict_symmetric_exponent(sl3, h, u, sl3.basis_vector(0))
