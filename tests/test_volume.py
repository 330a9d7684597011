"""Volume estimator tests: membership geometry, frozen Monte Carlo
values, determinism, and the fitting/counterexample helpers."""

import math
import os

import numpy as np
import pytest

from float_checks import chi_partial
from vaikit import volume
from vaikit.errors import EmptyBox, InputError, TooFewPoints
from vaikit.volume import (
    ConeModel,
    HyperboloidModel,
    PlaneModel,
    SPD2Model,
    VolumeSeries,
    _quartic_roots,
    estimate_volume,
    fit_log_slope,
    get_model,
    volume_along_curve,
)

R03 = 0.3


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def random_ball_element(rng, radius):
    """A det-1 matrix g with ||g - 1||_F <= radius, by rejection."""
    while True:
        d = rng.uniform(-radius, radius, size=3)
        a, b, c = 1.0 + d[0], d[1], d[2]
        if abs(a) < 1e-9:
            continue
        g = np.array([[a, b], [c, (1.0 + b * c) / a]])
        if np.linalg.norm(g - np.eye(2)) <= radius:
            return g


def _real_roots(*quartic):
    """Real roots (N, 4) of batched quartics, non-real ones nan: the eigvals
    roots whose imaginary part is within 1e-8 of their size."""
    roots = _quartic_roots(*quartic)
    real = np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots.real))
    return np.where(real, roots.real, np.nan)


def _angle_minimum(k0, p2, q2, p1, q1):
    """Global minimum over phi of the trig polynomial, per sample: the
    eigvals roots of the angle quartic under the trig form of f."""
    roots = _real_roots(*SPD2Model._angle_quartic(p2, q2, p1, q1))
    phi = 2.0 * np.arctan(np.where(np.isnan(roots), 0.0, roots))
    vals = (k0[:, None] + p2[:, None] * np.cos(2.0 * phi)
            + q2[:, None] * np.sin(2.0 * phi)
            + p1[:, None] * np.cos(phi) + q1[:, None] * np.sin(phi))
    vals = np.where(np.isnan(roots), np.inf, vals)
    at_pi = k0 + p2 - p1
    return np.minimum(vals.min(axis=1), at_pi)


def _min_distance(z, coords):
    return _angle_minimum(*SPD2Model()._angle_coefficients(z, coords))


def _sign_minimum(sign, roots, p_co, q_co, r_co, tr_g, tr_h):
    """Minimum over the critical points u = e^s among `roots` of the
    sign component."""
    ok_root = ~np.isnan(roots) & (roots > 0.0)
    s = np.log(np.where(ok_root, roots, 1.0))
    vals = (p_co[:, None] * np.cosh(2.0 * s)
            + q_co[:, None] * np.sinh(2.0 * s) + r_co[:, None]
            - 2.0 * sign * (tr_g[:, None] * np.cosh(s)
                            + tr_h[:, None] * np.sinh(s)))
    return np.where(ok_root, vals, np.inf).min(axis=1)


def _two_solve_minimum(coefs):
    """The hyperboloid minimum over both components, one quartic solve
    in u = e^s each, under the cosh/sinh form of f."""
    p_co, q_co, r_co, tr_g, tr_h = coefs
    plus, minus = (
        _sign_minimum(
            sign, _real_roots(p_co + q_co, -sign * (tr_g + tr_h), np.zeros_like(p_co),
                              sign * (tr_g - tr_h), q_co - p_co),
            *coefs) for sign in (1.0, -1.0))
    return np.minimum(plus, minus)


def _eigvals_minimum(model, quartic, coefs):
    """The minimum of the model's own `_distance` at the eigvals roots of
    its quartic, a non-finite value counting as +inf."""
    with np.errstate(all="ignore"):
        vals = model._distance(_real_roots(*quartic).T, *coefs)
    return np.where(np.isfinite(vals), vals, np.inf).min(axis=0)


class TestPlaneModel:
    model = PlaneModel()

    def test_membership_identity(self):
        z = np.array([1.0, 0.0])
        for r in (0.01, 0.3, 1.0):
            assert self.model.membership(z, z, r)

    def test_membership_symmetric(self):
        rng = np.random.default_rng(5)
        z = np.array([0.7, -0.4])
        for _ in range(50):
            w = z + rng.uniform(-0.5, 0.5, size=2)
            assert (self.model.membership(z, w, R03)
                    == self.model.membership(w, z, R03))

    def test_ball_images_are_members(self):
        rng = np.random.default_rng(6)
        z = np.array([0.8, 0.5])
        for _ in range(200):
            g = random_ball_element(rng, R03)
            assert self.model.membership(z, self.model.apply(g, z), R03)

    def test_known_non_member(self):
        assert not self.model.membership(np.array([1.0, 0.0]),
                                         np.array([2.0, 0.0]), R03)

    def test_origin_never_member(self):
        assert not self.model.membership(np.array([1.0, 0.0]),
                                         np.array([0.0, 0.0]), R03)

    def test_empty_box_at_origin(self):
        with pytest.raises(EmptyBox):
            self.model.chart_box(np.array([0.0, 0.0]), R03)

    def test_estimate_matches_high_resolution_oracle(self):
        # oracle frozen from a 1e7-sample run, seed 1234
        oracle, oracle_err = 0.200012976, 0.0001574844420479761
        est, err = estimate_volume(self.model, self.model.base_point(),
                                   R03, 100_000, 42)
        assert est == pytest.approx(0.2013696)
        assert abs(est - oracle) < 3.0 * (err + oracle_err)

    def test_scaling_law_exact(self):
        # the action is linear, so vol(B.(e^-2)z) = e^-4 vol(B.z); the
        # substreams coincide, making the ratio exact to float noise
        base, _ = estimate_volume(self.model, np.array([1.0, 0.0]),
                                  R03, 100_000, 42)
        scaled, _ = estimate_volume(self.model,
                                    np.array([math.exp(-2.0), 0.0]),
                                    R03, 100_000, 42)
        assert scaled / base == pytest.approx(math.exp(-4.0), rel=1e-9)

    def test_slope_matches_decay_rate(self):
        grid = [-4.0, -3.5, -3.0, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0]
        series = volume_along_curve(self.model, grid, R03, 100_000, 42)
        assert series.slope == pytest.approx(2.0009153636594488)
        assert abs(series.slope - 2.0) < 0.2

    def test_reslicing_grid_keeps_point_values(self):
        full = volume_along_curve(self.model, [-1.0, -0.5, 0.0, 0.5],
                                  R03, 20_000, 9)
        est0, _ = estimate_volume(self.model, self.model.curve(-1.0),
                                  R03, 20_000, 9, point_index=0)
        est2, _ = estimate_volume(self.model, self.model.curve(0.0),
                                  R03, 20_000, 9, point_index=2)
        assert full.estimates[0] == est0
        assert full.estimates[2] == est2


class TestSPD2Model:
    model = SPD2Model()

    def test_membership_identity_everywhere_on_curve(self):
        for t in (0.0, 1.0, 2.5, 4.0):
            z = self.model.curve(t)
            assert self.model.membership(z, z, R03)

    def test_ball_images_are_members(self):
        rng = np.random.default_rng(7)
        for t in (0.0, 1.5, 3.0):
            z = self.model.curve(t)
            for _ in range(60):
                g = random_ball_element(rng, R03)
                assert self.model.membership(z, self.model.apply(g, z), R03)

    def test_far_point_not_member(self):
        z = self.model.base_point()
        w = self.model.curve(1.0)  # diag(e^2, e^-2), far outside B_0.3
        assert not self.model.membership(z, w, R03)

    def test_angle_minimization_dominates_dense_grid(self):
        # a dense grid certifies hits but can miss razor-thin valleys,
        # so the sound comparison is one-sided: the quartic global
        # minimum must sit at or below every grid evaluation
        z = self.model.curve(2.0)
        lo, hi = self.model.chart_box(z, R03)
        rng = np.random.default_rng(123)
        coords = rng.uniform(lo, hi, size=(3000, 2))
        mine_val = _min_distance(z, coords)

        p = np.asarray(z, float)
        p_inv = np.linalg.inv(self.model._sqrt_spd(p))
        big_p_inv = np.linalg.inv(p)
        beta = (big_p_inv[0, 0] + big_p_inv[1, 1]) / 2.0
        b1, b2 = big_p_inv[0, 0] - beta, big_p_inv[0, 1]
        u, tau = coords[:, 0], coords[:, 1]
        w22 = np.exp(tau)
        w11 = (1.0 + u * u) / w22
        alpha = (w11 + w22) / 2.0
        a1, a2 = (w11 - w22) / 2.0, u
        s = np.sqrt(w11 + w22 + 2.0)
        q11, q12, q22 = (w11 + 1.0) / s, u / s, (w22 + 1.0) / s
        c11 = p_inv[0, 0] * q11 + p_inv[0, 1] * q12
        c12 = p_inv[0, 0] * q12 + p_inv[0, 1] * q22
        c21 = p_inv[1, 0] * q11 + p_inv[1, 1] * q12
        c22 = p_inv[1, 0] * q12 + p_inv[1, 1] * q22
        k0 = 2.0 * alpha * beta + 2.0
        p2, q2 = 2.0 * (a1 * b1 + a2 * b2), 2.0 * (a2 * b1 - a1 * b2)
        p1, q1 = -2.0 * (c11 + c22), -2.0 * (c12 - c21)
        best = np.full(len(coords), np.inf)
        phis = np.linspace(0.0, 2.0 * np.pi, 4097)[:-1]
        for lo_i in range(0, 4096, 1024):
            ph = phis[lo_i:lo_i + 1024]
            vals = (k0[:, None] + np.outer(p2, np.cos(2 * ph))
                    + np.outer(q2, np.sin(2 * ph))
                    + np.outer(p1, np.cos(ph)) + np.outer(q1, np.sin(ph)))
            best = np.minimum(best, vals.min(axis=1))
        assert (mine_val <= best + 1e-7 * (1.0 + np.abs(best))).all()
        # every grid-certified hit is found
        assert ((mine_val <= R03 * R03) | (best > R03 * R03)).all()

    @pytest.mark.parametrize("t", [0.0, 2.0, 4.0])
    def test_floor_keeps_every_decision(self, t):
        # membership skips the root solve where the coefficient floor
        # already proves a miss; no decision may change
        z = self.model.curve(t)
        lo, hi = self.model.chart_box(z, R03)
        coords = np.random.default_rng(31).uniform(lo, hi, size=(16384, 2))
        mins = _min_distance(z, coords)
        hits = self.model.membership_chart(z, coords, R03)
        assert (hits == (mins <= R03 * R03)).all()
        assert hits.any()

        k0, p2, q2, p1, q1 = self.model._angle_coefficients(z, coords)
        amp2, amp1 = np.hypot(p2, q2), np.hypot(p1, q1)
        size = np.abs(k0) + amp2 + amp1
        floor = k0 - amp2 - amp1
        assert (mins >= floor - 1e-12 * size).all()
        rejected = floor > R03 * R03 + 1e-9 * size
        assert rejected.any()
        assert (mins[rejected] > R03 * R03).all()

    @pytest.mark.parametrize("t", [0.0, 2.0, 4.0, 6.0, 8.0])
    def test_membership_matches_the_eigvals_reference(self, t):
        # membership must decide as the eigvals real roots under the trig
        # form of f.  At t = 8 the trig and rational forms of f split on a
        # few samples and neither is ground truth, so there the reference
        # takes those roots under the model's own `_distance`
        z = self.model.curve(t)
        lo, hi = self.model.chart_box(z, R03)
        coords = np.random.default_rng(43).uniform(lo, hi, size=(16384, 2))
        if t < 8.0:
            mins = _min_distance(z, coords)
        else:
            k0, p2, q2, p1, q1 = coefs = self.model._angle_coefficients(z, coords)
            mins = np.minimum(_eigvals_minimum(
                self.model, self.model._angle_quartic(p2, q2, p1, q1), coefs), k0 + p2 - p1)
        reference = mins <= R03 * R03
        assert reference.any()
        assert (self.model.membership_chart(z, coords, R03)
                == reference).all()

    def test_estimate_at_identity_frozen(self):
        est, err = estimate_volume(self.model, self.model.base_point(),
                                   R03, 100_000, 42)
        assert est == pytest.approx(0.5619415079796671)
        # 1e6-sample oracle, seed 1234
        assert abs(est - 0.5579127512882227) < 3.0 * (err + 0.0012630023883005716)

    def test_growth_slope_in_band(self):
        grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        series = volume_along_curve(self.model, grid, R03, 100_000, 42)
        assert series.slope == pytest.approx(1.9555720316218266, rel=1e-9)
        assert abs(series.slope - 2.0) < 0.2
        assert min(series.estimates) >= 0.5 * series.estimates[0]


class TestConeModel:
    model = ConeModel()

    def test_lift_roundtrip(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            z = rng.normal(size=2)
            x = np.array([-z[0] * z[1], z[0] ** 2, -z[1] ** 2])
            lift = self.model._lift(x)
            back = np.array([-lift[0] * lift[1], lift[0] ** 2, -lift[1] ** 2])
            assert np.allclose(back, x, atol=1e-12)

    def test_apply_is_conjugation_equivariant(self):
        rng = np.random.default_rng(9)
        z = np.array([0.3, 0.9, -0.1])
        g = random_ball_element(rng, 0.8)
        moved = self.model.apply(g, z)
        # a^2 + bc = 0 is preserved
        assert moved[0] ** 2 + moved[1] * moved[2] == pytest.approx(0.0, abs=1e-12)

    def test_base_volume_equals_plane_volume(self):
        ec, _ = estimate_volume(self.model, self.model.base_point(),
                                R03, 100_000, 42)
        ep, _ = estimate_volume(PlaneModel(), PlaneModel().base_point(),
                                R03, 100_000, 42)
        assert ec == ep

    def test_slope_toward_apex(self):
        grid = [-4.0, -3.5, -3.0, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0]
        series = volume_along_curve(self.model, grid, R03, 100_000, 42)
        assert abs(series.slope - 2.0) < 0.3

    def test_membership_identity(self):
        for t in (-2.0, 0.0):
            z = self.model.curve(t)
            assert self.model.membership(z, z, R03)


class TestHyperboloidModel:
    model = HyperboloidModel()

    def test_chart_roundtrip(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            psi, delta = rng.uniform(-math.pi, math.pi), rng.normal() * 2.0
            pt = self.model.from_chart(np.array([[psi, delta]]))[0]
            assert pt[0] ** 2 + pt[1] * pt[2] == pytest.approx(1.0)
            back = self.model.to_chart(pt)
            assert back[0] == pytest.approx(psi)
            assert back[1] == pytest.approx(delta)

    def test_membership_identity(self):
        for t in (0.0, 1.0, 2.0):
            z = self.model.curve(t)
            assert self.model.membership(z, z, R03)

    def test_ball_images_are_members(self):
        rng = np.random.default_rng(11)
        for t in (0.0, 1.0, 2.0):
            z = self.model.curve(t)
            for _ in range(60):
                g = random_ball_element(rng, R03)
                assert self.model.membership(z, self.model.apply(g, z), R03)

    def test_stabilizer_direction_fixes_base_point(self):
        z = self.model.base_point()
        g = np.diag([math.exp(0.8), math.exp(-0.8)])
        assert np.allclose(self.model.apply(g, z), z)

    def test_rotation_moves_base_point_off_ball(self):
        z = self.model.base_point()
        assert not self.model.membership(z, self.model.apply(rotation(0.4), z),
                                         R03)
        assert self.model.membership(z, self.model.apply(rotation(0.1), z),
                                     R03)

    @pytest.mark.parametrize("t", [0.0, 2.0, 4.0])
    def test_single_solve_keeps_every_decision(self, t):
        z = self.model.curve(t)
        lo, hi = self.model.chart_box(z, R03)
        coords = np.random.default_rng(37).uniform(lo, hi, size=(16384, 2))
        coefs, good = self.model._stabilizer_coefficients(
            z, self.model.from_chart(coords))
        # reference: one quartic per sign component of the stabilizer
        best = _two_solve_minimum(coefs)
        reference = good & (best <= R03 * R03)
        assert reference.any()
        assert (self.model.membership_chart(z, coords, R03) == reference).all()

    @pytest.mark.parametrize("t", [0.0, 2.0, 4.0, 6.0, 8.0])
    def test_membership_matches_the_eigvals_reference(self, t):
        # membership must decide as the eigvals real roots of one companion
        # solve per sign component, or at t = 8, where the cosh/sinh and x
        # forms of f split and neither is ground truth, of one solve under
        # the model's own `_distance`
        z = self.model.curve(t)
        lo, hi = self.model.chart_box(z, R03)
        coords = np.random.default_rng(41).uniform(lo, hi, size=(16384, 2))
        coefs, good = self.model._stabilizer_coefficients(
            z, self.model.from_chart(coords))
        if t < 8.0:
            mins = _two_solve_minimum(coefs)
        else:
            mins = _eigvals_minimum(self.model, self.model._stabilizer_quartic(*coefs), coefs)
        reference = good & (mins <= R03 * R03)
        assert reference.any()
        assert (self.model.membership_chart(z, coords, R03)
                == reference).all()

    def test_negative_roots_decide_the_minus_component(self):
        # around the waist point (0, -1, -1) the eigenvector branch flips
        # the sign of g0 where a < 0, so many hits lie on the -1 component
        # of the stabilizer, where the one quartic's roots are negative
        z = np.array([0.0, -1.0, -1.0])
        lo, hi = self.model.chart_box(z, R03)
        coords = np.random.default_rng(37).uniform(lo, hi, size=(16384, 2))
        coefs, good = self.model._stabilizer_coefficients(
            z, self.model.from_chart(coords))
        hits = self.model.membership_chart(z, coords, R03)
        assert (hits == (good & (_two_solve_minimum(coefs) <= R03 * R03))).all()
        roots = _real_roots(*self.model._stabilizer_quartic(*coefs))
        plus = _sign_minimum(1.0, roots, *coefs)
        assert (hits & (plus > R03 * R03)).sum() > 1000

    def test_float_range_is_declared(self):
        assert self.model.membership(self.model.curve(8.3),
                                     self.model.curve(8.3), R03)
        with pytest.raises(EmptyBox, match="float range"):
            self.model.membership(self.model.curve(8.4),
                                  self.model.curve(8.4), R03)

    def test_estimate_frozen(self):
        est, err = estimate_volume(self.model, self.model.base_point(),
                                   R03, 100_000, 42)
        assert est == pytest.approx(0.5766048)
        # 1e6-sample oracle, seed 1234
        assert abs(est - 0.57345408) < 3.0 * (err + 0.0011500861570036191)

    def test_rotation_invariance_across_waist(self):
        # rotations preserve the Frobenius ball, so patch volume is
        # unchanged even when the point crosses to negative a
        z = self.model.curve(1.0)
        base, se = estimate_volume(self.model, z, R03, 50_000, 7)
        for theta in (0.7, 1.2):
            moved = self.model.apply(rotation(theta), z)
            est, err = estimate_volume(self.model, moved, R03, 50_000, 11)
            assert abs(est - base) < 3.0 * (err + se)

    def test_volume_grows_along_curve(self):
        series = volume_along_curve(self.model,
                                    [0.0, 0.5, 1.0, 1.5, 2.0],
                                    R03, 20_000, 42)
        assert min(series.estimates) >= 0.5 * series.estimates[0]
        assert series.estimates[-1] > series.estimates[0]


@pytest.mark.parametrize("t", [0.0, 2.0, 4.0, 6.0, 8.0])
@pytest.mark.parametrize("model", [SPD2Model(), HyperboloidModel()], ids=["spd2", "hyperboloid"])
def test_conic_bounds_enclose_the_minimum(model, t, monkeypatch):
    # floor <= min <= ceiling on every seeded chart sample, against the
    # eigvals references; up to t = 4 the bounds decide all but at most 5%
    # of the samples, so a silent fall-back to the quartic fails here
    z = model.curve(t)
    lo, hi = model.chart_box(z, R03)
    coords = np.random.default_rng(47).uniform(lo, hi, size=(16384, 2))
    if isinstance(model, SPD2Model):
        coefs = model._angle_coefficients(z, coords)
        mins = _min_distance(z, coords)
    else:
        coefs, _ = model._stabilizer_coefficients(z, model.from_chart(coords))
        mins = _two_solve_minimum(coefs)
    floor, ceiling = model._bounds(*coefs)
    assert (floor <= mins).all()
    assert (mins <= ceiling).all()
    reached = []
    quartic_minimum = volume._quartic_minimum
    monkeypatch.setattr(volume, "_quartic_minimum",
                        lambda quartic, *rest: reached.append(len(quartic[0]))
                        or quartic_minimum(quartic, *rest))
    model.membership_chart(z, coords, R03)
    assert len(reached) == 1
    if t <= 4.0:
        assert reached[0] <= 0.05 * len(coords)


def _in_box(lo, hi, c):
    return bool(np.all(lo <= c) and np.all(c <= hi))


@pytest.mark.parametrize("model, edge, beyond", [
    (SPD2Model(), 0.999, 1.0), (HyperboloidModel(), 1.2, 1.21), (ConeModel(), 0.5, 0.51)],
    ids=["spd2", "hyperboloid", "cone"])
@pytest.mark.parametrize("t", [0.0, 2.0])
def test_ball_images_stay_in_the_box_at_the_radius_edge(model, edge, beyond, t):
    # at the edge of each model's radius domain the chart box still holds
    # every ball image (the cone's: exactly one of its two lifts), and past
    # the edge chart_box refuses
    z = model.curve(-t if isinstance(model, ConeModel) else t)
    lo, hi = model.chart_box(z, edge)
    rng = np.random.default_rng(61)
    for _ in range(2000):
        w = model.apply(random_ball_element(rng, edge), z)
        if isinstance(model, ConeModel):
            lift = model._lift(w)
            assert _in_box(lo, hi, lift) != _in_box(lo, hi, -lift)
        else:
            c = model.to_chart(w)
            if isinstance(model, HyperboloidModel):  # psi is an angle
                c[0] += 2.0 * math.pi * np.floor((hi[0] - c[0]) / (2.0 * math.pi))
            assert _in_box(lo, hi, c)
    with pytest.raises(InputError, match="radius domain"):
        model.chart_box(z, beyond)


def _mp_real_minimum(mp, quartic, f, extra=()):
    """Least f over the real parts of the roots of `quartic` (highest
    coefficient first) and the points `extra`; every candidate is a real
    point, so this is the exact minimum to working precision."""
    top = max(abs(c) for c in quartic)
    while abs(quartic[0]) < mp.mpf(10) ** -60 * top:  # a root at infinity
        quartic = quartic[1:]
    roots = mp.polyroots(quartic, maxsteps=200, extraprec=300)
    return min(f(mp.re(x)) for x in [*roots, *extra])


def _mp_spd2_minimum(mp, t, coord):
    """min over phi of ||q R(phi) p^{-1} - 1||_F^2 for the curve point at t
    and the chart point (u, tau), its trig coefficients taken by a 5-point
    DFT of the matrix form."""
    eye = mp.eye(2)
    p = mp.diag([mp.exp(2 * t), mp.exp(-2 * t)])
    p_inv = ((p + eye) / mp.sqrt(p[0, 0] + p[1, 1] + 2)) ** -1
    u, tau = (mp.mpf(float(c)) for c in coord)
    w = mp.matrix([[(1 + u * u) / mp.exp(tau), u], [u, mp.exp(tau)]])
    q = (w + eye) / mp.sqrt(w[0, 0] + w[1, 1] + 2)

    def f(phi):
        rot = mp.matrix([[mp.cos(phi), -mp.sin(phi)], [mp.sin(phi), mp.cos(phi)]])
        return mp.norm(q * rot * p_inv - eye, 2) ** 2

    phis = [2 * mp.pi * j / 5 for j in range(5)]
    vals = [f(phi) for phi in phis]
    p2, q2, p1, q1 = (2 * mp.fsum(v * trig(k * phi) for v, phi in zip(vals, phis)) / 5
                      for k, trig in ((2, mp.cos), (2, mp.sin), (1, mp.cos), (1, mp.sin)))
    return _mp_real_minimum(mp, list(SPD2Model._angle_quartic(p2, q2, p1, q1)),
                            lambda x: f(2 * mp.atan(x)), extra=[mp.inf])


def _mp_hyperboloid_minimum(mp, t, coord):
    """min over s and both signs of ||+-g0 exp(s X_z) - 1||_F^2 for the
    curve point at t and the chart point (psi, delta)."""
    eye = mp.eye(2)

    def diagonalizer(x):
        # columns: eigenvectors of x (x^2 = 1) for +1 and -1, det 1
        cols = []
        for m in (eye + x, eye - x):
            j = 0 if mp.norm(m.column(0)) >= mp.norm(m.column(1)) else 1
            cols.append(m.column(j))
        d = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
        if d < 0:
            cols[1], d = -cols[1], -d
        return mp.matrix([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]]) / mp.sqrt(d)

    x_z = mp.matrix([[mp.cosh(2 * t), -mp.sinh(2 * t)], [mp.sinh(2 * t), -mp.cosh(2 * t)]])
    psi, delta = (mp.mpf(float(c)) for c in coord)
    rho = mp.sqrt(1 + delta * delta)
    a, beta = rho * mp.cos(psi), rho * mp.sin(psi)
    x_w = mp.matrix([[a, beta + delta], [beta - delta, -a]])
    g = diagonalizer(x_w) * diagonalizer(x_z) ** -1
    h = g * x_z

    def f(x):  # x = +-e^s on the +-1 component
        if x == 0:
            return mp.inf
        s = mp.log(abs(x))
        return mp.norm(mp.sign(x) * (mp.cosh(s) * g + mp.sinh(s) * h) - eye, 2) ** 2

    def trace(m):
        return m[0, 0] + m[1, 1]

    # f = |g+h|^2 x^2 / 4 - tr(g+h) x + ... - tr(g-h) / x + |g-h|^2 / (4 x^2)
    quartic = [mp.norm(g + h, 2) ** 2 / 2, -trace(g + h), 0, trace(g - h),
               -mp.norm(g - h, 2) ** 2 / 2]
    return _mp_real_minimum(mp, quartic, f)


@pytest.mark.parametrize("t", [0.0, 4.0, 6.0, 7.0])
@pytest.mark.parametrize("model, oracle", [(SPD2Model(), _mp_spd2_minimum),
                                           (HyperboloidModel(), _mp_hyperboloid_minimum)],
                         ids=["spd2", "hyperboloid"])
def test_decisions_nearest_the_boundary_match_an_80_digit_oracle(model, oracle, t):
    # the ten seeded chart samples whose float minimum lies nearest r^2,
    # decided again from the roots of the quartic at 80 digits
    mp = pytest.importorskip("mpmath").mp
    z = model.curve(t)
    lo, hi = model.chart_box(z, R03)
    coords = np.random.default_rng(59).uniform(lo, hi, size=(4096, 2))
    if isinstance(model, SPD2Model):
        coefs = model._angle_coefficients(z, coords)
        mins = _eigvals_minimum(model, model._angle_quartic(*coefs[1:]), coefs)
    else:
        coefs, _ = model._stabilizer_coefficients(z, model.from_chart(coords))
        mins = _eigvals_minimum(model, model._stabilizer_quartic(*coefs), coefs)
    nearest = coords[np.argsort(np.abs(mins - R03 * R03))[:10]]
    with mp.workdps(80):
        exact = [oracle(mp, mp.mpf(t), c) <= mp.mpf(R03) ** 2 for c in nearest]
    assert model.membership_chart(z, nearest, R03).tolist() == exact


def _adversarial_quartics(rng, n=200):
    """family -> (coefficient rows (5, n), the known roots (n, 4), relative
    root tolerance)."""
    def signed(lo, hi, k):
        return rng.uniform(lo, hi, k) * rng.choice([-1.0, 1.0], k)

    def from_roots(make):
        roots = np.array([make() for _ in range(n)], dtype=complex)
        return np.array([np.poly(r).real for r in roots]).T, roots

    def near_double(d):
        def make():
            a = rng.uniform(-3.0, 3.0)
            return [a, a + d, a + rng.uniform(0.5, 2.0),
                    a - rng.uniform(0.5, 2.0)]
        return make

    def complex_pairs():
        z1, z2 = complex(*signed(0.05, 3.0, 2)), complex(*signed(0.05, 3.0, 2))
        return [z1, z1.conjugate(), z2, z2.conjugate()]

    def zero_sum_of_products():
        # three roots of one sign and a fourth that cancels their e2
        three = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0])
        e2 = three[0] * three[1] + three[0] * three[2] + three[1] * three[2]
        return [*three, -e2 / three.sum()]

    families = {f"near-double {d:g}": (*from_roots(near_double(d)), 1e-6)
                for d in (0.0, 1e-10, 1e-7, 1e-4)}
    zero_a2, zero_a2_roots = from_roots(zero_sum_of_products)
    zero_a2[2] = 0.0  # as in the hyperboloid's quartic; a rounding-sized change
    families.update({
        # rounded coefficients fix a root of multiplicity 4 only to about
        # eps^(1/4), for any solver
        "quadruple": (*from_roots(lambda: [rng.uniform(-3.0, 3.0)] * 4), 1e-3),
        # all roots large: |a4| / |a0| near 1e-12, above the nudge of
        # _quartic_roots, which leaves their leading coefficient as it is
        "|a4| << |a0|": (*from_roots(lambda: signed(0.5, 1.5, 4) * 1e3), 1e-6),
        "|a0| << |a4|": (*from_roots(lambda: signed(0.5, 1.5, 4) * 1e-3), 1e-6),
        "zero a2": (zero_a2, zero_a2_roots, 1e-6),
        "all complex": (*from_roots(complex_pairs), 1e-6),
        "1e5 beside 1": (*from_roots(lambda: np.r_[signed(1.0, 5.0, 1) * 1e5,
                                                   signed(0.05, 3.0, 3)]), 1e-6),
        "two 1e5 beside 1": (*from_roots(lambda: np.r_[signed(1.0, 5.0, 2) * 1e5,
                                                       signed(0.05, 3.0, 2)]),
                             1e-6),
    })
    return families


class TestQuarticReferee:
    def test_every_real_root_is_near_a_real_part(self):
        # each known real root lies within the family's relative tolerance
        # of the real part of an eigvals root.  Rounding splits a near-double
        # or quadruple root into a complex pair that keeps its real part, so
        # a mask of the non-real roots would lose it
        for family, (coefs, known, tol) in _adversarial_quartics(
                np.random.default_rng(2024)).items():
            parts = _quartic_roots(*coefs).real
            for i, row in enumerate(known):
                for root in row.real[row.imag == 0.0]:
                    gap = np.abs(parts[i] - root).min()
                    assert gap <= tol * abs(root), (family, i, root, parts[i])


class TestEstimator:
    def test_input_validation(self):
        model = PlaneModel()
        with pytest.raises(InputError):
            estimate_volume(model, model.base_point(), -0.1, 10_000, 0)
        with pytest.raises(InputError):
            estimate_volume(model, model.base_point(), 0.3, 10, 0)
        with pytest.raises(InputError):
            get_model("so3-sphere")

    def test_get_model_names(self):
        for name in ("sl2-mod-n", "spd2", "sl2-orbit-cone",
                     "sl2-orbit-hyperboloid"):
            assert get_model(name).name == name

    def test_estimates_nonnegative_and_errors_finite(self):
        for name in ("sl2-mod-n", "spd2", "sl2-orbit-cone",
                     "sl2-orbit-hyperboloid"):
            model = get_model(name)
            est, err = estimate_volume(model, model.base_point(),
                                       R03, 10_000, 3)
            assert est >= 0.0
            assert math.isfinite(err)

    def test_repeat_call_is_deterministic(self):
        model = SPD2Model()
        a = estimate_volume(model, model.curve(1.0), R03, 30_000, 5)
        b = estimate_volume(model, model.curve(1.0), R03, 30_000, 5)
        assert a == b

    def test_thread_count_does_not_change_bytes(self, monkeypatch):
        """The pool takes one worker per usable CPU, at most one per batch,
        and the CSV is the same at 1 and 4 workers on any host."""
        workers = []

        class RecordingPool(volume.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(volume, "ThreadPoolExecutor", RecordingPool)
        csvs = []
        for cpus in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)), raising=False)
            # five batches per grid point
            csvs.append(volume_along_curve(SPD2Model(), [0.0, 0.5, 1.0],
                                           R03, 70_000, 42).to_csv())
        assert csvs[0] == csvs[1]
        assert workers == [1] * 3 + [4] * 3
        # two batches: two workers, not four
        estimate_volume(SPD2Model(), SPD2Model().curve(0.0), R03, 20_000, 42)
        assert workers[-1] == 2

    def test_rotation_invariance_plane_and_spd2(self):
        for model, z in ((PlaneModel(), np.array([0.5, -0.8])),
                         (SPD2Model(), SPD2Model().curve(1.0))):
            base, se = estimate_volume(model, z, R03, 50_000, 7)
            moved = model.apply(rotation(0.9), z)
            est, err = estimate_volume(model, moved, R03, 50_000, 11)
            assert abs(est - base) < 3.0 * (err + se)

    def test_ball_monotonicity(self):
        for name in ("sl2-mod-n", "spd2", "sl2-orbit-cone",
                     "sl2-orbit-hyperboloid"):
            model = get_model(name)
            z = model.curve(0.5)
            prev = None
            for r in (0.2, 0.3, 0.4):
                est, err = estimate_volume(model, z, r, 30_000, 13)
                if prev is not None:
                    assert prev[0] <= est + 3.0 * (err + prev[1])
                prev = (est, err)

    def test_radius_comparability_is_stable_along_curve(self):
        # volumes for nearby radii stay within fixed multiplicative
        # bands as the base point moves (checked empirically)
        model = SPD2Model()
        ratios = []
        for t in (0.0, 1.0):
            small, _ = estimate_volume(model, model.curve(t), 0.2, 40_000, 17)
            large, _ = estimate_volume(model, model.curve(t), 0.4, 40_000, 17)
            ratios.append(small / large)
        assert 0.7 < ratios[0] / ratios[1] < 1.4

    def test_csv_format(self):
        series = volume_along_curve(PlaneModel(), [-1.0, 0.0, 1.0, 2.0],
                                    R03, 10_000, 21)
        lines = series.to_csv().strip().split("\n")
        assert lines[0] == "t,estimate,stderr,samples,seed"
        assert len(lines) == 5
        for line, est in zip(lines[1:], series.estimates):
            cells = line.split(",")
            assert float(cells[1]) == est  # 17 digits round-trip floats
            assert cells[3] == "10000" and cells[4] == "21"


class TestFitLogSlope:
    def make(self, ts, vols):
        return VolumeSeries(list(ts), list(vols), [0.0] * len(ts),
                            1000, 0, 0.3, "synthetic")

    def test_exact_exponential(self):
        ts = [0.0, 0.5, 1.0, 1.5, 2.0]
        slope, intercept, half = fit_log_slope(
            self.make(ts, [math.exp(2 * t) for t in ts]))
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)
        assert half < 1e-10

    def test_noisy_decay(self):
        rng = np.random.default_rng(33)
        ts = [0.25 * i for i in range(12)]
        vols = [7.0 * math.exp(-3.0 * t) * (1.0 + 0.01 * rng.uniform(-1, 1))
                for t in ts]
        slope, _, _ = fit_log_slope(self.make(ts, vols))
        assert abs(slope - (-3.0)) < 0.05

    def test_constant_series(self):
        ts = [0.0, 1.0, 2.0, 3.0]
        slope, _, _ = fit_log_slope(self.make(ts, [5.0] * 4))
        assert slope == pytest.approx(0.0, abs=1e-14)

    def test_too_few_positive_points(self):
        with pytest.raises(TooFewPoints):
            fit_log_slope(self.make([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 0.0, 0.0]))

    def test_zero_estimates_are_dropped_not_fatal(self):
        ts = [0.0, 1.0, 2.0, 3.0, 4.0]
        vols = [math.exp(t) for t in ts[:4]] + [0.0]
        slope, _, _ = fit_log_slope(self.make(ts, vols))
        assert slope == pytest.approx(1.0, abs=1e-12)


class TestChiPartial:
    def test_frozen_values(self):
        norm, sup, tail = chi_partial(10, R03, 2.0,
                                      samples=100_000, seed=42)
        assert norm == pytest.approx(0.2171786253172388)
        assert sup == 10.0
        assert tail == pytest.approx(0.40999879929997624)

    def test_tail_ratio_near_decay_factor(self):
        _, _, tail = chi_partial(10, R03, 2.0,
                                 samples=100_000, seed=42)
        assert abs(tail - math.exp(-1.0)) < 0.15

    def test_sup_reaches_partial_sum_order(self):
        for big_k in (3, 6, 10):
            _, sup, _ = chi_partial(big_k, R03, 2.0,
                                    samples=20_000, seed=1)
            assert sup >= big_k

    def test_norm_monotone_and_converged(self):
        norms = [chi_partial(k, R03, 2.0, samples=100_000,
                             seed=42)[0] for k in (3, 6, 10)]
        assert norms[0] <= norms[1] <= norms[2]
        assert (norms[2] - norms[1]) / norms[1] < 0.05

    def test_norm_below_geometric_bound(self):
        # v_k ~ c e^{-2k}; measure c from the first patch, then compare
        # against c^{1/2} * sum k e^{-k} over all k
        model = PlaneModel()
        v1, _ = estimate_volume(model, model.curve(-1.0), R03, 100_000, 42,
                                point_index=1)
        c = v1 * math.exp(2.0)
        bound = math.sqrt(c) * sum(k * math.exp(-k) for k in range(1, 200))
        norm, _, _ = chi_partial(10, R03, 2.0, samples=100_000, seed=42)
        assert norm <= bound
