"""Volume estimator tests: membership geometry, frozen Monte Carlo
values, determinism, and the fitting/counterexample helpers."""

import hashlib
import math
import os

import numpy as np
import pytest

from float_checks import chi_partial
from vaikit import volume
from vaikit.exact import _sturm
from vaikit.errors import EmptyBox, InputError, TooFewPoints
from vaikit.volume import (
    ConeModel,
    HyperboloidModel,
    PlaneModel,
    SPD2Model,
    VolumeSeries,
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


def _coefficients(model, z, coords):
    """The float coefficients the model's filter reads, per chart sample."""
    if isinstance(model, SPD2Model):
        return model._angle_coefficients(z, coords)[0]
    return model._stabilizer_coefficients(z, coords)[0]


def _exact(model, z, coords, r2):
    """The exact stage's decision for each chart sample against its own r^2
    (one float, or one per sample), whatever the filter would decide."""
    r2 = np.broadcast_to(r2, len(coords))
    if isinstance(model, SPD2Model):
        _, q, p_inv = model._angle_coefficients(z, coords)
        return np.array([model._exact_hits(tuple(c[i:i + 1] for c in q), p_inv, float(r2[i]))[0]
                         for i in range(len(coords))])
    _, (g, h) = model._stabilizer_coefficients(z, coords)
    return np.array([model._exact_hits(tuple(e[i:i + 1] for e in g),
                                       tuple(e[i:i + 1] for e in h), float(r2[i]))[0]
                     for i in range(len(coords))])


def _chart(model, w):
    """The chart coordinates of the point w of the model's space."""
    if isinstance(model, SPD2Model):
        return np.array([w[0, 1], math.log(w[1, 1])])
    if isinstance(model, ConeModel):
        return model._lift(w)
    if isinstance(model, HyperboloidModel):
        return model.to_chart(w)
    return np.asarray(w, dtype=float)


def _member(model, z, w, radius):
    """Whether the point w lies in B_r . z, decided on its chart coordinates."""
    return bool(model.membership_chart(z, _chart(model, w)[None, :], radius)[0])


def _nearest(model, z, coords, count):
    """Indices of the `count` chart samples whose minimum lies nearest r^2.

    A pool of 100 comes from the bounds: the ceiling carries about twice
    the floor's rounding slack, so the pool is the samples whose point a
    third of the way from floor to ceiling lies nearest r^2.  The exact
    stage then bisects each pool minimum to within 4e-5 of r^2."""
    floor, ceiling = model._bounds(*_coefficients(model, z, coords), R03 * R03)
    with np.errstate(invalid="ignore"):
        gap = np.abs((2.0 * floor + ceiling) / 3.0 - R03 * R03)
    pool = np.argsort(gap, kind="stable")[:100]  # nan sorts last
    # bisect min - r^2 in [-r^2, r^2]; a minimum beyond stays at that end
    lo, hi = np.full(len(pool), -R03 * R03), np.full(len(pool), R03 * R03)
    for _ in range(12):
        mid = (lo + hi) / 2.0
        hit = _exact(model, z, coords[pool], R03 * R03 + mid)
        lo, hi = np.where(hit, lo, mid), np.where(hit, mid, hi)
    return pool[np.argsort(np.abs(lo + hi), kind="stable")[:count]]


def _closest_calls(model, z, coords, count):
    """Indices of the `count` hits and the `count` misses that the bounds
    decide with the least margin to r^2."""
    floor, ceiling = model._bounds(*_coefficients(model, z, coords), R03 * R03)
    hit_margin = np.where(ceiling < R03 * R03, R03 * R03 - ceiling, np.inf)
    miss_margin = np.where(floor > R03 * R03, floor - R03 * R03, np.inf)
    return np.r_[np.argsort(hit_margin)[:count], np.argsort(miss_margin)[:count]]


def _component_hits(coefs, sign, r2):
    """Exact decisions of the +1 or the -1 stabilizer component alone, from
    the float coefficients in the cosh/sinh form: whether 4 u^2 (f - r2),
    u = e^s, f = P cosh 2s + Q sinh 2s + R - 2 sign (tr G cosh s + tr H sinh s),
    has a root u > 0, by V(0) - V(+inf) of its Sturm sequence."""
    def changes(signs):
        return sum(x != y for x, y in zip(signs, signs[1:]))

    hits = []
    for row in zip(*(c.tolist() for c in coefs)):
        (p_co, q_co, r_co, tr_g, tr_h, r2_int), _ = volume._dyadic((*row, r2))
        seq = _sturm([2 * (p_co - q_co), -4 * sign * (tr_g - tr_h), 4 * (r_co - r2_int),
                      -4 * sign * (tr_g + tr_h), 2 * (p_co + q_co)])
        at_zero, at_inf = [b[0] > 0 for b in seq if b[0]], [b[-1] > 0 for b in seq]
        hits.append(changes(at_zero) > changes(at_inf))
    return np.array(hits, dtype=bool)


class TestPlaneModel:
    model = PlaneModel()

    def test_membership_identity(self):
        z = np.array([1.0, 0.0])
        for r in (0.01, 0.3, 1.0):
            assert _member(self.model, z, z, r)

    def test_membership_symmetric(self):
        rng = np.random.default_rng(5)
        z = np.array([0.7, -0.4])
        for _ in range(50):
            w = z + rng.uniform(-0.5, 0.5, size=2)
            assert (_member(self.model, z, w, R03)
                    == _member(self.model, w, z, R03))

    def test_ball_images_are_members(self):
        rng = np.random.default_rng(6)
        z = np.array([0.8, 0.5])
        for _ in range(200):
            g = random_ball_element(rng, R03)
            assert _member(self.model, z, self.model.apply(g, z), R03)

    def test_known_non_member(self):
        assert not _member(self.model, np.array([1.0, 0.0]), np.array([2.0, 0.0]), R03)

    def test_origin_never_member(self):
        assert not _member(self.model, np.array([1.0, 0.0]), np.array([0.0, 0.0]), R03)

    def test_empty_box_at_origin(self):
        with pytest.raises(EmptyBox):
            self.model.chart_box(np.array([0.0, 0.0]), R03)

    def test_estimate_matches_high_resolution_oracle(self):
        # oracle frozen from a 1e7-sample run, seed 1234
        oracle, oracle_err = 0.200012976, 0.0001574844420479761
        est, err = estimate_volume(self.model, self.model.curve(0.0),
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
            assert _member(self.model, z, z, R03)

    def test_ball_images_are_members(self):
        rng = np.random.default_rng(7)
        for t in (0.0, 1.5, 3.0):
            z = self.model.curve(t)
            for _ in range(60):
                g = random_ball_element(rng, R03)
                assert _member(self.model, z, self.model.apply(g, z), R03)

    def test_far_point_not_member(self):
        z = self.model.curve(0.0)
        w = self.model.curve(1.0)  # diag(e^2, e^-2), far outside B_0.3
        assert not _member(self.model, z, w, R03)

    def test_angle_minimization_dominates_dense_grid(self):
        # a dense grid certifies hits but can miss razor-thin valleys,
        # so the sound comparison is one-sided: the exact minimum must sit
        # at or below every grid evaluation
        z = self.model.curve(2.0)
        lo, hi = self.model.chart_box(z, R03)
        rng = np.random.default_rng(123)
        coords = rng.uniform(lo, hi, size=(3000, 2))
        hits = self.model.membership_chart(z, coords, R03)

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
        every = slice(None, None, 15)
        slack = 1e-7 * (1.0 + np.abs(best[every]))
        assert _exact(self.model, z, coords[every], best[every] + slack).all()
        # every grid-certified hit is found
        assert (hits | (best > R03 * R03 - 1e-9)).all()

    @pytest.mark.parametrize("t", [0.0, 2.0, 4.0])
    def test_floor_keeps_every_decision(self, t):
        # membership skips the bounds where the coefficient floor already
        # proves a miss; the exact stage must miss just below that floor,
        # checked on the samples where it lies nearest the conic ceiling
        z = self.model.curve(t)
        lo, hi = self.model.chart_box(z, R03)
        coords = np.random.default_rng(31).uniform(lo, hi, size=(16384, 2))
        hits = self.model.membership_chart(z, coords, R03)
        assert hits.any()

        coefs = k0, p2, q2, p1, q1 = self.model._angle_coefficients(z, coords)[0]
        amp2, amp1 = np.hypot(p2, q2), np.hypot(p1, q1)
        floor = k0 - amp2 - amp1 - volume._GAMMA * (np.abs(k0) + amp2 + amp1)
        rejected = floor > R03 * R03
        assert rejected.any() and not hits[rejected].any()
        _, ceiling = self.model._bounds(*coefs, R03 * R03)
        tight = np.argsort(ceiling - floor)[:200]
        assert not _exact(self.model, z, coords[tight], np.nextafter(floor[tight], -np.inf)).any()
        tight = np.flatnonzero(rejected)[np.argsort((ceiling - floor)[rejected])[:200]]
        assert not _exact(self.model, z, coords[tight], R03 * R03).any()

    @pytest.mark.parametrize("t", [0.0, 2.0, 4.0, 6.0, 8.0])
    def test_membership_matches_the_exact_stage(self, t):
        # the exact stage, run alone on the 128 hits and 128 misses that
        # the bounds decide with the least margin, is the reference
        z = self.model.curve(t)
        lo, hi = self.model.chart_box(z, R03)
        coords = np.random.default_rng(43).uniform(lo, hi, size=(16384, 2))
        hits = self.model.membership_chart(z, coords, R03)
        closest = _closest_calls(self.model, z, coords, 128)
        reference = _exact(self.model, z, coords[closest], R03 * R03)
        assert reference.any() and not reference.all()
        assert (hits[closest] == reference).all()

    def test_estimate_at_identity_frozen(self):
        est, err = estimate_volume(self.model, self.model.curve(0.0),
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
        ec, _ = estimate_volume(self.model, self.model.curve(0.0),
                                R03, 100_000, 42)
        ep, _ = estimate_volume(PlaneModel(), PlaneModel().curve(0.0),
                                R03, 100_000, 42)
        assert ec == ep

    def test_slope_toward_apex(self):
        grid = [-4.0, -3.5, -3.0, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0]
        series = volume_along_curve(self.model, grid, R03, 100_000, 42)
        assert abs(series.slope - 2.0) < 0.3

    def test_membership_identity(self):
        for t in (-2.0, 0.0):
            z = self.model.curve(t)
            assert _member(self.model, z, z, R03)


class TestHyperboloidModel:
    model = HyperboloidModel()

    def test_chart_roundtrip(self):
        # at z = H the conjugator G is the chart's q: q H q^{-1} is the point
        # on the quadric with chart (psi, delta), and H = q H
        rng = np.random.default_rng(10)
        coords = np.column_stack([rng.uniform(-math.pi, math.pi, 100), rng.normal(size=100) * 2.0])
        _, (g, h) = self.model._stabilizer_coefficients(self.model.curve(0.0), coords)
        for i, (psi, delta) in enumerate(coords):
            q = np.array([[g[0][i], g[1][i]], [g[2][i], g[3][i]]])
            assert np.linalg.det(q) == pytest.approx(1.0)
            assert np.allclose([[h[0][i], h[1][i]], [h[2][i], h[3][i]]], q @ np.diag([1.0, -1.0]))
            x = q @ np.diag([1.0, -1.0]) @ np.linalg.inv(q)
            pt = [x[0, 0], x[0, 1], x[1, 0]]
            assert x[1, 1] == pytest.approx(-x[0, 0], abs=1e-9)
            assert pt[0] ** 2 + pt[1] * pt[2] == pytest.approx(1.0)
            back = self.model.to_chart(pt)
            assert back[0] == pytest.approx(psi)
            assert back[1] == pytest.approx(delta)

    def test_membership_identity(self):
        for t in (0.0, 1.0, 2.0):
            z = self.model.curve(t)
            assert _member(self.model, z, z, R03)

    def test_ball_images_are_members(self):
        rng = np.random.default_rng(11)
        for t in (0.0, 1.0, 2.0):
            z = self.model.curve(t)
            for _ in range(60):
                g = random_ball_element(rng, R03)
                assert _member(self.model, z, self.model.apply(g, z), R03)

    def test_stabilizer_direction_fixes_base_point(self):
        z = self.model.curve(0.0)
        g = np.diag([math.exp(0.8), math.exp(-0.8)])
        assert np.allclose(self.model.apply(g, z), z)

    def test_rotation_moves_base_point_off_ball(self):
        z = self.model.curve(0.0)
        assert not _member(self.model, z, self.model.apply(rotation(0.4), z), R03)
        assert _member(self.model, z, self.model.apply(rotation(0.1), z), R03)

    @pytest.mark.parametrize("t", [0.0, 2.0, 4.0])
    def test_single_solve_keeps_every_decision(self, t):
        # one function of x = +-e^s covers both stabilizer components; the
        # reference decides each component apart, on the 128 hits and 128
        # misses that the bounds decide with the least margin
        z = self.model.curve(t)
        lo, hi = self.model.chart_box(z, R03)
        coords = np.random.default_rng(37).uniform(lo, hi, size=(16384, 2))
        closest = _closest_calls(self.model, z, coords, 128)
        coefs, _ = self.model._stabilizer_coefficients(z, coords[closest])
        reference = (_component_hits(coefs, 1, R03 * R03)
                     | _component_hits(coefs, -1, R03 * R03))
        assert reference.any() and not reference.all()
        assert (self.model.membership_chart(z, coords, R03)[closest] == reference).all()

    @pytest.mark.parametrize("t", [0.0, 2.0, 4.0, 6.0, 8.0])
    def test_membership_matches_the_exact_stage(self, t):
        # the exact stage, run alone on the 128 hits and 128 misses that
        # the bounds decide with the least margin, is the reference
        z = self.model.curve(t)
        lo, hi = self.model.chart_box(z, R03)
        coords = np.random.default_rng(41).uniform(lo, hi, size=(16384, 2))
        hits = self.model.membership_chart(z, coords, R03)
        closest = _closest_calls(self.model, z, coords, 128)
        reference = _exact(self.model, z, coords[closest], R03 * R03)
        assert reference.any() and not reference.all()
        assert (hits[closest] == reference).all()

    def test_negative_roots_decide_the_minus_component(self):
        # the conjugator -G puts every hit near the waist point (0, -1, -1)
        # on the -1 component of the stabilizer, where the one quartic's
        # roots are negative; (-G, -H) decides each sample as (G, H) does
        z = np.array([0.0, -1.0, -1.0])
        lo, hi = self.model.chart_box(z, R03)
        coords = np.random.default_rng(37).uniform(lo, hi, size=(16384, 2))
        hits = self.model.membership_chart(z, coords, R03)
        coefs, (g, h) = self.model._stabilizer_coefficients(z, coords)
        p_co, q_co, r_co, tr_g, tr_h = coefs
        minus = (p_co, q_co, r_co, -tr_g, -tr_h)  # the coefficients of (-G, -H)
        assert np.array_equal(self.model._bounds(*minus, R03 * R03),
                              self.model._bounds(*coefs, R03 * R03), equal_nan=True)
        closest = _closest_calls(self.model, z, coords, 128)
        assert (self.model._exact_hits(tuple(-e[closest] for e in g),
                                       tuple(-e[closest] for e in h), R03 * R03)
                == hits[closest]).all()
        minus = tuple(c[hits] for c in minus)
        plus = _component_hits(minus, 1, R03 * R03)
        assert (plus | _component_hits(minus, -1, R03 * R03)).all()
        assert (~plus).sum() > 1000

    def test_float_range_is_declared(self):
        z = self.model.curve(8.3)
        assert _member(self.model, z, z, R03)
        z = self.model.curve(8.4)
        with pytest.raises(EmptyBox, match="float range"):
            _member(self.model, z, z, R03)

    def test_estimate_frozen(self):
        est, err = estimate_volume(self.model, self.model.curve(0.0),
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
    # floor <= min <= ceiling, with the exact stage as truth: each sample
    # hits at r^2 = ceiling and misses just below the floor, on the 64 hits
    # and 64 misses the bounds decide with the least margin and 128 samples
    # spread over the batch.  Up to t = 4 the
    # bounds leave at most 5% of the samples to the exact stage, so a
    # silent fall-back to it fails here, and it never runs on an empty band
    z = model.curve(t)
    lo, hi = model.chart_box(z, R03)
    coords = np.random.default_rng(47).uniform(lo, hi, size=(16384, 2))
    floor, ceiling = model._bounds(*_coefficients(model, z, coords), R03 * R03)
    picked = np.r_[_closest_calls(model, z, coords, 64), np.arange(0, len(coords), 128)]
    top = picked[np.isfinite(ceiling[picked])]
    assert _exact(model, z, coords[top], ceiling[top]).all()
    bottom = picked[np.isfinite(floor[picked])]
    assert len(top) > 128 and len(bottom) > 128
    assert not _exact(model, z, coords[bottom], np.nextafter(floor[bottom], -np.inf)).any()
    reached = []
    exact_hits = model._exact_hits
    monkeypatch.setattr(model, "_exact_hits",
                        lambda first, *rest: reached.append(len(first[0]))
                        or exact_hits(first, *rest))
    model.membership_chart(z, coords, R03)
    assert len(reached) <= 1 and all(reached)
    if t <= 4.0:
        assert sum(reached) <= 0.05 * len(coords)


@pytest.mark.parametrize("model, digest", [
    (SPD2Model(), "7ceff15f314c0600932cb30cca2196f9759d9f1961f9c0b88d6c742427a1b9c8"),
    (HyperboloidModel(), "b00568a757293d0fa7fcb49d1b63927c43b9bbe296d8478aef347b43aefd529c"),
], ids=["spd2", "hyperboloid"])
def test_membership_decisions_are_frozen(model, digest):
    # a refactor of the membership filter must keep every decision: the
    # packed decisions on 4 seeded batches at each t up to 7 hash as before
    sha = hashlib.sha256()
    for t in (0.0, 2.0, 4.0, 6.0, 7.0):
        z = model.curve(t)
        lo, hi = model.chart_box(z, R03)
        rng = np.random.default_rng(53)
        for _ in range(4):
            coords = rng.uniform(lo, hi, size=(volume.BATCH, 2))
            sha.update(np.packbits(model.membership_chart(z, coords, R03)).tobytes())
    assert sha.hexdigest() == digest


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
            c = _chart(model, w)
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
    # with x = tan(phi/2), f'(phi) (1 + x^2)^2 is this quartic; phi = pi is
    # the one angle the substitution misses
    quartic = [2 * q2 - q1, 8 * p2 - 2 * p1, -12 * q2, -8 * p2 - 2 * p1, 2 * q2 + q1]
    return _mp_real_minimum(mp, quartic, lambda x: f(2 * mp.atan(x)), extra=[mp.inf])


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


@pytest.mark.parametrize("t", [0.0, 4.0, 6.0, 7.0, 7.5, 8.0, 8.35])
@pytest.mark.parametrize("model, oracle", [(SPD2Model(), _mp_spd2_minimum),
                                           (HyperboloidModel(), _mp_hyperboloid_minimum)],
                         ids=["spd2", "hyperboloid"])
def test_decisions_nearest_the_boundary_match_an_80_digit_oracle(model, oracle, t):
    # the ten seeded chart samples whose minimum lies nearest r^2, decided
    # again from the roots of the quartic at 80 digits
    mp = pytest.importorskip("mpmath").mp
    z = model.curve(t)
    lo, hi = model.chart_box(z, R03)
    coords = np.random.default_rng(59).uniform(lo, hi, size=(4096, 2))
    nearest = coords[_nearest(model, z, coords, 10)]
    with mp.workdps(80):
        exact = [oracle(mp, mp.mpf(t), c) <= mp.mpf(R03) ** 2 for c in nearest]
    assert model.membership_chart(z, nearest, R03).tolist() == exact


def test_hyperboloid_decisions_within_1e_4_of_r2_match_an_80_digit_oracle():
    # samples at t = 7 and 8 whose minimum lies within 4e-7 to 1.3e-4 of
    # r^2, about the rounding of a float point (a, b, c) of size |a|^2 eps:
    # two from `estimate -1:7:0.5 --seed 5` (grid index 16, batches 0 and
    # 2) and four from the second of two batches drawn with rng 77
    mp = pytest.importorskip("mpmath").mp
    model = HyperboloidModel()
    cases = []
    z = model.curve(7.0)
    lo, hi = model.chart_box(z, R03)
    for batch, k in ((0, 6178), (2, 13994)):
        rng = np.random.default_rng(np.random.SeedSequence([5, 16, batch]))
        cases.append((7.0, rng.uniform(lo, hi, size=(volume.BATCH, 2))[k]))
    z = model.curve(8.0)
    lo, hi = model.chart_box(z, R03)
    rng = np.random.default_rng(77)
    second = [rng.uniform(lo, hi, size=(volume.BATCH, 2)) for _ in range(2)][1]
    cases += [(8.0, second[k]) for k in (3690, 13042, 13385, 13587)]
    for t, coord in cases:
        with mp.workdps(80):
            exact = _mp_hyperboloid_minimum(mp, mp.mpf(t), coord) <= mp.mpf(R03) ** 2
        assert model.membership_chart(model.curve(t), coord[None, :], R03)[0] == exact, (t, coord)


class TestEstimator:
    def test_input_validation(self):
        model = PlaneModel()
        with pytest.raises(InputError):
            estimate_volume(model, model.curve(0.0), -0.1, 10_000, 0)
        with pytest.raises(InputError):
            estimate_volume(model, model.curve(0.0), 0.3, 10, 0)
        # checked before the batch list [BATCH] * (samples // BATCH) is built
        for samples in (10 ** 20, 100_000_001):
            with pytest.raises(InputError, match="at most 100000000 samples"):
                estimate_volume(model, model.curve(0.0), 0.3, samples, 0)
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
            est, err = estimate_volume(model, model.curve(0.0),
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
