"""Volume estimator tests: membership geometry, frozen Monte Carlo
values, determinism, and the fitting/counterexample helpers."""

import hashlib
import math
import os
import time

import numpy as np
import pytest

from float_checks import act, chi_partial, refuse_in_workers
from vaikit import volume
from vaikit.exact import _sturm
from vaikit.errors import InputError, TooFewPoints
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
EPS = np.finfo(float).eps
SPD2_T = 10.0  # the end of spd2's float range on the curve


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


def _circle(model):
    """Whether the model's conic is the unit circle (else the hyperbola)."""
    return isinstance(model, SPD2Model)


class _Handed(Exception):
    """Raised in place of `_conic_bounds` with the arguments it was handed."""


def _handed(m1, m2, circle):
    """(a, b, v, circle): what `_conic_hits` hands `_conic_bounds` for the
    float entries m1, m2, taken from a call at r^2 = inf, where the plane
    floor passes every sample on."""
    def hand(*args):
        raise _Handed(args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(volume, "_conic_bounds", hand)
        with pytest.raises(_Handed) as handed:
            volume._conic_hits(m1, m2, circle, math.inf)
    return handed.value.args[0]


def _bounds(model, z, coords):
    """The floor and ceiling of each chart sample's least value, from
    `_conic_bounds` on the coefficients and the start membership gives it."""
    return volume._conic_bounds(*_handed(*model._matrices(z, coords), _circle(model)))


def _exact(model, z, coords, r2):
    """The exact stage's decision for each chart sample against its own r^2
    (one float, or one per sample), whatever the filter would decide."""
    r2 = np.broadcast_to(r2, len(coords))
    m1, m2 = model._matrices(z, coords)
    return np.array([volume._exact_hits(tuple(e[i:i + 1] for e in m1), tuple(e[i:i + 1] for e in m2),
                                        _circle(model), float(r2[i]))[0]
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
    floor, ceiling = _bounds(model, z, coords)
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
    floor, ceiling = _bounds(model, z, coords)
    hit_margin = np.where(ceiling < R03 * R03, R03 * R03 - ceiling, np.inf)
    miss_margin = np.where(floor > R03 * R03, floor - R03 * R03, np.inf)
    return np.r_[np.argsort(hit_margin)[:count], np.argsort(miss_margin)[:count]]


def _component_hits(coefs, sign, r2):
    """Exact decisions of the +1 or the -1 stabilizer component alone, from
    the float Gram coefficients (k, a11, a22, b1, b2) on the hyperbola,
    where 2 a12 v1 v2 is the constant in k = 2 + 2 a12: whether u^2 (f -
    r2), f = k + a11 x^2 + a22 / x^2 + b1 x + b2 / x at x = sign u, has a
    root u > 0, by V(0) - V(+inf) of its Sturm sequence."""
    def changes(signs):
        return sum(x != y for x, y in zip(signs, signs[1:]))

    hits = []
    for row in zip(*(c.tolist() for c in coefs)):
        (k, a11, a22, b1, b2, r2_int), _ = volume._dyadic((*row, r2))
        seq = _sturm([a22, sign * b2, k - r2_int, sign * b1, a11])
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
            assert _member(self.model, z, act(self.model, g, z), R03)

    def test_known_non_member(self):
        assert not _member(self.model, np.array([1.0, 0.0]), np.array([2.0, 0.0]), R03)

    def test_origin_never_member(self):
        assert not _member(self.model, np.array([1.0, 0.0]), np.array([0.0, 0.0]), R03)

    def test_empty_box_at_origin(self):
        with pytest.raises(InputError, match="deleted origin"):
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
                assert _member(self.model, z, act(self.model, g, z), R03)

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
        # membership skips the bounds where the plane floor already proves
        # a miss; the exact stage must miss just below that floor, checked
        # on the samples where it lies nearest the conic ceiling
        z = self.model.curve(t)
        lo, hi = self.model.chart_box(z, R03)
        coords = np.random.default_rng(31).uniform(lo, hi, size=(16384, 2))
        hits = self.model.membership_chart(z, coords, R03)
        assert hits.any()

        m1, m2 = self.model._matrices(z, coords)
        (a11, _, a22), *_ = _handed(m1, m2, True)
        floor = volume._plane_floor(m1, m2, a11, a22)
        rejected = floor > R03 * R03
        assert rejected.any() and not hits[rejected].any()
        _, ceiling = _bounds(self.model, z, coords)
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

    def test_float_range_is_declared(self):
        for t in (-SPD2_T, SPD2_T):
            z = self.model.curve(t)
            assert _member(self.model, z, z, R03)
            self.model.chart_box(z, R03)
        for t in (-10.01, 10.01):
            with pytest.raises(InputError, match=r"float range tr P <= 4.9e8 \(\|t\| <= 10 "):
                self.model.chart_box(self.model.curve(t), R03)

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

    def test_ball_images_are_members(self):
        rng = np.random.default_rng(9)
        for z in (np.array([0.3, 0.9, -0.1]), self.model.curve(-1.0)):
            for _ in range(100):
                moved = act(self.model, random_ball_element(rng, R03), z)
                # a^2 + bc = 0 is preserved
                assert moved[0] ** 2 + moved[1] * moved[2] == pytest.approx(0.0, abs=1e-12)
                assert _member(self.model, z, moved, R03)

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
        # at z = H the conjugator M1 + M2 is the chart's q: q H q^{-1} is the
        # point on the quadric with chart (psi, delta), and M1 - M2 = q H
        rng = np.random.default_rng(10)
        coords = np.column_stack([rng.uniform(-math.pi, math.pi, 100), rng.normal(size=100) * 2.0])
        m1, m2 = self.model._matrices(self.model.curve(0.0), coords)
        for i, (psi, delta) in enumerate(coords):
            q = np.array([[m1[0][i] + m2[0][i], m1[1][i] + m2[1][i]],
                          [m1[2][i] + m2[2][i], m1[3][i] + m2[3][i]]])
            assert np.linalg.det(q) == pytest.approx(1.0)
            assert np.allclose([[m1[0][i] - m2[0][i], m1[1][i] - m2[1][i]],
                                [m1[2][i] - m2[2][i], m1[3][i] - m2[3][i]]],
                               q @ np.diag([1.0, -1.0]))
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
                assert _member(self.model, z, act(self.model, g, z), R03)

    def test_stabilizer_direction_fixes_base_point(self):
        z = self.model.curve(0.0)
        g = np.diag([math.exp(0.8), math.exp(-0.8)])
        assert np.allclose(act(self.model, g, z), z)

    def test_rotation_moves_base_point_off_ball(self):
        z = self.model.curve(0.0)
        assert not _member(self.model, z, act(self.model, rotation(0.4), z), R03)
        assert _member(self.model, z, act(self.model, rotation(0.1), z), R03)

    @pytest.mark.parametrize("t", [0.0, 2.0, 4.0])
    def test_single_solve_keeps_every_decision(self, t):
        # one function of x = +-e^s covers both stabilizer components; the
        # reference decides each component apart, on the 128 hits and 128
        # misses that the bounds decide with the least margin
        z = self.model.curve(t)
        lo, hi = self.model.chart_box(z, R03)
        coords = np.random.default_rng(37).uniform(lo, hi, size=(16384, 2))
        closest = _closest_calls(self.model, z, coords, 128)
        (a11, a12, a22), (b1, b2), *_ = _handed(*self.model._matrices(z, coords[closest]), False)
        coefs = (2.0 + 2.0 * a12, a11, a22, b1, b2)
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
        # the conjugator -(M1 + M2) puts every hit near the waist point
        # (0, -1, -1) on the -1 component of the stabilizer, where the one
        # quartic's roots are negative; (-M1, -M2) decides each sample as
        # (M1, M2) does
        z = np.array([0.0, -1.0, -1.0])
        lo, hi = self.model.chart_box(z, R03)
        coords = np.random.default_rng(37).uniform(lo, hi, size=(16384, 2))
        hits = self.model.membership_chart(z, coords, R03)
        m1, m2 = self.model._matrices(z, coords)
        minus = tuple(-e for e in m1), tuple(-e for e in m2)
        bounds = volume._conic_bounds(*_handed(m1, m2, False))
        assert np.array_equal(volume._conic_bounds(*_handed(*minus, False)), bounds,
                              equal_nan=True)
        closest = _closest_calls(self.model, z, coords, 128)
        assert (volume._exact_hits(*(tuple(e[closest] for e in m) for m in minus), False, R03 * R03)
                == hits[closest]).all()
        (a11, a12, a22), (b1, b2), *_ = _handed(*minus, False)
        minus = tuple(c[hits] for c in (2.0 + 2.0 * a12, a11, a22, b1, b2))
        plus = _component_hits(minus, 1, R03 * R03)
        assert (plus | _component_hits(minus, -1, R03 * R03)).all()
        assert (~plus).sum() > 1000

    def test_float_range_is_declared(self):
        z = self.model.curve(8.3)
        assert _member(self.model, z, z, R03)
        self.model.chart_box(z, R03)
        with pytest.raises(InputError, match="float range"):
            self.model.chart_box(self.model.curve(8.4), R03)

    def test_float_range_bounds_rho_off_the_curve(self, monkeypatch):
        # R(pi/4) turns the curve point's size from a into beta; two
        # batches on two workers, and the parent refuses before they run
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        z = act(self.model, rotation(math.pi / 4.0), self.model.curve(8.0))
        assert abs(z[0]) < 1e-3
        est, _ = estimate_volume(self.model, z, R03, 20_000, 1)
        assert est > 0.0
        for t in (9.0, 12.0):
            z = act(self.model, rotation(math.pi / 4.0), self.model.curve(t))
            with pytest.raises(InputError, match=r"float range rho = sqrt\(a\^2 \+ beta\^2\)"):
                estimate_volume(self.model, z, R03, 20_000, 1)

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
            moved = act(self.model, rotation(theta), z)
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
    # spread over the batch.  Up to t = 6 the
    # bounds leave at most 0.2% of the samples (32) to the exact stage, so
    # a silent fall-back to it fails here, and it never runs on an empty band
    z = model.curve(t)
    lo, hi = model.chart_box(z, R03)
    coords = np.random.default_rng(47).uniform(lo, hi, size=(16384, 2))
    floor, ceiling = _bounds(model, z, coords)
    picked = np.r_[_closest_calls(model, z, coords, 64), np.arange(0, len(coords), 128)]
    top = picked[np.isfinite(ceiling[picked])]
    assert _exact(model, z, coords[top], ceiling[top]).all()
    bottom = picked[np.isfinite(floor[picked])]
    assert len(top) > 128 and len(bottom) > 128
    assert not _exact(model, z, coords[bottom], np.nextafter(floor[bottom], -np.inf)).any()
    reached = []
    exact_hits = volume._exact_hits
    monkeypatch.setattr(volume, "_exact_hits",
                        lambda first, *rest: reached.append(len(first[0]))
                        or exact_hits(first, *rest))
    model.membership_chart(z, coords, R03)
    assert len(reached) <= 1 and all(reached)
    if t <= 6.0:
        assert sum(reached) <= 0.002 * len(coords)


@pytest.mark.parametrize("t", [0.0, 2.0, 4.0, 6.0])
@pytest.mark.parametrize("model", [SPD2Model(), HyperboloidModel()], ids=["spd2", "hyperboloid"])
def test_bounds_load_stays_near_the_hit_share(model, t, monkeypatch):
    # only the bounds prove a hit, so no stage before them can pass them
    # fewer samples than the hits; the plane floor passes at most 5% of
    # the batch more, so a silent loss of the floor fails here
    z = model.curve(t)
    lo, hi = model.chart_box(z, R03)
    coords = np.random.default_rng(47).uniform(lo, hi, size=(16384, 2))
    reached = []
    conic_bounds = volume._conic_bounds
    monkeypatch.setattr(volume, "_conic_bounds",
                        lambda a, *rest: reached.append(len(a[0])) or conic_bounds(a, *rest))
    hits = model.membership_chart(z, coords, R03)
    assert sum(reached) <= (hits.mean() + 0.05) * len(coords)


def _on_conic_minimizers(rng, circle, count, r2):
    """Float entries m1, m2 of count samples whose least value of f on the
    plane, dist(1, span(M1, M2))^2, lies within 1e-12 of r2 and is taken
    at a point v of the conic, so it is f's least value on the conic too.
    E with |E|^2 = <E, 1> = rho is orthogonal to 1 - E; a random M_j
    orthogonal to E and M_i = (1 - E - v_j M_j) / v_i, i the index of the
    larger |v_i|, put 1 - E = v1 M1 + v2 M2 at the foot of 1 on the plane."""
    one = np.array([1.0, 0.0, 0.0, 1.0])
    rho = r2 + rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-16.0, -12.0, count)
    w = rng.normal(size=(count, 4))
    w -= np.outer(w @ one / 2.0, one)
    w *= (np.sqrt(rho - rho * rho / 2.0) / np.linalg.norm(w, axis=1))[:, None]
    e = np.outer(rho / 2.0, one) + w
    free = rng.normal(size=(count, 4)) * 10.0 ** rng.uniform(0.0, 3.0, (count, 1))
    free -= ((free * e).sum(axis=1) / rho)[:, None] * e
    if circle:
        phi = rng.uniform(-math.pi, math.pi, count)
        v1, v2 = np.cos(phi), np.sin(phi)
    else:
        v1 = rng.choice([-1.0, 1.0], count) * np.exp(rng.uniform(-4.0, 4.0, count))
        v2 = 1.0 / v1
    first = np.abs(v1) >= np.abs(v2)
    v_free, v_solved = np.where(first, v2, v1)[:, None], np.where(first, v1, v2)[:, None]
    solved = (one - e - v_free * free) / v_solved
    m1, m2 = np.where(first[:, None], solved, free), np.where(first[:, None], free, solved)
    return tuple(m1.T), tuple(m2.T)


@pytest.mark.parametrize("model, ts", [(SPD2Model(), (0.0, 2.0, 4.0, 6.0, 8.0, SPD2_T)),
                                       (HyperboloidModel(), (0.0, 2.0, 4.0, 6.0, 8.0))],
                         ids=["spd2", "hyperboloid"])
def test_plane_floor_rejects_only_misses(model, ts):
    # the samples the plane floor rejects are misses: on the 64 with the
    # least margin at each t, the exact stage misses just below the floor.
    # On minimizers built to lie on the conic within 1e-12 of r^2, only
    # the floor's allowance parts a rejected miss from the hits the later
    # stages find, and every decision matches the exact stage
    circle, r2 = _circle(model), R03 * R03
    for t in ts:
        z = model.curve(t)
        lo, hi = model.chart_box(z, R03)
        coords = np.random.default_rng(31).uniform(lo, hi, size=(16384, 2))
        m1, m2 = model._matrices(z, coords)
        (a11, _, a22), *_ = _handed(m1, m2, circle)
        floor = volume._plane_floor(m1, m2, a11, a22)
        rejected = np.flatnonzero(floor > r2)
        assert 0 < len(rejected) < len(coords) - model.membership_chart(z, coords, R03).sum()
        tight = rejected[np.argsort(floor[rejected])[:64]]
        assert not _exact(model, z, coords[tight], np.nextafter(floor[tight], -np.inf)).any()
    m1, m2 = _on_conic_minimizers(np.random.default_rng(59), circle, 1024, r2)
    (a11, _, a22), *_ = _handed(m1, m2, circle)
    rejected = volume._plane_floor(m1, m2, a11, a22) > r2
    hits = volume._conic_hits(m1, m2, circle, r2)
    assert (hits == volume._exact_hits(m1, m2, circle, r2)).all()
    # hits, rejected misses and misses left to the later stages all occur
    assert min(hits.sum(), rejected.sum(), (~hits & ~rejected).sum()) > 128


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


@pytest.mark.parametrize("model, ts, digest", [
    (SPD2Model(), (8.0, 10.0), "eb472a4b4ea593cc36e7138f94f9fe0db1ebb4578339c4d808128c8a6d7b088f"),
    (HyperboloidModel(), (8.0, 8.35),
     "a74d39e240aedf9efc5e0894b91c186c9cc1476a1b72f68b581110776ebc751b"),
], ids=["spd2", "hyperboloid"])
def test_large_t_decisions_are_frozen(model, ts, digest):
    # at large t the bounds leave the most samples to the exact stage, so a
    # change to the bounds moves load there: the packed decisions on one
    # seeded batch at each of the model's largest points hash as before
    sha = hashlib.sha256()
    for t in ts:
        z = model.curve(t)
        lo, hi = model.chart_box(z, R03)
        coords = np.random.default_rng(53).uniform(lo, hi, size=(volume.BATCH, 2))
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
        w = act(model, random_ball_element(rng, edge), z)
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


@pytest.mark.parametrize("model", [PlaneModel(), ConeModel()], ids=["plane", "cone"])
def test_plane_float_range_keeps_the_scaling_law_at_its_ends(model):
    # with z and the samples scaled by 2^k, the decisions at the ends of the
    # plane's float range, 1e-38 <= |z| <= 1e38 / (1 + 4 r), are those at
    # |z| = 1 bit for bit (the cone at (0, 4^k, 0), whose lift is (2^k, 0)),
    # and just past either end chart_box refuses the point
    def base_point(k):
        return (np.array([2.0 ** k, 0.0]) if isinstance(model, PlaneModel)
                else np.array([0.0, 4.0 ** k, 0.0]))

    lo, hi = model.chart_box(base_point(0), R03)
    coords = np.random.default_rng(67).uniform(lo, hi, size=(volume.BATCH, 2))
    hits = model.membership_chart(base_point(0), coords, R03)
    assert hits.any() and not hits.all()
    for k in (-126, 125):
        z = base_point(k)
        assert all(np.array_equal(e, 2.0 ** k * b) for e, b in zip(model.chart_box(z, R03), (lo, hi)))
        assert np.array_equal(model.membership_chart(z, 2.0 ** k * coords, R03), hits)
    for k in (-127, 126):
        with pytest.raises(InputError, match=f"{model.name}: the point is outside the "
                                             "model's float range"):
            model.chart_box(base_point(k), R03)


def _mp_real_minimum(mp, quartic, f, extra=()):
    """Least f over the real parts of the roots of `quartic` (highest
    coefficient first) and the points `extra`; every candidate is a real
    point, so this is the exact minimum to working precision."""
    top = max(abs(c) for c in quartic)
    while abs(quartic[0]) < mp.mpf(10) ** -60 * top:  # a root at infinity
        quartic = quartic[1:]
    roots = mp.polyroots(quartic, maxsteps=200, extraprec=300)
    return min(f(mp.re(x)) for x in [*roots, *extra])


def _mp_spd2_factors(mp, t, coord):
    """q = sqrt(W) for the chart point (u, tau) and p^{-1} = P^{-1/2} for
    the curve point P at t, at working precision."""
    eye = mp.eye(2)
    p = mp.diag([mp.exp(2 * t), mp.exp(-2 * t)])
    u, tau = (mp.mpf(float(c)) for c in coord)
    w = mp.matrix([[(1 + u * u) / mp.exp(tau), u], [u, mp.exp(tau)]])
    return ((w + eye) / mp.sqrt(w[0, 0] + w[1, 1] + 2),
            ((p + eye) / mp.sqrt(p[0, 0] + p[1, 1] + 2)) ** -1)


def _mp_rotation(mp, phi):
    return mp.matrix([[mp.cos(phi), -mp.sin(phi)], [mp.sin(phi), mp.cos(phi)]])


def _mp_spd2_minimum(mp, t, coord):
    """min over phi of ||q R(phi) p^{-1} - 1||_F^2 for the curve point at t
    and the chart point (u, tau), its trig coefficients taken by a 5-point
    DFT of the matrix form."""
    eye = mp.eye(2)
    q, p_inv = _mp_spd2_factors(mp, t, coord)

    def f(phi):
        return mp.norm(q * _mp_rotation(mp, phi) * p_inv - eye, 2) ** 2

    phis = [2 * mp.pi * j / 5 for j in range(5)]
    vals = [f(phi) for phi in phis]
    p2, q2, p1, q1 = (2 * mp.fsum(v * trig(k * phi) for v, phi in zip(vals, phis)) / 5
                      for k, trig in ((2, mp.cos), (2, mp.sin), (1, mp.cos), (1, mp.sin)))
    # with x = tan(phi/2), f'(phi) (1 + x^2)^2 is this quartic; phi = pi is
    # the one angle the substitution misses
    quartic = [2 * q2 - q1, 8 * p2 - 2 * p1, -12 * q2, -8 * p2 - 2 * p1, 2 * q2 + q1]
    return _mp_real_minimum(mp, quartic, lambda x: f(2 * mp.atan(x)), extra=[mp.inf])


def _mp_hyperboloid_matrices(mp, t, coord):
    """g = q_w q_z^{-1}, which takes the curve point X_z at t to the chart
    point X_w at (psi, delta), and h = g X_z, at working precision.  q is
    the chart's conjugator R(psi/2) B(s), B(s) = exp(s [[0, 1], [1, 0]]) and
    sinh 2s = -delta; q H q^{-1} is checked against X built from the chart."""
    def conjugator(psi, delta):
        s = -mp.asinh(delta) / 2
        return _mp_rotation(mp, psi / 2) * mp.matrix([[mp.cosh(s), mp.sinh(s)],
                                                      [mp.sinh(s), mp.cosh(s)]])

    def orbit_point(psi, delta):  # [[a, b], [c, -a]] with a = rho cos psi, (b + c)/2 = rho sin psi
        rho = mp.sqrt(1 + delta * delta)
        a, beta = rho * mp.cos(psi), rho * mp.sin(psi)
        return mp.matrix([[a, beta + delta], [beta - delta, -a]])

    psi, delta = (mp.mpf(float(c)) for c in coord)
    x_z = mp.matrix([[mp.cosh(2 * t), -mp.sinh(2 * t)], [mp.sinh(2 * t), -mp.cosh(2 * t)]])
    q_w, q_z = conjugator(psi, delta), conjugator(0, -mp.sinh(2 * t))
    for q, x in ((q_w, orbit_point(psi, delta)), (q_z, x_z)):
        assert mp.norm(q * mp.diag([1, -1]) * q ** -1 - x, 2) < mp.mpf(10) ** -50 * mp.norm(x, 2)
    g = q_w * q_z ** -1
    return g, g * x_z


def _mp_hyperboloid_minimum(mp, t, coord):
    """min over s and both signs of ||+-g0 exp(s X_z) - 1||_F^2 for the
    curve point at t and the chart point (psi, delta)."""
    eye = mp.eye(2)
    g, h = _mp_hyperboloid_matrices(mp, t, coord)

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


ORACLE_TS = (0.0, 4.0, 6.0, 7.0, 7.5, 8.0, 8.35)


# spd2's also at the end of its float range
@pytest.mark.parametrize("model, oracle, t", [
    *(pytest.param(SPD2Model(), _mp_spd2_minimum, t, id=f"spd2-{t}") for t in (*ORACLE_TS, SPD2_T)),
    *(pytest.param(HyperboloidModel(), _mp_hyperboloid_minimum, t, id=f"hyperboloid-{t}")
      for t in ORACLE_TS)])
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


@pytest.mark.parametrize("t", [0.0, 4.0, 8.0])
def test_hyperboloid_matrices_are_the_halves_of_g_plus_minus_h(t):
    # M1 and M2 are (g + h)/2 and (g - h)/2 of the oracle's g and h, each
    # entry within a few ulps of the matrix's size
    mp = pytest.importorskip("mpmath").mp
    model = HyperboloidModel()
    z = model.curve(t)
    lo, hi = model.chart_box(z, R03)
    coords = np.random.default_rng(71).uniform(lo, hi, size=(32, 2))
    m1, m2 = model._matrices(z, coords)
    with mp.workdps(60):
        for i, coord in enumerate(coords):
            g, h = _mp_hyperboloid_matrices(mp, mp.mpf(t), coord)
            for m, half in ((m1, (g + h) / 2), (m2, (g - h) / 2)):
                want = np.array([float(half[j, k]) for j in (0, 1) for k in (0, 1)])
                got = np.array([e[i] for e in m])
                assert np.abs(got - want).max() <= 8 * EPS * np.abs(want).max(), (t, i)


@pytest.mark.parametrize("t", [0.0, 4.0, 8.0])
def test_spd2_matrices_give_the_distance_along_the_circle(t):
    # ||cos phi M1 + sin phi M2 - 1||^2 is ||q R(phi) p^{-1/2} - 1||^2 of the
    # oracle's q and p^{-1/2}, at 60 digits and random phi, within a few
    # ulps of |f|'s size
    mp = pytest.importorskip("mpmath").mp
    model = SPD2Model()
    z = model.curve(t)
    lo, hi = model.chart_box(z, R03)
    rng = np.random.default_rng(73)
    coords = rng.uniform(lo, hi, size=(32, 2))
    phis = rng.uniform(-math.pi, math.pi, size=32)
    m1, m2 = model._matrices(z, coords)
    with mp.workdps(60):
        eye = mp.eye(2)
        for i, (coord, phi) in enumerate(zip(coords, phis)):
            q, p_inv = _mp_spd2_factors(mp, mp.mpf(t), coord)
            phi = mp.mpf(phi)
            want = mp.norm(q * _mp_rotation(mp, phi) * p_inv - eye, 2) ** 2
            n1, n2 = (mp.matrix([[m[0][i], m[1][i]], [m[2][i], m[3][i]]]) for m in (m1, m2))
            got = mp.norm(mp.cos(phi) * n1 + mp.sin(phi) * n2 - eye, 2) ** 2
            size = (mp.norm(n1, 2) + mp.norm(n2, 2) + mp.sqrt(2)) ** 2
            assert abs(got - want) <= 8 * EPS * size, (t, i)


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

    @staticmethod
    def _record_forks(monkeypatch):
        """A list that grows by one entry per child the estimator forks."""
        forks = []
        fork = os.fork

        def recording_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", recording_fork)
        return forks

    @staticmethod
    def _usable_cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)

    @staticmethod
    def _refuse_fork(monkeypatch):
        def fork():
            raise AssertionError("the estimator forked")
        monkeypatch.setattr(os, "fork", fork)

    @pytest.mark.parametrize("seed", [0, 5, 42, 2 ** 40 + 3])
    def test_batch_draw_is_numpy_uniform_bit_for_bit(self, seed, monkeypatch):
        """The coords `_batch_hits` hands a model are the doubles of
        rng.uniform(lo, hi, size=(count, dim)) on the batch's substream."""
        boxes = [model.chart_box(model.curve(t), R03)
                 for model in (PlaneModel(), SPD2Model(), ConeModel(), HyperboloidModel())
                 for t in (-2.0, 0.0, 3.5)]
        boxes += [(np.array(lo), np.array(hi)) for lo, hi in [
            ([0.0, 1.0], [5e-324, 1.0 + EPS]),  # tiny
            ([-1e307, 1e300], [1e307, 1e308]),  # huge
            ([-7.5, -3.0], [-2.25, -1e-9])]]  # negative
        handed = []
        monkeypatch.setattr(PlaneModel, "membership_chart",
                            lambda self, z, coords, radius: handed.append(coords) or coords[:, 0] > 0)
        for point, (lo, hi) in enumerate(boxes):
            for batch, count in enumerate((volume.BATCH, 1000, 1)):  # 1000, 1: short last batches
                volume._batch_hits(PlaneModel(), R03, seed, None, lo, hi, point, batch, count)
                rng = np.random.default_rng(np.random.SeedSequence([seed, point, batch]))
                expected = rng.uniform(lo, hi, size=(count, 2))
                assert handed[-1].shape == (count, 2)
                assert np.array_equal(handed[-1].view(np.int64), expected.view(np.int64))
        assert len(handed) == 3 * len(boxes)

    def test_worker_count_does_not_change_bytes(self, monkeypatch):
        """The call takes one share per usable CPU, at most one per
        (point, batch) task, and runs the first itself: W shares fork W - 1
        children.  The CSV is the same at 1 and 4 usable CPUs on any host;
        one CPU runs the tasks in this process."""
        forks = self._record_forks(monkeypatch)
        csvs = []
        for cpus in (1, 4):
            self._usable_cpus(monkeypatch, cpus)
            with monkeypatch.context() as inline:
                if cpus == 1:
                    self._refuse_fork(inline)
                # three points of five batches: 15 tasks
                csvs.append(volume_along_curve(SPD2Model(), [0.0, 0.5, 1.0],
                                               R03, 70_000, 42).to_csv())
        assert csvs[0] == csvs[1]
        assert len(forks) == 3
        # two tasks: two shares, so one child, not three; one task runs inline
        estimate_volume(SPD2Model(), SPD2Model().curve(0.0), R03, 20_000, 42)
        assert len(forks) == 4
        self._refuse_fork(monkeypatch)
        estimate_volume(SPD2Model(), SPD2Model().curve(0.0), R03, 16_384, 42)
        assert len(forks) == 4

    @staticmethod
    def _no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _by_process(monkeypatch, in_parent, in_child):
        """Call in_parent() in this process, or in_child() in a forked one,
        before spd2 builds its matrices."""
        matrices = SPD2Model._matrices
        parent = os.getpid()

        def split(self, z, coords):
            (in_parent if os.getpid() == parent else in_child)()
            return matrices(self, z, coords)

        monkeypatch.setattr(SPD2Model, "_matrices", split)

    def test_no_child_process_is_left(self, monkeypatch):
        """Every child is reaped, whether the call returns or raises."""
        forks = self._record_forks(monkeypatch)
        self._usable_cpus(monkeypatch, 2)
        volume_along_curve(PlaneModel(), [0.0, 1.0], R03, 20_000, 3)
        self._no_child_left()
        # the second point's refusal is raised in a child: a fault put into
        # the model's matrices, which the forked children inherit
        with monkeypatch.context() as fault:
            refuse_in_workers(fault)
            with pytest.raises(InputError, match="^spd2: refused in a worker$"):
                volume_along_curve(SPD2Model(), [0.0, 1.0], R03, 20_000, 3)
        self._no_child_left()

        # the parent's own share raises while its child sleeps: the child
        # is killed, not waited for
        def refuse():
            raise InputError("spd2: refused in the parent")

        with monkeypatch.context() as fault:
            self._by_process(fault, refuse, lambda: time.sleep(60.0))
            start = time.monotonic()
            with pytest.raises(InputError, match="^spd2: refused in the parent$"):
                volume_along_curve(SPD2Model(), [0.0, 1.0], R03, 20_000, 3)
            assert time.monotonic() - start < 30.0
        self._no_child_left()

        # a child's exception that pickle cannot send ends the call with an
        # error instead of a hang
        class Unpicklable(Exception):
            pass

        def raise_unpicklable():
            raise Unpicklable("a local class pickles by a name that does not resolve")

        with monkeypatch.context() as fault:
            self._by_process(fault, lambda: None, raise_unpicklable)
            with pytest.raises(RuntimeError, match="^an estimator worker ended with exit code 1$"):
                volume_along_curve(SPD2Model(), [0.0, 1.0], R03, 20_000, 3)
        self._no_child_left()
        assert len(forks) == 4

    @pytest.mark.parametrize("model, t, message", [
        (SPD2Model(), 10.01, r"float range tr P <= 4\.9e8"),
        (HyperboloidModel(), 8.4, r"float range rho = sqrt\(a\^2 \+ beta\^2\) <= 9\.0e6"),
    ], ids=["spd2", "hyperboloid"])
    def test_out_of_range_point_is_refused_before_any_batch(self, model, t, message,
                                                            monkeypatch):
        # the parent checks the float range with the box, so a grid whose
        # last point is out of range samples nothing, in process or forked
        calls = []
        batch_hits = volume._batch_hits
        monkeypatch.setattr(volume, "_batch_hits",
                            lambda *args: calls.append(args) or batch_hits(*args))
        for cpus in (1, 2):
            with monkeypatch.context() as inner:
                self._usable_cpus(inner, cpus)
                self._refuse_fork(inner)
                with pytest.raises(InputError, match=message):
                    volume_along_curve(model, [0.0, 1.0, t], R03, 20_000, 3)
        assert calls == []

    def test_sampling_errors_are_raised_before_any_fork(self, monkeypatch):
        self._usable_cpus(monkeypatch, 2)
        self._refuse_fork(monkeypatch)
        model = SPD2Model()
        for radius, samples, seed, message in [
                (-R03, 20_000, 0, "radius must be positive"), (R03, 20_000, -1, "seed"),
                (R03, 999, 0, "at least 1000"), (R03, 10 ** 8 + 1, 0, "at most"),
                (1.0, 20_000, 0, "radius domain")]:
            with pytest.raises(InputError, match=message):
                volume_along_curve(model, [0.0, 1.0], radius, samples, seed)
        # a refused later point stops the grid before the first is sampled
        with pytest.raises(InputError, match="t = 400"):
            volume_along_curve(model, [0.0, 400.0], R03, 20_000, 0)

    def test_call_sample_cap_is_checked_before_any_box_or_fork(self, monkeypatch):
        # the (point, batch) task list is built only for a call of at most
        # 10^9 samples over the grid, so a larger call builds no box first
        self._usable_cpus(monkeypatch, 2)
        self._refuse_fork(monkeypatch)
        model = SPD2Model()

        def chart_box(z, radius):
            raise AssertionError("a box was built")

        monkeypatch.setattr(model, "chart_box", chart_box)
        for points, samples in ((11, 10 ** 8), (100_000, 10_001)):
            with pytest.raises(InputError, match=rf"^need at most 1000000000 samples in one "
                                                 rf"call, got {points} points x {samples}$"):
                volume_along_curve(model, [0.0] * points, R03, samples, 0)
        with pytest.raises(AssertionError, match="a box was built"):
            volume_along_curve(model, [0.0] * 10, R03, 10 ** 8, 0)

    def test_rotation_invariance_plane_and_spd2(self):
        for model, z in ((PlaneModel(), np.array([0.5, -0.8])),
                         (SPD2Model(), SPD2Model().curve(1.0))):
            base, se = estimate_volume(model, z, R03, 50_000, 7)
            moved = act(model, rotation(0.9), z)
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
