"""Monte Carlo volume estimation on concrete homogeneous space models.

Each model packages a space Z with an invariant measure, a base point,
a curve t -> a_t z0, an exact membership test "is w reachable from z by
a group element in the ball B_r", and an adaptive sampling box.  The
ball is B_r = {g in SL(2,R): ||g - 1||_F <= r}; for determinant-one
2x2 matrices ||g^{-1} - 1||_F = ||g - 1||_F, so B_r is automatically
inverse-closed and membership is symmetric in (z, w).

Estimation is hit-or-miss: every chart carries the invariant measure
as Lebesgue measure, so sample the box uniformly, count hits and
multiply the hit rate by box measure.  Sampling is batched with
substreams keyed by (seed, point index, batch index), so results are
bit-identical for a fixed seed at any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import EmptyBox, InputError, TooFewPoints

BATCH = 16384


def _quartic_roots(a4, a3, a2, a1, a0):
    """Real roots of batched quartics via companion eigenvalues.

    Returns an (N, 4) array with non-real or absent roots set to nan.
    Coefficients are normalized per sample; a vanishing leading
    coefficient is nudged, which sends the lost root to a huge value
    that downstream evaluation treats like the point at infinity.
    """
    stack = np.stack([a4, a3, a2, a1, a0])
    scale = np.abs(stack).max(axis=0)
    a4, a3, a2, a1, a0 = stack / np.where(scale > 0.0, scale, 1.0)
    lead = np.where(np.abs(a4) < 1e-13, np.where(a4 >= 0, 1e-13, -1e-13), a4)
    comp = np.zeros((len(lead), 4, 4))
    comp[:, 0] = -np.stack([a3, a2, a1, a0], axis=1) / lead[:, None]
    comp[:, [1, 2, 3], [0, 1, 2]] = 1.0
    roots = np.linalg.eigvals(comp)
    real = np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots.real))
    return np.where(real, roots.real, np.nan)


def _symmetric(v, im2):
    """Elementary symmetric functions of four roots (real parts v, squared
    imaginary parts im2), paired (0, 1), (2, 3)."""
    sa, sb, pa, pb = v[0] + v[1], v[2] + v[3], v[0] * v[1] + im2[0], v[2] * v[3] + im2[2]
    return sa + sb, pa + pb + sa * sb, pa * sb + pb * sa, pa * pb


@np.errstate(all="ignore")
def _quartic_candidates(a4, a3, a2, a1, a0):
    """Real parts x (4, N) of all four roots of batched quartics, and the
    mask of samples settled in closed form; the rest need `_quartic_roots`.

    Ferrari in real arithmetic on the monic quartic, reversed (roots 1/x)
    where |a0| > |a4|: the largest real root of the resolvent cubic is
    never negative (Cardano or the trigonometric form, then one Newton
    step).  Unsettled: a leading coefficient at most 1e-3 after
    normalization, a Vieta relation missed by more than 1e-7 times the
    same function of the root moduli, or a root that is not finite.
    Two Newton steps polish each real part; a step is kept only where |f|
    drops, since from between two near-double roots it jumps far away.
    """
    c = np.stack([a4, a3, a2, a1, a0])
    c = c / np.where(c.any(axis=0), np.abs(c).max(axis=0), 1.0)
    flip = np.abs(c[4]) > np.abs(c[0])
    solved = np.where(flip, c[::-1], c)
    settled = np.abs(solved[0]) > 1e-3
    b3, b2, b1, b0 = solved[1:] / np.where(settled, solved[0], 1.0)
    # depressed y^4 + p y^2 + q y + r, x = y - h; resolvent cubic
    # z^3 + 2p z^2 + e z - q^2 in z = s^2, depressed at z = w - 2p/3
    h = b3 / 4.0
    p = b2 - 6.0 * h * h
    q = b1 - 2.0 * b2 * h + 8.0 * h * h * h
    r = b0 - b1 * h + b2 * h * h - 3.0 * h * h * h * h
    e, big_p = p * p - 4.0 * r, -p * p / 3.0 - 4.0 * r
    big_q = -2.0 * p * p * p / 27.0 + 8.0 * p * r / 3.0 - q * q
    disc = big_q * big_q / 4.0 + big_p * big_p * big_p / 27.0
    u = np.cbrt(-big_q / 2.0 - np.copysign(np.sqrt(disc), big_q))
    m = np.sqrt(-big_p / 3.0)
    trig = 2.0 * m * np.cos(np.arccos(np.clip(-big_q / (2.0 * m * m * m), -1.0, 1.0)) / 3.0)
    z = np.where(disc >= 0.0, u - big_p / (3.0 * u), trig) - 2.0 * p / 3.0
    z = z - (((z + 2.0 * p) * z + e) * z - q * q) / ((3.0 * z + 4.0 * p) * z + e)
    roots, im2 = [], []
    for b in (np.sqrt(z), -np.sqrt(z)):
        # y^2 + b y + k, the larger root first; a complex pair has real
        # parts -b/2 and squared imaginary parts -dd/4
        k = (p + z - q / b) / 2.0
        dd = z - 4.0 * k
        y1 = -(b + np.copysign(np.sqrt(dd * (dd >= 0.0)), b)) / 2.0
        roots += [y1 - h, np.where(dd >= 0.0, k / y1, y1) - h]
        im2 += [np.maximum(-dd, 0.0) / 4.0] * 2
    x, im2 = np.stack(roots), np.stack(im2)
    size = _symmetric(np.sqrt(x * x + im2), np.zeros_like(im2))
    for got, want, bound in zip(_symmetric(x, im2), (-b3, b2, -b1, b0), size):
        settled &= np.abs(got - want) < 1e-7 * bound  # false for inf, nan
    # the real part of 1/(x + i im) is x / (x^2 + im^2)
    x = np.where(flip, x / (x * x + im2), x)
    settled &= np.isfinite(x + im2).all(axis=0)
    fx, slope = np.polyval(c, x), c[:4] * np.array([[4.0], [3.0], [2.0], [1.0]])
    for _ in range(2):
        step = x - fx / np.polyval(slope, x)
        f_step = np.polyval(c, step)
        better = np.abs(f_step) < np.abs(fx)
        x, fx = np.where(better, step, x), np.where(better, f_step, fx)
    return x, settled


@np.errstate(all="ignore")
def _quartic_minimum(quartic, value, margin, r2):
    """Minimum of a model's distance over the real roots of its critical
    quartic, per sample.

    `value(x, rows)` is the distance at candidates x (4, n) of the samples
    `rows`.  The candidates are Ferrari's from `_quartic_candidates`;
    samples it leaves unsettled, with a non-finite value, or with a minimum
    within `margin` of r2 take theirs from one `_quartic_roots` solve
    instead, under the same `value`, where non-finite counts as +inf.
    """
    x, settled = _quartic_candidates(*quartic)
    vals = value(x, slice(None))
    best = vals.min(axis=0)
    refer = ~(settled & np.isfinite(vals).all(axis=0) & (np.abs(best - r2) > margin))
    vals = value(_quartic_roots(*(c[refer] for c in quartic)).T, refer)
    best[refer] = np.where(np.isfinite(vals), vals, np.inf).min(axis=0)
    return best


def _require_finite(model_name, coefs):
    """The membership coefficients, or InputError if any is not finite."""
    if not all(np.isfinite(c).all() for c in coefs):
        raise InputError(
            f"{model_name}: the base point is outside the model's float "
            "range (membership coefficients are not finite)")
    return coefs


class SpaceModel:
    """Shared plumbing; concrete models fill in the geometry."""

    name = "abstract"
    chart_dim = 0

    def base_point(self):
        raise NotImplementedError

    def curve(self, t: float):
        raise NotImplementedError

    def chart_box(self, z, radius: float):
        raise NotImplementedError

    def membership_chart(self, z, coords: np.ndarray, radius: float) -> np.ndarray:
        raise NotImplementedError

    def membership(self, z, w, radius: float) -> bool:
        raise NotImplementedError

    def apply(self, g: np.ndarray, point):
        raise NotImplementedError

    def __repr__(self):
        return f"SpaceModel({self.name})"


# ---------------------------------------------------------------------------
# R^2 minus the origin: the model of SL(2,R)/N


class PlaneModel(SpaceModel):
    """Z = R^2 \\ {0} with the linear SL(2,R) action and Lebesgue measure.

    Membership has a closed form: solutions of g z = w in SL(2,R) form
    the affine line g(s) = g0 + s * w (z-perp)^T, and ||g(s) - 1||_F^2
    is an explicit quadratic in s.
    """

    name = "sl2-mod-n"
    chart_dim = 2

    def base_point(self):
        return np.array([1.0, 0.0])

    def curve(self, t: float):
        return np.array([math.exp(t), 0.0])

    def chart_box(self, z, radius: float):
        z = np.asarray(z, dtype=float)
        nz = float(np.hypot(z[0], z[1]))
        half = 2.0 * radius * nz
        if not (half > 0.0 and np.isfinite(half)):
            raise EmptyBox("point too close to the deleted origin")
        return z - half, z + half

    def membership_chart(self, z, coords, radius):
        z = np.asarray(z, dtype=float)
        w1, w2 = coords[:, 0], coords[:, 1]
        z1, z2 = float(z[0]), float(z[1])
        nz2 = z1 * z1 + z2 * z2
        nw2 = w1 * w1 + w2 * w2
        ok = nw2 > 0.0
        lam = np.where(ok, nz2 / np.where(ok, nw2, 1.0), 0.0)
        # g0 = [w | lam*w_perp] [z | z_perp]^{-1}, the det-1 particular solution
        a = (z1 * w1 + z2 * lam * w2) / nz2
        b = (z2 * w1 - z1 * lam * w2) / nz2
        c = (z1 * w2 - z2 * lam * w1) / nz2
        d = (z2 * w2 + z1 * lam * w1) / nz2
        # direction D = w (z_perp)^T; f(s) = ||G + s D||^2 with G = g0 - 1
        ga, gb, gc, gd = a - 1.0, b, c, d - 1.0
        da, db = -z2 * w1, z1 * w1
        dc, dd = -z2 * w2, z1 * w2
        g_dot_d = ga * da + gb * db + gc * dc + gd * dd
        d_norm2 = np.where(ok, nw2 * nz2, 1.0)
        g_norm2 = ga * ga + gb * gb + gc * gc + gd * gd
        fmin = g_norm2 - g_dot_d * g_dot_d / d_norm2
        return ok & (fmin <= radius * radius)

    def membership(self, z, w, radius):
        return bool(self.membership_chart(z, np.asarray(w, dtype=float)[None, :],
                                          radius)[0])

    def apply(self, g, point):
        return np.asarray(g, dtype=float) @ np.asarray(point, dtype=float)


# ---------------------------------------------------------------------------
# unit-determinant positive matrices: the model of SL(2,R)/SO(2)


class SPD2Model(SpaceModel):
    """Z = {P symmetric positive definite, det P = 1}, action g.P = gPg^T.

    Chart (u, tau) = (P12, log P22) carries the invariant measure as the
    plain Lebesgue measure du dtau.  Membership reduces to minimizing
    ||q R(phi) p^{-1} - 1||_F^2 over the rotation angle, a trig
    polynomial with harmonics at phi and 2*phi (the second harmonic
    vanishes only at the identity base point).  Its critical points are
    the real roots of a quartic in tan(phi/2), so the global minimum is
    found exactly; grid search misses the razor-thin valleys that appear
    once the base point is strongly stretched.

    With f = k0 + p2 cos 2phi + q2 sin 2phi + p1 cos phi + q1 sin phi,
    every value of f is at least k0 - |(p2, q2)| - |(p1, q1)|.  A sample
    whose floor exceeds r^2 by 1e-9 (|k0| + |(p2, q2)| + |(p1, q1)|) is
    a miss without a root solve: the float values the root path compares
    carry rounding of order 1e-15 times that same sum, six orders below
    the margin, so no skipped sample could have been a hit.  Only the
    remaining samples reach the quartic.

    `_quartic_minimum` takes f, rational in tan(phi/2) (`_distance`), at
    the real parts of all four closed-form roots: actual angles, so never
    below the true minimum, and a near-double root split into a complex
    pair keeps its real part.  Samples it cannot settle within the margin
    get their roots from one eigvals solve, under the same `_distance`.
    phi = pi, the one angle the substitution misses, is taken separately.
    """

    name = "spd2"
    chart_dim = 2

    def base_point(self):
        return np.eye(2)

    def curve(self, t: float):
        return np.diag([math.exp(2.0 * t), math.exp(-2.0 * t)])

    @staticmethod
    def _sqrt_spd(p: np.ndarray) -> np.ndarray:
        # closed form for 2x2 SPD with det 1: sqrt(P) = (P + I)/sqrt(tr P + 2)
        return (p + np.eye(2)) / math.sqrt(p[0, 0] + p[1, 1] + 2.0)

    def to_chart(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return np.array([p[0, 1], math.log(p[1, 1])])

    def chart_box(self, z, radius: float):
        p = np.asarray(z, dtype=float)
        evals = np.linalg.eigvalsh(p)
        sig = math.sqrt(float(evals[-1]))
        lam_min = float(evals[0])
        if lam_min <= 0.0:
            raise EmptyBox("base point is not positive definite")
        sq11, sq22 = math.sqrt(p[0, 0]), math.sqrt(p[1, 1])
        # exact reachability bounds: w22 = ||L(e2+v)||^2 with ||v|| <= r,
        # w12 = (L(e1+v'), L(e2+v)); the linearized box misses the
        # quadratic term that dominates for stretched base points
        u_half = radius * sig * (sq11 + sq22 + radius * sig)
        w22_hi = (sq22 + radius * sig) ** 2
        w22_lo = lam_min * (1.0 - radius) ** 2
        if not (w22_lo > 0.0 and u_half > 0.0):
            raise EmptyBox("degenerate base point")
        lo = np.array([p[0, 1] - 2.0 * u_half, math.log(w22_lo)])
        hi = np.array([p[0, 1] + 2.0 * u_half, math.log(w22_hi)])
        return lo, hi

    def _angle_coefficients(self, z, coords):
        """(k0, p2, q2, p1, q1) of the distance as a trig polynomial,
        f(phi) = k0 + p2 cos 2phi + q2 sin 2phi + p1 cos phi + q1 sin phi."""
        p = np.asarray(z, dtype=float)
        p_inv = np.linalg.inv(self._sqrt_spd(p))
        big_p_inv = np.linalg.inv(p)
        beta = (big_p_inv[0, 0] + big_p_inv[1, 1]) / 2.0
        b1 = big_p_inv[0, 0] - beta
        b2 = big_p_inv[0, 1]

        u, tau = coords[:, 0], coords[:, 1]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w22 = np.exp(tau)
            w11 = (1.0 + u * u) / w22
            alpha = (w11 + w22) / 2.0
            a1 = (w11 - w22) / 2.0
            a2 = u
            # q = sqrt(W) = (W + I)/sqrt(tr W + 2); C = p^{-1/2-inv} q
            s = np.sqrt(w11 + w22 + 2.0)
            q11, q12, q22 = (w11 + 1.0) / s, u / s, (w22 + 1.0) / s
            c11 = p_inv[0, 0] * q11 + p_inv[0, 1] * q12
            c12 = p_inv[0, 0] * q12 + p_inv[0, 1] * q22
            c21 = p_inv[1, 0] * q11 + p_inv[1, 1] * q12
            c22 = p_inv[1, 0] * q12 + p_inv[1, 1] * q22

            k0 = 2.0 * alpha * beta + 2.0
            p2 = 2.0 * (a1 * b1 + a2 * b2)
            q2 = 2.0 * (a2 * b1 - a1 * b2)
            p1 = -2.0 * (c11 + c22)
            q1 = -2.0 * (c12 - c21)
        return _require_finite(self.name, (k0, p2, q2, p1, q1))

    @staticmethod
    def _angle_quartic(p2, q2, p1, q1):
        # critical points: with t = tan(phi/2), f'(phi)(1+t^2)^2 is this
        # quartic; phi = pi is the one point the substitution misses
        return (2.0 * q2 - q1, 8.0 * p2 - 2.0 * p1, -12.0 * q2,
                -8.0 * p2 - 2.0 * p1, 2.0 * q2 + q1)

    @staticmethod
    def _distance(x, k0, p2, q2, p1, q1):
        # f at phi = 2 atan(x), rational in x
        cos1, sin1 = (1.0 - x * x) / (1.0 + x * x), 2.0 * x / (1.0 + x * x)
        return (k0 + p2 * (cos1 * cos1 - sin1 * sin1)
                + q2 * (2.0 * sin1 * cos1) + p1 * cos1 + q1 * sin1)

    def membership_chart(self, z, coords, radius):
        coefs = self._angle_coefficients(z, coords)
        k0, p2, q2, p1, q1 = coefs
        r2 = radius * radius
        amp2, amp1 = np.hypot(p2, q2), np.hypot(p1, q1)
        # f >= k0 - amp2 - amp1 at every phi, so a floor clear of r^2 by
        # the margin is a certified miss; only the rest need the roots
        margin = 1e-9 * (np.abs(k0) + amp2 + amp1)
        undecided = k0 - amp2 - amp1 <= r2 + margin
        k0, p2, q2, p1, q1 = coefs = tuple(c[undecided] for c in coefs)
        best = _quartic_minimum(
            self._angle_quartic(p2, q2, p1, q1),
            lambda x, rows: self._distance(x, *(c[rows] for c in coefs)),
            margin[undecided], r2)
        hit = np.zeros(len(coords), dtype=bool)
        hit[undecided] = np.minimum(best, k0 + p2 - p1) <= r2
        return hit

    def membership(self, z, w, radius):
        w = np.asarray(w, dtype=float)
        coords = np.array([[w[0, 1], math.log(w[1, 1])]])
        return bool(self.membership_chart(z, coords, radius)[0])

    def apply(self, g, point):
        g = np.asarray(g, dtype=float)
        return g @ np.asarray(point, dtype=float) @ g.T


# ---------------------------------------------------------------------------
# adjoint orbits in sl(2,R) ~ R^3, points (a, b, c) <-> [[a, b], [c, -a]]


def _orbit_matrix(point) -> np.ndarray:
    a, b, c = (float(x) for x in point)
    return np.array([[a, b], [c, -a]])


def _orbit_coords(m: np.ndarray):
    return np.array([m[0, 0], m[0, 1], m[1, 0]])


class ConeModel(SpaceModel):
    """The nilpotent adjoint orbit of E: {a^2 + bc = 0, (b, c) != (0, 0),
    b >= 0 >= c}, i.e. the image of R^2 \\ {0} under the equivariant
    double cover z -> z (z-perp)^T.  The orbit measure pulls back to
    half of Lebesgue measure; sampling one sheet of the cover around the
    lift of z with density 1 counts each orbit point exactly once.
    """

    name = "sl2-orbit-cone"
    chart_dim = 2
    _plane = PlaneModel()

    def base_point(self):
        return np.array([0.0, 1.0, 0.0])  # the matrix E

    def curve(self, t: float):
        return np.array([0.0, math.exp(2.0 * t), 0.0])

    @staticmethod
    def _lift(point) -> np.ndarray:
        a, b, c = (float(x) for x in point)
        if b >= -c:
            if b <= 0.0:
                raise EmptyBox("point is not on the punctured cone")
            z1 = math.sqrt(b)
            return np.array([z1, -a / z1])
        z2 = math.sqrt(-c)
        return np.array([-a / z2, z2])

    def chart_box(self, z, radius: float):
        return self._plane.chart_box(self._lift(z), radius)

    def membership_chart(self, z, coords, radius):
        lift = self._lift(z)
        return (self._plane.membership_chart(lift, coords, radius)
                | self._plane.membership_chart(lift, -coords, radius))

    def membership(self, z, w, radius):
        return bool(self.membership_chart(
            z, self._lift(w)[None, :], radius)[0])

    def apply(self, g, point):
        g = np.asarray(g, dtype=float)
        return _orbit_coords(g @ _orbit_matrix(point) @ np.linalg.inv(g))


class HyperboloidModel(SpaceModel):
    """The adjoint orbit of H: the one-sheeted quadric {a^2 + bc = 1},
    the model of SL(2,R)/SO(1,1).

    With beta = (b+c)/2 and delta = (b-c)/2 the quadric reads
    a^2 + beta^2 - delta^2 = 1; cylindrical coordinates (psi, delta),
    a = rho cos psi, beta = rho sin psi, rho = sqrt(1 + delta^2), give a
    global chart in which the Gelfand-Leray measure of a^2 + bc (i.e.
    da db dc / |grad|) is exactly dpsi ddelta.  Membership: one
    conjugator g0 is built from
    eigenvector matrices, the stabilizer is {+-exp(s X_z)}, and
    ||g0 exp(s X_z) - 1||_F^2 = P cosh 2s + Q sinh 2s + R -+ 2(D cosh s
    + E sinh s) is minimized over s on both sign components.  With
    x = +-e^s on the +-1 component both read
    f = ((P+Q) x^2 + (P-Q) / x^2) / 2 + R - (D+E) x - (D-E) / x
    (`_distance`), so the real roots of one quartic in x are the critical
    points of both: the positive ones of the +1 component, the negative
    ones of the -1 component, and the global minimum is exact.

    `_quartic_minimum` minimizes f as in SPD2Model, with margin
    1e-9 (1 + P).  The float range is |a| <= 9.0e6 (t <= 8.35): there
    the eigenvector determinant rounds by eps (1 + |a|) / 2 < 1e-9 relative.
    """

    name = "sl2-orbit-hyperboloid"
    chart_dim = 2

    def base_point(self):
        return np.array([1.0, 0.0, 0.0])  # the matrix H

    def curve(self, t: float):
        # Ad(exp(t(E+F))) H = cosh(2t) H - sinh(2t) (E - F)
        return np.array([math.cosh(2.0 * t), -math.sinh(2.0 * t),
                         math.sinh(2.0 * t)])

    @staticmethod
    def _diagonalizer(point) -> np.ndarray:
        """p with point = p H p^{-1}, det p = 1 (scalar, exactish floats)."""
        a, b, c = (float(x) for x in point)
        if a >= 0.0:
            v_plus = np.array([1.0 + a, c])
            v_minus = np.array([b, -(1.0 + a)])
        else:
            v_plus = np.array([b, 1.0 - a])
            v_minus = np.array([1.0 - a, -c])
        p = np.column_stack([v_plus, v_minus])
        det = float(np.linalg.det(p))
        if det == 0.0:
            raise EmptyBox(
                "eigenvector determinant of the point cancels to 0 in float; "
                "the point is too far out along the orbit")
        if np.finfo(float).eps * (1.0 + abs(a)) / 2.0 > 1e-9:  # det's rounding
            raise EmptyBox(f"{HyperboloidModel.name}: the point is outside the model's "
                           "float range |a| <= 9.0e6 (t <= 8.35 on the curve)")
        if det < 0.0:
            p[:, 1] = -p[:, 1]
            det = -det
        return p / math.sqrt(det)

    @staticmethod
    def to_chart(point) -> np.ndarray:
        a, b, c = (float(x) for x in point)
        return np.array([math.atan2((b + c) / 2.0, a), (b - c) / 2.0])

    def chart_box(self, z, radius: float):
        a, b, c = (float(x) for x in z)
        beta = (b + c) / 2.0
        delta = (b - c) / 2.0
        rho2 = a * a + beta * beta
        # norms of the bracket rows u -> [u, X] measured in ||u||_F
        bd_a = math.sqrt(2.0 * beta * beta + 2.0 * delta * delta)
        bd_beta = math.sqrt(2.0 * delta * delta + 2.0 * a * a)
        bd_delta = math.sqrt(2.0 * beta * beta + 2.0 * a * a)
        half_psi = 2.0 * radius * (abs(a) * bd_beta + abs(beta) * bd_a) / rho2
        half_psi = min(half_psi, math.pi)
        half_delta = 2.0 * radius * bd_delta
        if not (half_psi > 0.0 and half_delta > 0.0
                and np.isfinite(half_delta)):
            raise EmptyBox("degenerate orbit point")
        psi = math.atan2(beta, a)
        lo = np.array([psi - half_psi, delta - half_delta])
        hi = np.array([psi + half_psi, delta + half_delta])
        return lo, hi

    def from_chart(self, coords):
        psi, delta = coords[:, 0], coords[:, 1]
        rho = np.sqrt(1.0 + delta * delta)
        a = rho * np.cos(psi)
        beta = rho * np.sin(psi)
        return np.column_stack([a, beta + delta, beta - delta])

    def membership_chart(self, z, coords, radius):
        return self._membership_points(z, self.from_chart(coords), radius)

    def _stabilizer_coefficients(self, z, points):
        """(P, Q, R, tr G, tr H) of ||g0 exp(s X_z) - 1||_F^2 per point,
        and the mask of points whose eigenvector matrix is usable."""
        p_z = self._diagonalizer(z)
        p_z_inv = np.linalg.inv(p_z)
        x_z = _orbit_matrix(z)

        a, b, c = points[:, 0], points[:, 1], points[:, 2]
        with np.errstate(over="ignore", invalid="ignore"):
            # per-sample eigenvector matrix q with w = q H q^{-1}, det 1
            pos = a >= 0.0
            v1x = np.where(pos, 1.0 + a, b)
            v1y = np.where(pos, c, 1.0 - a)
            v2x = np.where(pos, b, 1.0 - a)
            v2y = np.where(pos, -(1.0 + a), -c)
            det = v1x * v2y - v1y * v2x
            flip = det < 0.0
            v2x = np.where(flip, -v2x, v2x)
            v2y = np.where(flip, -v2y, v2y)
            det = np.abs(det)
            good = det > 1e-300
            scale = 1.0 / np.sqrt(np.where(good, det, 1.0))
            v1x, v1y, v2x, v2y = (v * scale for v in (v1x, v1y, v2x, v2y))

            # g0 = q p_z^{-1}; G' = g0 X_z
            i11, i12, i21, i22 = p_z_inv.ravel()
            g11 = v1x * i11 + v2x * i21
            g12 = v1x * i12 + v2x * i22
            g21 = v1y * i11 + v2y * i21
            g22 = v1y * i12 + v2y * i22
            x11, x12, x21, x22 = x_z.ravel()
            h11 = g11 * x11 + g12 * x21
            h12 = g11 * x12 + g12 * x22
            h21 = g21 * x11 + g22 * x21
            h22 = g21 * x12 + g22 * x22

            norm_g = g11 ** 2 + g12 ** 2 + g21 ** 2 + g22 ** 2
            norm_h = h11 ** 2 + h12 ** 2 + h21 ** 2 + h22 ** 2
            cross = g11 * h11 + g12 * h12 + g21 * h21 + g22 * h22
            tr_g = g11 + g22
            tr_h = h11 + h22

            p_co = (norm_g + norm_h) / 2.0
            q_co = cross
            r_co = (norm_g - norm_h) / 2.0 + 2.0
        coefs = (p_co, q_co, r_co, tr_g, tr_h)
        return _require_finite(self.name, coefs), good

    @staticmethod
    def _stabilizer_quartic(p_co, q_co, r_co, tr_g, tr_h):
        # with x = +-e^s on the +-1 component, f'(s) * 2x^2 is this quartic
        return (p_co + q_co, -(tr_g + tr_h), np.zeros_like(p_co),
                tr_g - tr_h, q_co - p_co)

    @staticmethod
    def _distance(x, p_co, q_co, r_co, tr_g, tr_h):
        # f at x = +-e^s, on the component of the sign of x
        inv = 1.0 / x
        return (((p_co + q_co) * x * x + (p_co - q_co) * inv * inv) / 2.0
                + r_co - (tr_g + tr_h) * x - (tr_g - tr_h) * inv)

    def _membership_points(self, z, points, radius):
        coefs, good = self._stabilizer_coefficients(z, points)
        r2 = radius * radius
        best = _quartic_minimum(
            self._stabilizer_quartic(*coefs),
            lambda x, rows: self._distance(x, *(c[rows] for c in coefs)),
            1e-9 * (1.0 + coefs[0]), r2)  # coefs[0] is P
        return good & (best <= r2)

    def membership(self, z, w, radius):
        pt = np.asarray(w, dtype=float)[None, :]
        return bool(self._membership_points(z, pt, radius)[0])

    apply = ConeModel.apply


SPACES = {
    PlaneModel.name: PlaneModel,
    SPD2Model.name: SPD2Model,
    ConeModel.name: ConeModel,
    HyperboloidModel.name: HyperboloidModel,
}


def get_model(name: str) -> SpaceModel:
    if name not in SPACES:
        raise InputError(
            f"unknown space {name!r}; choose one of {sorted(SPACES)}")
    return SPACES[name]()


# ---------------------------------------------------------------------------
# the estimator


def _batch_partial(model, z, lo, hi, radius, seed, point_index, batch_index,
                   count):
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, point_index, batch_index]))
    coords = rng.uniform(lo, hi, size=(count, model.chart_dim))
    return int(np.count_nonzero(model.membership_chart(z, coords, radius)))


def estimate_volume(model: SpaceModel, z, radius: float = 0.3,
                    samples: int = 100_000, seed: int = 0,
                    point_index: int = 0) -> tuple[float, float]:
    """Hit-or-miss volume of the orbit patch B_r . z.

    Returns (estimate, stderr).  Estimate = box measure times the hit
    rate of uniform box samples; stderr propagates the sample variance
    of the hit indicator.
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise InputError("radius must be positive and finite")
    if seed < 0:
        raise InputError("seed must be nonnegative")
    if samples < 1000:
        raise InputError("need at least 1000 samples")
    lo, hi = model.chart_box(z, radius)
    with np.errstate(over="ignore"):
        box_measure = float(np.prod(hi - lo))
    if not (box_measure > 0.0 and np.isfinite(box_measure)):
        raise EmptyBox("sampling box has no volume")

    counts = [BATCH] * (samples // BATCH) + ([samples % BATCH] if samples % BATCH else [])
    batch = partial(_batch_partial, model, z, lo, hi, radius, seed, point_index)
    # numpy releases the GIL in the membership kernels; workers past one
    # per CPU this process may use, or one per batch, only contend
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=min(cpus, len(counts))) as pool:
        hits = list(pool.map(batch, range(len(counts)), counts))
    # each sample scores 0 or 1, so its second moment equals the mean
    mean = sum(hits) / samples
    var = max(mean - mean * mean, 0.0)
    estimate = box_measure * mean
    stderr = box_measure * math.sqrt(var / samples)
    return estimate, stderr


@dataclass
class VolumeSeries:
    """Estimates along a curve plus the fitted log-slope."""

    t_values: list[float]
    estimates: list[float]
    stderrs: list[float]
    samples: int
    seed: int
    radius: float
    space: str
    slope: float | None = None
    intercept: float | None = None
    slope_half_width: float | None = None

    def to_csv(self) -> str:
        lines = ["t,estimate,stderr,samples,seed"]
        for t, est, err in zip(self.t_values, self.estimates, self.stderrs):
            lines.append(f"{t:.17g},{est:.17g},{err:.17g},"
                         f"{self.samples},{self.seed}")
        return "\n".join(lines) + "\n"


def fit_log_slope(series: VolumeSeries) -> tuple[float, float, float]:
    """OLS fit of log(estimate) against t, over positive estimates.

    Returns (slope, intercept, half_width) with half_width twice the
    standard error of the fitted slope.
    """
    pts = [(t, math.log(v)) for t, v in zip(series.t_values, series.estimates)
           if v > 0.0]
    if len(pts) < 4:
        raise TooFewPoints(
            f"need at least 4 positive estimates to fit, have {len(pts)}")
    ts = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    t_bar = ts.mean()
    s_tt = float(((ts - t_bar) ** 2).sum())
    if s_tt == 0.0:
        raise TooFewPoints("grid points must not coincide")
    slope = float(((ts - t_bar) * (ys - ys.mean())).sum() / s_tt)
    intercept = float(ys.mean() - slope * t_bar)
    resid = ys - (intercept + slope * ts)
    dof = max(len(pts) - 2, 1)
    se = math.sqrt(float((resid ** 2).sum()) / dof / s_tt)
    return slope, intercept, 2.0 * se


def volume_along_curve(model: SpaceModel, t_grid=(), radius: float = 0.3,
                       samples: int = 100_000, seed: int = 0) -> VolumeSeries:
    """estimate_volume along the model's curve at t_grid, with a log-slope fit.

    Substream index i is the grid position, so per-point results do not
    depend on the grid being re-sliced.
    """
    t_values = [float(t) for t in t_grid]
    estimates = []
    stderrs = []
    for i, t in enumerate(t_values):
        try:
            z = model.curve(t)
        except OverflowError:
            raise InputError(
                f"{model.name}: t = {t:g} is outside the model's float range") from None
        est, err = estimate_volume(model, z, radius=radius,
                                   samples=samples, seed=seed, point_index=i)
        estimates.append(est)
        stderrs.append(err)
    series = VolumeSeries(t_values, estimates, stderrs, samples, seed,
                          radius, model.name)
    try:
        (series.slope, series.intercept,
         series.slope_half_width) = fit_log_slope(series)
    except TooFewPoints:
        pass
    return series


# ---------------------------------------------------------------------------
# the unbounded function with finite L^p norm


def chi_partial(model: SpaceModel, big_k: int, radius: float = 0.3,
                p: float = 2.0, samples: int = 100_000,
                seed: int = 0) -> tuple[float, float, float]:
    """Partial sums of the step-function counterexample on the plane model.

    chi_k is the indicator of the patch B . a_{-k} z0; the partial sum
    sum_{k<=K} k chi_k has L^p norm ((sum k^p vol_k))^{1/p} because the
    patches are pairwise disjoint for radius < (1 - 1/e)/(1 + 1/e), and
    its sup is exactly K, attained at the K-th base point.

    Returns (norm_p, sup_value, tail_ratio) with tail_ratio the ratio of
    the K-th to (K-1)-th term of k * ||chi_k||_p.
    """
    if not isinstance(model, PlaneModel):
        raise InputError("chi_partial is defined on the sl2-mod-n model")
    if big_k < 3:
        raise InputError("need K >= 3")
    if p < 1.0:
        raise InputError("need p >= 1")
    disjoint_limit = (1.0 - math.exp(-1.0)) / (1.0 + math.exp(-1.0))
    if radius >= disjoint_limit:
        raise InputError(
            f"radius {radius} is too large for disjoint patches "
            f"(limit {disjoint_limit:.4f})")

    base_points = [model.curve(-k) for k in range(1, big_k + 1)]
    vols = []
    for k, z in enumerate(base_points, start=1):
        est, _ = estimate_volume(model, z, radius=radius, samples=samples,
                                 seed=seed, point_index=k)
        vols.append(est)

    norm_p = float(sum(float(k) ** p * v
                       for k, v in zip(range(1, big_k + 1), vols))) ** (1.0 / p)
    # sup of the partial sum over the base points, by exact membership
    sup_value = 0.0
    for j, zj in enumerate(base_points, start=1):
        val = sum(k for k, zk in enumerate(base_points, start=1)
                  if model.membership(zk, zj, radius))
        sup_value = max(sup_value, float(val))
    term_last = big_k * vols[-1] ** (1.0 / p)
    term_prev = (big_k - 1) * vols[-2] ** (1.0 / p)
    tail_ratio = term_last / term_prev
    return norm_p, sup_value, tail_ratio
