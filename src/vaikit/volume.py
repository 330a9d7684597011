"""Monte Carlo volume estimation on concrete homogeneous space models.

Each model packages a space Z with an invariant measure, a curve
t -> a_t z0 from a base point z0, an exact membership test "is w
reachable from z by a group element in the ball B_r" on chart
coordinates of w, and an adaptive sampling box.  The
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

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import EmptyBox, InputError, TooFewPoints
from .exact import real_root_count

BATCH = 16384
MAX_SAMPLES = 100_000_000  # per grid point: about 30 s of membership on one core


def _dyadic(values):
    """Integers n_i and a power of two d with float values_i = n_i / d."""
    ratios = [v.as_integer_ratio() for v in values]
    d = max(den for _, den in ratios)
    return [num * (d // den) for num, den in ratios], d


def _reaches(a, b, c, weight, r2):
    """Whether F = ||x^2 a + x b + c||_F^2 - r2 weight(x) is <= 0 at a real
    x or as x -> +-inf, exactly, for flat integer 2x2 matrices a, b, c, an
    integer quartic weight (ascending) and a float r2: F's x^4 coefficient
    decides the limit, and past a positive one F <= 0 exactly at a root."""
    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]

    num, den = r2.as_integer_ratio()
    norm = (dot(c, c), 2 * dot(b, c), dot(b, b) + 2 * dot(a, c), 2 * dot(a, b), dot(a, a))
    quartic = [den * n - num * w for n, w in zip(norm, weight)]
    return quartic[4] <= 0 or real_root_count(quartic) > 0


_GAMMA = 16 * 2.0 ** -53 / (1 - 16 * 2.0 ** -53)  # Higham's gamma_16, u = 2^-53


@np.errstate(all="ignore")
def _conic_bounds(k, a, b, starts, circle, r2):
    """Certified floor and ceiling, per sample, of the least value of
    f(v) = k + v.A v + b.v on a conic v.C v = 1: the unit circle (C = I)
    or both branches of the hyperbola v1 v2 = 1 (C = [[0, 1/2], [1/2, 0]]).
    `a` is (a11, a12, a22) of the symmetric A, `b` is (b1, b2); on the
    hyperbola A must be diagonal, and its a12 terms are skipped.

    The point, in stages: the best of `starts` (points on the conic), where
    the bounds decide almost every sample against `r2`; then, only for the
    samples whose [floor, ceiling] still holds r2, two safeguarded Newton
    steps in the conic's group parameter, the angle of v -> R(s) v or the s
    of v -> (e^s v1, e^-s v2), and the bounds again there.  A step goes
    -f'/|f''| and is kept only where f drops.  The bounds below hold at any
    float point v, so each stage's are certified.  With m = v.C v at v and
    q = v.A v, l = b.v:
    - ceiling: f at the conic point v / sqrt(m) is k + q/m + l/sqrt(m),
      within (|q| + |l|) d / (1 - d) <= 2 d |f| of f(v) for any
      d >= |1 - m|, d <= 1/2;
    - floor: for any multiplier mu with M = A - mu C positive definite,
      the Lagrangian dual g(mu) = min_w k + mu + w.M w + b.w is at most f
      everywhere on the conic, and g(mu) = f(v) + mu (1 - m) - r.M^-1 r
      with r = M v + b/2.  mu = q + l/2 makes r vanish where v is
      stationary, and the dual gap r.M^-1 r is second order in the
      distance from v to the minimizer (Moré & Sorensen 1983).  A mu
      outside the positive-definite range gives floor -inf.

    Rounding (Higham 2002, §3; u = 2^-53, gamma_n = nu / (1 - nu)).  The
    code evaluates f, m, r_i = (A v - mu C v + b/2)_i, det M and
    w = r.adj(M) r as sums of products with at most 6 roundings on any
    term's path (C's entries 0, 1/2, 1 make mu C exact, so each entry of
    M carries one rounding), so each is within gamma_6 of its exact value
    times |.|, the same sum in absolute values (Lemma 3.1, eq. (3.4)).
    Hence f <= f~ + gamma_6 |f|, d = |1 - m~| + gamma_6 |m| >= |1 - m|,
    M > 0 where m11 > 0 and det~ > gamma_6 |det|, and, adj(M) <= tr(M) I
    making sqrt(r.adj(M) r) a norm, r.adj(M) r <= (sqrt(w~ + gamma_6 |w|)
    + sqrt(tr M) |r - r~|)^2 with |r_i - r~_i| <= gamma_6 |r_i|.  So
        ceiling = f~ + (gamma + 2 d) |f|
        floor   = f~ - gamma |f| - |mu| d - (that bound) / (det~ - gamma |det|)
    with gamma = gamma_16 where gamma_6 is proved: the 10u of relative
    slack in each term covers the at most 10 roundings of the terms' own
    evaluation (sums, products, square roots and quotients of nonnegative
    floats) and one rounding in each of the caller's coefficients.  A
    float comparison with r^2 keeps the sign of the exact difference, so
    ceiling < r^2 proves a hit and floor > r^2 proves a miss; nan proves
    neither.
    """
    a11, a12, a22 = a
    b1, b2 = b
    # the helpers read these names when called, so the Newton stage's
    # rebinding to the undecided samples reaches them

    def along(v1, v2, s):  # exp(s K) v, K the conic's group generator
        if circle:
            c, sn = np.cos(s), np.sin(s)
            return c * v1 - sn * v2, sn * v1 + c * v2
        e = np.exp(s)
        return e * v1, v2 / e

    def times_a(v1, v2):
        if circle:
            return a11 * v1 + a12 * v2, a12 * v1 + a22 * v2
        return a11 * v1, a22 * v2

    def value(v1, v2):
        av1, av2 = times_a(v1, v2)
        return k + (v1 * av1 + v2 * av2) + (b1 * v1 + b2 * v2)

    def newton_step(v1, v2):  # along K: Kv, and K^2 = -1 or +1
        kv1, kv2, sign = (-v2, v1, -1.0) if circle else (v1, -v2, 1.0)
        (av1, av2), (akv1, akv2) = times_a(v1, v2), times_a(kv1, kv2)
        slope = 2.0 * (kv1 * av1 + kv2 * av2) + b1 * kv1 + b2 * kv2
        curve = (2.0 * (kv1 * akv1 + kv2 * akv2)
                 + sign * (2.0 * (v1 * av1 + v2 * av2) + b1 * v1 + b2 * v2))
        return along(v1, v2, -slope / np.abs(curve))

    def bounds(v1, v2):
        av1, av2 = times_a(v1, v2)
        q, l = v1 * av1 + v2 * av2, b1 * v1 + b2 * v2
        f = k + q + l
        if circle:
            s1 = np.abs(a11 * v1) + np.abs(a12 * v2)
            s2 = np.abs(a12 * v1) + np.abs(a22 * v2)
        else:
            s1, s2 = np.abs(av1), np.abs(av2)
        f_abs = (np.abs(k) + np.abs(v1) * s1 + np.abs(v2) * s2
                 + np.abs(b1 * v1) + np.abs(b2 * v2))
        m = v1 * v1 + v2 * v2 if circle else v1 * v2
        defect = np.abs(1.0 - m) + _GAMMA * np.abs(m)
        ceiling = np.where(defect <= 0.5, f + (_GAMMA + 2.0 * defect) * f_abs, np.inf)

        mu = q + l / 2.0
        if circle:
            m11, m12, m22, cv1, cv2 = a11 - mu, a12, a22 - mu, v1, v2
        else:
            m11, m12, m22, cv1, cv2 = a11, -mu / 2.0, a22, v2 / 2.0, v1 / 2.0
        res1, res2 = av1 - mu * cv1 + b1 / 2.0, av2 - mu * cv2 + b2 / 2.0
        r_err = _GAMMA * (s1 + s2 + np.abs(mu) * (np.abs(cv1) + np.abs(cv2))
                          + (np.abs(b1) + np.abs(b2)) / 2.0)
        w = m22 * res1 * res1 - 2.0 * m12 * res1 * res2 + m11 * res2 * res2
        w_abs = (np.abs(m22) * res1 * res1 + 2.0 * np.abs(m12 * res1 * res2)
                 + np.abs(m11) * res2 * res2)
        det_lo = m11 * m22 - m12 * m12 - _GAMMA * (np.abs(m11 * m22) + m12 * m12)
        tr = (m11 + m22) * (1.0 + _GAMMA)
        gap = (np.sqrt(w + _GAMMA * w_abs) + np.sqrt(tr) * r_err) ** 2 / det_lo
        floor = f - _GAMMA * f_abs - np.abs(mu) * defect - gap
        return np.where((m11 > 0.0) & (det_lo > 0.0), floor, -np.inf), ceiling

    def keep_better(v1, v2, fv, step):  # step where f drops, else v
        f_step = value(*step)
        better = f_step < fv
        return (np.where(better, step[0], v1), np.where(better, step[1], v2),
                np.where(better, f_step, fv))

    (v1, v2), fv = starts[0], value(*starts[0])
    for start in starts[1:]:
        v1, v2, fv = keep_better(v1, v2, fv, start)
    floor, ceiling = bounds(v1, v2)
    undecided = np.flatnonzero(~((ceiling < r2) | (floor > r2)))
    if undecided.size:
        k, a11, a12, a22, b1, b2, v1, v2, fv = (
            x[undecided] if np.ndim(x) else x for x in (k, a11, a12, a22, b1, b2, v1, v2, fv))
        for _ in range(2):
            v1, v2, fv = keep_better(v1, v2, fv, newton_step(v1, v2))
        floor[undecided], ceiling[undecided] = bounds(v1, v2)
    return floor, ceiling


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

    def curve(self, t: float):
        raise NotImplementedError

    def chart_box(self, z, radius: float):
        raise NotImplementedError

    def membership_chart(self, z, coords: np.ndarray, radius: float) -> np.ndarray:
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

    def curve(self, t: float):
        return np.array([math.exp(t), 0.0])

    def chart_box(self, z, radius: float):
        """The square of half-width 2 r |z| around z; any radius: for
        g = 1 + E in B_r, |g z - z| = |E z| <= ||E||_F |z| <= r |z|."""
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
    vanishes only at the identity base point).

    Membership decides in three steps, with f = k0 + p2 cos 2phi +
    q2 sin 2phi + p1 cos phi + q1 sin phi.
    - Pre-floor: every value of f is at least k0 - |(p2, q2)| - |(p1, q1)|
      (the Lagrangian dual of the next step at the fixed multiplier
      -|(p2, q2)| - |(p1, q1)|/2).  Its float value carries at most
      4 roundings on any term's path (a square, the sum of squares, the
      square root, which halves the relative error it is given, and the
      two subtractions), so it is within gamma_4 (|k0| + |(p2, q2)| +
      |(p1, q1)|) of the exact floor, and subtracting `_GAMMA` times that
      sum, whose own evaluation the 12u of slack covers, leaves a
      certified floor: a sample where it exceeds r^2 is a miss.
    - Filter: f is a quadratic on the circle (cos phi, sin phi), and
      `_conic_bounds` gives a certified ceiling (a hit below r^2) and
      floor (a miss above it), at the best start for almost every sample
      and after two Newton steps for the few that start leaves undecided.
      On the benchmark grid, t <= 4, it decides all but about 1 in 10^5
      of the samples past the pre-floor; the undecided share grows past
      t = 6, where f's rounding nears r^2.
    - Exact stage, for the samples left: with the float q = sqrt(W) and
      p^{-1/2} read as integers over powers of two, U = q p^{-1/2} and
      V = q J p^{-1/2} (J the rotation generator) give f = ||cos phi U +
      sin phi V - 1||_F^2.  With x = tan(phi/2), F(x) = (f - r^2)(1 + x^2)^2
      is an integer quartic with x^4 coefficient f(pi) - r^2, so the sample
      is a hit exactly when that is <= 0 or F has a real root (`_reaches`),
      against the float r^2 the filter compares with.

    The radius domain is r < 1, where `chart_box` is proved to hold every
    ball image.
    """

    name = "spd2"
    chart_dim = 2

    def curve(self, t: float):
        return np.diag([math.exp(2.0 * t), math.exp(-2.0 * t)])

    @staticmethod
    def _sqrt_spd(p: np.ndarray) -> np.ndarray:
        # closed form for 2x2 SPD with det 1: sqrt(P) = (P + I)/sqrt(tr P + 2)
        return (p + np.eye(2)) / math.sqrt(p[0, 0] + p[1, 1] + 2.0)

    def chart_box(self, z, radius: float):
        """A box that holds every ball image, for radius r < 1 only.

        For g = 1 + E in B_r and S = sqrt(P), W = g P g^T has
        W22 = |S g^T e2|^2 and W12 = (S g^T e1).(S g^T e2), where
        g^T e_i = e_i + v_i and |v1|^2 + |v2|^2 = ||E||_F^2 <= r^2.  With
        sig^2 the largest eigenvalue of P, |W12 - P12| <= r sig (sqrt P11 +
        sqrt P22) + r^2 sig^2 (the box takes twice that), sqrt W22 <=
        sqrt P22 + r sig, and sqrt W22 >= sqrt(lam_min) (1 - r), a lower
        bound on log W22 only while r < 1.  Larger radii are an InputError.
        """
        if not radius < 1.0:
            raise InputError(f"{self.name}: radius {radius:g} is outside the model's "
                             "radius domain r < 1")
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
        f(phi) = k0 + p2 cos 2phi + q2 sin 2phi + p1 cos phi + q1 sin phi;
        (q11, q12, q22) of q = sqrt(W) per sample; and p^{-1/2}."""
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
        return _require_finite(self.name, (k0, p2, q2, p1, q1)), (q11, q12, q22), p_inv

    @staticmethod
    def _bounds(k0, p2, q2, p1, q1, r2):
        """`_conic_bounds` of f on the circle (cos phi, sin phi), where
        f = k0 + (c, s).[[p2, q2], [q2, -p2]] (c, s) + (p1, q1).(c, s);
        starts: the two minima of the second harmonic, the first's minimum."""
        with np.errstate(invalid="ignore", divide="ignore"):
            half = np.arctan2(q2, p2) / 2.0
            c, s, amp1 = -np.sin(half), np.cos(half), np.sqrt(p1 * p1 + q1 * q1)
            return _conic_bounds(k0, (p2, q2, -p2), (p1, q1),
                                 [(c, s), (-c, -s), (-p1 / amp1, -q1 / amp1)],
                                 circle=True, r2=r2)

    @staticmethod
    def _exact_hits(q, p_inv, r2):
        """The exact stage's decisions, from the float q (q11, q12, q22) and p_inv."""
        (i11, i12, i21, i22), d_p = _dyadic(p_inv.ravel().tolist())
        hits = []
        for row in zip(*(c.tolist() for c in q)):
            (a, b, c), d_q = _dyadic(row)
            s = d_p * d_q
            u = (a * i11 + b * i21, a * i12 + b * i22, b * i11 + c * i21, b * i12 + c * i22)
            v = (b * i11 - a * i21, b * i12 - a * i22, c * i11 - b * i21, c * i12 - b * i22)
            # s^2 F = ||x^2 (U + 1) - 2 x V - (U - 1)||^2 - r2 s^2 (1 + x^2)^2
            hits.append(_reaches((u[0] + s, u[1], u[2], u[3] + s), [-2 * e for e in v],
                                 (s - u[0], -u[1], -u[2], s - u[3]),
                                 (s * s, 0, 2 * s * s, 0, s * s), r2))
        return np.array(hits, dtype=bool)

    def membership_chart(self, z, coords, radius):
        coefs, q, p_inv = self._angle_coefficients(z, coords)
        k0, p2, q2, p1, q1 = coefs
        r2 = radius * radius
        # f >= k0 - amp2 - amp1 at every phi, so a pre-floor above r^2
        # is a certified miss; only the rest need the bounds
        with np.errstate(over="ignore"):  # an overflowing square: floor -inf
            amp2, amp1 = np.sqrt(p2 * p2 + q2 * q2), np.sqrt(p1 * p1 + q1 * q1)
            pre_floor = k0 - amp2 - amp1 - _GAMMA * (np.abs(k0) + amp2 + amp1)
        rest = np.flatnonzero(pre_floor <= r2)
        coefs = tuple(c[rest] for c in coefs)
        floor, ceiling = self._bounds(*coefs, r2)
        hit = np.zeros(len(coords), dtype=bool)
        hit[rest] = ceiling < r2
        band = np.flatnonzero(~((ceiling < r2) | (floor > r2)))
        if band.size:
            hit[rest[band]] = self._exact_hits(tuple(c[rest[band]] for c in q), p_inv, r2)
        return hit

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
        """The plane's box around the lift l of z, for radius r <= 1/2.

        A sample c counts when c or -c lies in B_r . l, so each orbit point
        counts once only if no member c = g l, |c - l| <= r |l|, has -c in
        the box as well.  |-c - l|_inf >= |c + l| / sqrt 2 >= (2 - r) |l| /
        sqrt 2 exceeds the half-width 2 r |l| for r < 2 / (1 + 2 sqrt 2)
        = 0.522.  Larger radii are an InputError.
        """
        if not radius <= 0.5:
            raise InputError(f"{self.name}: radius {radius:g} is outside the model's "
                             "radius domain r <= 0.5")
        return self._plane.chart_box(self._lift(z), radius)

    def membership_chart(self, z, coords, radius):
        lift = self._lift(z)
        return (self._plane.membership_chart(lift, coords, radius)
                | self._plane.membership_chart(lift, -coords, radius))

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
    da db dc / |grad|) is exactly dpsi ddelta.  Membership: each chart
    point w has a conjugator q_w with q_w H q_w^{-1} = X_w in closed form
    (`_stabilizer_coefficients`), g0 = q_w q_z^{-1} takes z to w, the
    stabilizer is {+-exp(s X_z)}, and with G = g0, H = g0 X_z (X_z^2 = 1),
    f = ||+-(cosh s G + sinh s H) - 1||_F^2 is minimized over s on both
    sign components.  With x = +-e^s on the +-1 component the matrix is
    (x (G + H) + (G - H) / x) / 2, one function of x for both.  Membership
    decides in two steps.
    - Filter: with y = 1/x, f is a quadratic in (x, y) on the hyperbola
      x y = 1, its coefficients from `_stabilizer_coefficients`, and
      `_conic_bounds` decides it as in SPD2Model (no pre-floor): every
      sample measured at t <= 4, 97% of them at t = 7 and 32% at t = 8.
    - Exact stage, for the samples left: with the float G and H read as
      integers over a power of two, F(x) = 4 x^2 (f - r^2) = ||x^2 (G + H)
      + (G - H) - 2 x 1||_F^2 - 4 r^2 x^2 is an integer quartic with
      F(0) > 0, so the sample is a hit exactly when F has a real root
      (`_reaches`), against the float r^2 the filter compares with.
    The float range is |a| <= 9.0e6 (t <= 8.35 on the curve), the domain
    the decisions are checked on: there the tests match them with an
    80-digit oracle on the samples nearest r^2, up to t = 8.35 itself.  A
    point past it is refused.  The radius domain is r <= 1.2, where
    `chart_box` is proved to hold every ball image.
    """

    name = "sl2-orbit-hyperboloid"
    chart_dim = 2

    def curve(self, t: float):
        # Ad(exp(t(E+F))) H = cosh(2t) H - sinh(2t) (E - F)
        return np.array([math.cosh(2.0 * t), -math.sinh(2.0 * t),
                         math.sinh(2.0 * t)])

    @staticmethod
    def to_chart(point) -> np.ndarray:
        a, b, c = (float(x) for x in point)
        return np.array([math.atan2((b + c) / 2.0, a), (b - c) / 2.0])

    def chart_box(self, z, radius: float):
        """A box that holds every ball image, for radius r <= 1.2.

        Write g = R(theta) exp(S), S symmetric traceless with eigenvalues
        +-eta and |theta| <= pi, so ||g - 1||_F^2 = 4 cosh eta (cosh eta -
        cos theta) <= r^2.  Along s -> Ad(exp(sS)) z the chart moves at
        |dpsi/ds| <= 2 eta |delta| / rho < 2 eta and |d asinh(delta)/ds| <=
        2 eta (rho^2 = 1 + delta^2); then R(theta) adds 2 theta to psi and
        leaves delta.  As (cosh eta - 1) + (1 - cos theta) <= r^2 / 4, i.e.
        eta^2 / 2 + 2 theta^2 / pi^2 <= r^2 / 4, |dpsi| <= 2 (|theta| + eta)
        <= 2 r sqrt(1/2 + pi^2/8) < 2 sqrt(2) r, within half_psi, since
        |a| bd_beta + |beta| bd_a >= sqrt(2) rho^2 (a capped half_psi covers
        the circle).  And |d delta| <= rho (e^(2 eta) - 1) with cosh eta <=
        (1 + sqrt(1 + r^2)) / 2, where (e^(2 eta) - 1) / r rises with r from
        sqrt 2 to 2 sqrt 2 at r = 1.24: within half_delta = 2 sqrt(2) r rho
        for r <= 1.2.  Larger radii are an InputError.
        """
        if not radius <= 1.2:
            raise InputError(f"{self.name}: radius {radius:g} is outside the model's "
                             "radius domain r <= 1.2")
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

    def _stabilizer_coefficients(self, z, coords):
        """Per chart sample (psi, delta): (P, Q, R, tr G, tr H) of ||G exp(s X_z)
        - 1||_F^2, and the entries of G and H = G X_z.

        With B(t) = exp(t [[0, 1], [1, 0]]) and sinh 2t = -delta, the matrix
        q = R(psi/2) B(t) has q diag(1, -1) q^{-1} = X_w: B(t) moves the point
        H to (a, beta, delta) = (rho, 0, delta), and R(psi/2) turns (a, beta)
        by psi.  So G = q_w q_z^{-1} and H = q_w diag(1, -1) q_z^{-1} are
            G = R(psi_w/2) B(t_w - t_z) R(-psi_z/2),
            H = R(psi_w/2) B(t_w + t_z) diag(1, -1) R(-psi_z/2),
        each entry within a few roundings of the matrix's size."""
        if not abs(float(z[0])) <= 9.0e6:
            raise EmptyBox(f"{self.name}: the point is outside the model's float range "
                           "|a| <= 9.0e6 (t <= 8.35 on the curve)")
        psi_z, delta_z = self.to_chart(z)
        t_z = -math.asinh(delta_z) / 2.0
        cz, sz = math.cos(psi_z / 2.0), math.sin(psi_z / 2.0)
        psi, delta = coords[:, 0], coords[:, 1]
        t_w = -np.arcsinh(delta) / 2.0
        cw, sw = np.cos(psi / 2.0), np.sin(psi / 2.0)

        def conjugator(t, sign):  # R(psi_w/2) B(t) diag(1, sign) R(-psi_z/2)
            ch, sh = np.cosh(t), np.sinh(t)
            rows = ((cw * ch - sw * sh, cw * sh - sw * ch),
                    (sw * ch + cw * sh, cw * ch + sw * sh))
            return tuple(e for x, y in rows for e in (x * cz - sign * y * sz, x * sz + sign * y * cz))

        with np.errstate(over="ignore", invalid="ignore"):
            g11, g12, g21, g22 = conjugator(t_w - t_z, 1.0)
            h11, h12, h21, h22 = conjugator(t_w + t_z, -1.0)

            norm_g = g11 ** 2 + g12 ** 2 + g21 ** 2 + g22 ** 2
            norm_h = h11 ** 2 + h12 ** 2 + h21 ** 2 + h22 ** 2
            cross = g11 * h11 + g12 * h12 + g21 * h21 + g22 * h22
            tr_g = g11 + g22
            tr_h = h11 + h22

            p_co = (norm_g + norm_h) / 2.0
            q_co = cross
            r_co = (norm_g - norm_h) / 2.0 + 2.0
        coefs = (p_co, q_co, r_co, tr_g, tr_h)
        return (_require_finite(self.name, coefs),
                ((g11, g12, g21, g22), (h11, h12, h21, h22)))

    @staticmethod
    def _bounds(p_co, q_co, r_co, tr_g, tr_h, r2):
        """`_conic_bounds` of f = a11 x^2 + a22 y^2 + R - (tr G + tr H) x
        - (tr G - tr H) y on the hyperbola x y = 1, a11, a22 = (P +- Q) / 2;
        starts: the minima of the quadratic part on both branches."""
        a11, a22 = (p_co + q_co) / 2.0, (p_co - q_co) / 2.0
        with np.errstate(invalid="ignore", divide="ignore"):
            x = np.sqrt(np.sqrt(a22 / a11))
            return _conic_bounds(r_co, (a11, 0.0, a22), (-(tr_g + tr_h), -(tr_g - tr_h)),
                                 [(x, 1.0 / x), (-x, -1.0 / x)], circle=False, r2=r2)

    @staticmethod
    def _exact_hits(g, h, r2):
        """The exact stage's decisions, from the float entries of G and H."""
        hits = []
        for row in zip(*(e.tolist() for e in (*g, *h))):
            ints, d = _dyadic(row)
            pairs = list(zip(ints[:4], ints[4:]))
            hits.append(_reaches([x + y for x, y in pairs], (-2 * d, 0, 0, -2 * d),
                                 [x - y for x, y in pairs], (0, 0, 4 * d * d, 0, 0), r2))
        return np.array(hits, dtype=bool)

    def membership_chart(self, z, coords, radius):
        coefs, (g, h) = self._stabilizer_coefficients(z, coords)
        r2 = radius * radius
        floor, ceiling = self._bounds(*coefs, r2)
        hit = ceiling < r2
        band = np.flatnonzero(~(hit | (floor > r2)))
        if band.size:
            hit[band] = self._exact_hits(tuple(e[band] for e in g), tuple(e[band] for e in h), r2)
        return hit

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


@cache
def _keep_freed_pages():
    """Let glibc keep up to 64 MiB of freed heap mapped (M_TRIM_THRESHOLD).

    Each batch allocates and frees tens of arrays of BATCH doubles.  glibc
    hands the free top of the heap back to the system once it exceeds the
    trim threshold, which starts at 128 KiB and only rises when a freed
    block larger than the threshold was mmapped; below that, every batch
    faults its working set in again.  64 MiB is the most glibc's own rule
    reaches (twice its 32 MiB mmap threshold maximum).  Elsewhere, no-op.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no C library, or not glibc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD is -1


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
    if samples > MAX_SAMPLES:
        raise InputError(f"need at most {MAX_SAMPLES} samples, got {samples}")
    lo, hi = model.chart_box(z, radius)
    with np.errstate(over="ignore"):
        box_measure = float(np.prod(hi - lo))
    if not (box_measure > 0.0 and np.isfinite(box_measure)):
        raise EmptyBox("sampling box has no volume")

    counts = [BATCH] * (samples // BATCH) + ([samples % BATCH] if samples % BATCH else [])
    _keep_freed_pages()
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

