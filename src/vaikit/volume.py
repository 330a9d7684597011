"""Monte Carlo volume estimation on concrete homogeneous space models.

Each model packages a space Z with an invariant measure, a curve
t -> a_t z0 from a base point z0, an exact membership test "is w
reachable from z by a group element in the ball B_r" on chart
coordinates of w, and an adaptive sampling box.  The
ball is B_r = {g in SL(2,R): ||g - 1||_F <= r}; for determinant-one
2x2 matrices ||g^{-1} - 1||_F = ||g - 1||_F, so B_r is automatically
inverse-closed and membership is symmetric in (z, w).

The plane and the cone decide membership in closed form.  spd2 and the
hyperboloid ask one question: is the least value of ||v1 M1 + v2 M2 -
1||_F^2 on a conic, the unit circle or the hyperbola v1 v2 = 1, at most
r^2?  Each builds the float entries of its two matrices M1 and M2 per
sample and names its conic; `_conic_hits` answers for both: a certified
floor on the plane span(M1, M2) rejects the clear misses, certified
bounds at the plane's minimizer, scaled onto the conic, decide almost
all the rest, and an exact count of the real roots of an integer
quartic decides what they leave.

Estimation is hit-or-miss: every chart carries the invariant measure
as Lebesgue measure, so sample the box uniformly, count hits and
multiply the hit rate by box measure.  Sampling is batched with
substreams keyed by (seed, point index, batch index), each drawn as
numpy's `uniform` draws it, but column by column.  The parent checks the
inputs and builds every grid point's box; then it deals the batches of
all points into one share per usable CPU, runs the first share itself
and the others in forked children, and reaps every child before it
returns or raises.  The integer hit counts are summed per point, so
results are bit-identical for a fixed seed at any worker count.
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import signal
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import InputError, TooFewPoints
from .exact import real_root_count

BATCH = 16384
MAX_SAMPLES = 100_000_000  # per grid point: about 30 s of membership on one core
MAX_CALL_SAMPLES = 1_000_000_000  # per call: bounds its list of (point, batch) tasks


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
def _conic_bounds(a, b, v, circle):
    """Certified floor and ceiling, per sample, of the least value of
    f(v) = 2 + v.A v + b.v on a conic v.C v = 1: the unit circle (C = I)
    or both branches of the hyperbola v1 v2 = 1 (C = [[0, 1/2], [1/2, 0]]).
    `a` is (a11, a12, a22) of the symmetric A, `b` is (b1, b2), and `v` is
    (v1, v2), one float point per sample, which `_conic_hits` puts near
    the conic's minimizer.  The bounds hold at any float point v; with m =
    v.C v at v and q = v.A v, l = b.v:
    - ceiling: f at the conic point v / sqrt(m) is 2 + q/m + l/sqrt(m),
      within (|q| + |l|) d / (1 - d) <= 2 d |f| of f(v) for any
      d >= |1 - m|, d <= 1/2;
    - floor: for any multiplier mu with M = A - mu C positive definite,
      the Lagrangian dual g(mu) = min_w 2 + mu + w.M w + b.w is at most f
      everywhere on the conic, and g(mu) = f(v) + mu (1 - m) - r.M^-1 r
      with r = M v + b/2.  mu = q + l/2 makes r vanish where v is
      stationary, and the dual gap r.M^-1 r is second order in the
      distance from v to the minimizer (Moré & Sorensen 1983).  A mu
      outside the positive-definite range gives floor -inf.

    Rounding (Higham 2002, §3; u = 2^-53, gamma_n = nu / (1 - nu)).  The
    caller computes the coefficients from the float entries of M1 and M2
    (`_conic_hits`), and the bounds decide the f those entries define.
    - The coefficients carry at most 6 roundings on any term's path.
      a11 = |M1|^2 and a22 = |M2|^2 are sums of four squares, summed in
      pairs, so each is within gamma_3 of itself.  a12 = M1.M2 is within
      gamma_3 of sum |M1_ij M2_ij|, and 2 |v1 v2| |M1_ij M2_ij| <= v1^2
      M1_ij^2 + v2^2 M2_ij^2 (AM-GM, at every v) bounds its error in f by
      gamma_3 (a11 v1^2 + a22 v2^2), terms the bounds already count.  Each
      trace, so each b_i, carries one rounding.
    - The code evaluates f, m, r_i = (A v - mu C v + b/2)_i, det M and
      w = r.adj(M) r from the coefficients as sums of products with at
      most 6 roundings on any term's path (C's entries 0, 1/2, 1 make
      mu C exact, so each entry of M carries at most one rounding), so
      each is within gamma_6 of its exact value times |.|, the same sum
      in absolute values (Lemma 3.1, eq. (3.4)).
    Hence |f - f~| <= gamma_12 |f|, d = |1 - m~| + gamma_6 |m| >= |1 - m|,
    M > 0 where m11 > 0 and det~ > gamma_6 |det|, and, adj(M) <= tr(M) I
    making sqrt(r.adj(M) r) a norm, r.adj(M) r <= (sqrt(w~ + gamma_6 |w|)
    + sqrt(tr M) |r - r~|)^2 with |r_i - r~_i| <= gamma_6 |r_i|.  So
        ceiling = f~ + (gamma + 2 d) |f|
        floor   = f~ - gamma |f| - |mu| d - (that bound) / (det~ - gamma |det|)
    with gamma = gamma_16 where gamma_12 is proved: the 4u of relative
    slack covers the at most 3 roundings of the subtractions that form
    floor and ceiling, each within u of a partial sum no larger than |f|
    where they lie near r^2, and, to second order, the evaluation of the
    slack terms themselves (sums, products, square roots and quotients of
    nonnegative floats).  A float comparison with r^2 keeps the sign of
    the exact difference, so ceiling < r^2 proves a hit and floor > r^2
    proves a miss; nan proves neither.
    """
    a11, a12, a22 = a
    b1, b2 = b
    v1, v2 = v
    av1, av2 = a11 * v1 + a12 * v2, a12 * v1 + a22 * v2
    q, l = v1 * av1 + v2 * av2, b1 * v1 + b2 * v2
    f = 2.0 + q + l
    s1 = np.abs(a11 * v1) + np.abs(a12 * v2)
    s2 = np.abs(a12 * v1) + np.abs(a22 * v2)
    f_abs = (2.0 + np.abs(v1) * s1 + np.abs(v2) * s2
             + np.abs(b1 * v1) + np.abs(b2 * v2))
    cv1, cv2 = (v1, v2) if circle else (v2 / 2.0, v1 / 2.0)
    m = v1 * cv1 + v2 * cv2
    defect = np.abs(1.0 - m) + _GAMMA * np.abs(m)
    ceiling = np.where(defect <= 0.5, f + (_GAMMA + 2.0 * defect) * f_abs, np.inf)

    mu = q + l / 2.0
    m11, m12, m22 = (a11 - mu, a12, a22 - mu) if circle else (a11, a12 - mu / 2.0, a22)
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


def _plane_floor(m1, m2, a11, a22):
    """Certified floor, per sample, of f's least value on the plane
    span(M1, M2), so on either conic, for `_conic_hits` (a11 = |M1|^2,
    a22 = |M2|^2).  With the entries p of M1 and q of M2 ordered 11, 12,
    21, 22, so 1 = (1, 0, 0, 1), and the minors d_ij = p_i q_j - p_j q_i,
    that value is N / D by Cauchy-Binet: D = det A = sum d_ij^2 and N = det
    Gram(M1, M2, 1) = 2 d_23^2 + (d_12 + d_24)^2 + (d_13 + d_34)^2; where
    D = 0, N = 0 too.  Overflow gives nan, which `_conic_hits` passes on.

    Rounding (as in `_conic_bounds`).  E = |M1| |M2| >= |p_i q_j| + |p_j
    q_i|, so the float d_ij are within gamma_2 E and the two sums within
    2 gamma_3 E: the float vectors n~, d~ lie within sqrt10 gamma_3 E and
    sqrt6 gamma_2 E of n = (sqrt2 d_23, d_12 + d_24, d_13 + d_34) and d =
    (d_ij), of norms sqrt N <= 1.42 E and sqrt D <= E (Hadamard).  The
    float norms n' and d' are within gamma_3 of |n~| and |d~|, so sqrt N
    >= n' - 4.6 gamma_3 E and sqrt D <= d' + 2.7 gamma_3 E, both within s
    = `_GAMMA` sqrt(a11 a22) >= 15.9 u E (a11, a22 within gamma_3).  The 7
    roundings of (max(n' - s, 0) / (d' + s))^2, each relative to a
    nonnegative result, are taken off by the factor 1 - `_GAMMA`."""
    (p1, p2, p3, p4), (q1, q2, q3, q4) = m1, m2
    d12, d13, d14 = p1 * q2 - p2 * q1, p1 * q3 - p3 * q1, p1 * q4 - p4 * q1
    d23, d24, d34 = p2 * q3 - p3 * q2, p2 * q4 - p4 * q2, p3 * q4 - p4 * q3
    n = np.sqrt((2.0 * (d23 * d23) + (d12 + d24) ** 2) + (d13 + d34) ** 2)
    d = np.sqrt(((d12 * d12 + d13 * d13) + (d14 * d14 + d23 * d23)) + (d24 * d24 + d34 * d34))
    s = _GAMMA * np.sqrt(a11 * a22)
    return (np.maximum(n - s, 0.0) / (d + s)) ** 2 * (1.0 - _GAMMA)


@np.errstate(all="ignore")
def _conic_hits(m1, m2, circle, r2):
    """Per sample, whether f(v) = ||v1 M1 + v2 M2 - 1||_F^2 <= r2 somewhere
    on a conic: the unit circle, or the hyperbola v1 v2 = 1.  m1 and m2 are
    the float entries (11, 12, 21, 22) of M1 and M2, an array each.

    f = 2 + v.A v + b.v at every v, with the Gram coefficients
    A = [[|M1|^2, M1.M2], [M1.M2, |M2|^2]] and b = -2 (tr M1, tr M2).
    Every stage decides the f that the eight float entries define.
    - Plane floor (`_plane_floor`): the conic lies in span(M1, M2), so a
      sample whose floor there, dist(1, span)^2, exceeds r2 is a miss.
    - Bounds: `_conic_bounds` at one start, the plane's minimizer
      -A^-1 b / 2 scaled onto the conic: v = w / sqrt(w.C w) with w =
      -adj(A) b, so w.C w is w1^2 + w2^2 on the circle and w1 w2 on the
      hyperbola.  Where w.C w <= 0 the start is nan or infinite, and its
      bounds decide nothing.
    - Exact stage (`_exact_hits`), for the samples the bounds leave
      undecided.
    """
    a11, a22 = ((x11 * x11 + x12 * x12) + (x21 * x21 + x22 * x22)
                for x11, x12, x21, x22 in (m1, m2))
    rest = np.flatnonzero(~(_plane_floor(m1, m2, a11, a22) > r2))
    (p11, p12, p21, p22), (q11, q12, q21, q22) = (tuple(e[rest] for e in m) for m in (m1, m2))
    a11, a22 = a11[rest], a22[rest]
    a12 = (p11 * q11 + p12 * q12) + (p21 * q21 + p22 * q22)
    b1, b2 = -2.0 * (p11 + p22), -2.0 * (q11 + q22)
    w1, w2 = a12 * b2 - a22 * b1, a12 * b1 - a11 * b2
    scale = np.sqrt(w1 * w1 + w2 * w2) if circle else np.sqrt(w1 * w2)
    floor, ceiling = _conic_bounds((a11, a12, a22), (b1, b2), (w1 / scale, w2 / scale), circle)
    hit = np.zeros(len(m1[0]), dtype=bool)
    hit[rest] = ceiling < r2
    band = rest[~((ceiling < r2) | (floor > r2))]
    if band.size:
        hit[band] = _exact_hits(tuple(e[band] for e in m1), tuple(e[band] for e in m2),
                                circle, r2)
    return hit


def _exact_hits(m1, m2, circle, r2):
    """`_conic_hits`' decisions, exactly, against the float r2: each
    sample's eight entries are read as integers N1, N2 over one power of
    two d, and f - r2 times a positive weight becomes an integer quartic F
    in x, with 1 = diag(d, d):
    - circle, v = (1 - x^2, 2 x) / (1 + x^2), x = tan(phi/2):
      d^2 (1 + x^2)^2 (f - r2) = ||x^2 (N1 + 1) - 2 x N2 - (N1 - 1)||_F^2
      - r2 d^2 (1 + x^2)^2, whose x^4 coefficient is d^2 (f - r2) at
      v = (-1, 0), the one point x misses;
    - hyperbola, v = (x, 1/x): d^2 x^2 (f - r2) = ||x^2 N1 - x 1 + N2||_F^2
      - r2 d^2 x^2, with F(0) > 0.
    So a sample is a hit exactly when `_reaches` finds F <= 0.
    """
    hits = []
    for row in zip(*(e.tolist() for e in (*m1, *m2))):
        ints, d = _dyadic(row)
        n1, n2, one = ints[:4], ints[4:], (d, 0, 0, d)
        if circle:
            quartic = ([x + e for x, e in zip(n1, one)], [-2 * x for x in n2],
                       [e - x for x, e in zip(n1, one)], (d * d, 0, 2 * d * d, 0, d * d))
        else:
            quartic = (n1, [-e for e in one], n2, (0, 0, d * d, 0, 0))
        hits.append(_reaches(*quartic, r2))
    return np.array(hits, dtype=bool)


# ---------------------------------------------------------------------------
# R^2 minus the origin: the model of SL(2,R)/N


class PlaneModel:
    """Z = R^2 \\ {0} with the linear SL(2,R) action and Lebesgue measure.

    Membership has a closed form: solutions of g z = w in SL(2,R) form
    the affine line g(s) = g0 + s * w (z-perp)^T, and ||g(s) - 1||_F^2
    is an explicit quadratic in s.

    The float range is 1e-38 <= |z| <= 1e38 / (1 + 4 r) (|t| <= 86.7 on
    the curve at r = 0.3).  Membership is invariant under (z, w) ->
    (c z, c w), and each value `membership_chart` computes is homogeneous
    of degree 0, 2 or 4 in c; for c a power of two the float evaluation
    scales exactly as well, while every value stays a normal float, so
    the decisions are those at 1 <= |z| < 2.  The box keeps |w| <=
    (1 + 4 r) |z|, and with ||g0||_F <= |w|/|z| + |z|/|w|, the degree-4
    values |w|^2 |z|^2 and (G.D)^2 <= (|w| + |z|)^4 stay below 2e153 in
    the range; the tests check the scaling law exactly at both of its
    ends.  Past about |z| = 1e77, or below 1e-77, those values
    overflow or underflow and every sample would read as a miss, so a
    point outside the range is refused.
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
            raise InputError("point too close to the deleted origin")
        if not 1e-38 <= nz <= 1e38 / (1.0 + 4.0 * radius):
            raise InputError(f"{self.name}: the point is outside the model's float range "
                             "1e-38 <= |z| <= 1e38 / (1 + 4 r)")
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


# ---------------------------------------------------------------------------
# unit-determinant positive matrices: the model of SL(2,R)/SO(2)


class SPD2Model:
    """Z = {P symmetric positive definite, det P = 1}, action g.P = gPg^T.

    Chart (u, tau) = (P12, log P22) carries the invariant measure as the
    plain Lebesgue measure du dtau.  With q = sqrt(W), the group elements
    taking P to W are q R(phi) p^{-1/2}, p = sqrt(P), and R(phi) = cos phi
    1 + sin phi J, J the rotation generator.  So W is in B_r . P exactly
    when f(v) = ||v1 M1 + v2 M2 - 1||_F^2 <= r^2 somewhere on the unit
    circle, with M1 = q p^{-1/2} and M2 = q J p^{-1/2}: `_matrices` builds
    their float entries per sample and `_conic_hits` decides.

    The float range is tr P <= 4.9e8 (|t| <= 10 on the curve), the domain
    the decisions are checked on: there the tests match them with an
    80-digit oracle on the samples nearest r^2, up to t = 10 itself.
    `chart_box` refuses a point past it.  The radius domain is r < 1, where
    `chart_box` is proved to hold every ball image.
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
        if not p[0, 0] + p[1, 1] <= 4.9e8:
            raise InputError(f"{self.name}: the base point is outside the model's float "
                             "range tr P <= 4.9e8 (|t| <= 10 on the curve)")
        evals = np.linalg.eigvalsh(p)
        sig = math.sqrt(float(evals[-1]))
        lam_min = float(evals[0])
        if lam_min <= 0.0:
            raise InputError("base point is not positive definite")
        sq11, sq22 = math.sqrt(p[0, 0]), math.sqrt(p[1, 1])
        # exact reachability bounds: w22 = ||L(e2+v)||^2 with ||v|| <= r,
        # w12 = (L(e1+v'), L(e2+v)); the linearized box misses the
        # quadratic term that dominates for stretched base points
        u_half = radius * sig * (sq11 + sq22 + radius * sig)
        w22_hi = (sq22 + radius * sig) ** 2
        w22_lo = lam_min * (1.0 - radius) ** 2
        if not (w22_lo > 0.0 and u_half > 0.0):
            raise InputError("degenerate base point")
        lo = np.array([p[0, 1] - 2.0 * u_half, math.log(w22_lo)])
        hi = np.array([p[0, 1] + 2.0 * u_half, math.log(w22_hi)])
        return lo, hi

    def _matrices(self, z, coords):
        """The float entries of M1 = q p^{-1/2} and M2 = q J p^{-1/2} per
        chart sample, q = sqrt(W) = (W + 1)/sqrt(tr W + 2)."""
        p = np.asarray(z, dtype=float)
        (i11, i12), (i21, i22) = np.linalg.inv(self._sqrt_spd(p))
        u, tau = coords[:, 0], coords[:, 1]
        w22 = np.exp(tau)
        w11 = (1.0 + u * u) / w22
        s = np.sqrt(w11 + w22 + 2.0)
        q11, q12, q22 = (w11 + 1.0) / s, u / s, (w22 + 1.0) / s
        # J p^{-1/2} has rows (-i21, -i22) and (i11, i12)
        return ((q11 * i11 + q12 * i21, q11 * i12 + q12 * i22,
                 q12 * i11 + q22 * i21, q12 * i12 + q22 * i22),
                (q12 * i11 - q11 * i21, q12 * i12 - q11 * i22,
                 q22 * i11 - q12 * i21, q22 * i12 - q12 * i22))

    def membership_chart(self, z, coords, radius):
        return _conic_hits(*self._matrices(z, coords), True, radius * radius)


# ---------------------------------------------------------------------------
# adjoint orbits in sl(2,R) ~ R^3, points (a, b, c) <-> [[a, b], [c, -a]]


class ConeModel:
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
                raise InputError("point is not on the punctured cone")
            z1 = math.sqrt(b)
            return np.array([z1, -a / z1])
        z2 = math.sqrt(-c)
        return np.array([-a / z2, z2])

    def chart_box(self, z, radius: float):
        """The plane's box around the lift l of z, for radius r <= 1/2, in
        the plane's float range for |l| (|t| <= 86.7 on the curve).

        A sample c counts when c or -c lies in B_r . l, so each orbit point
        counts once only if no member c = g l, |c - l| <= r |l|, has -c in
        the box as well.  |-c - l|_inf >= |c + l| / sqrt 2 >= (2 - r) |l| /
        sqrt 2 exceeds the half-width 2 r |l| for r < 2 / (1 + 2 sqrt 2)
        = 0.522.  Larger radii are an InputError.
        """
        if not radius <= 0.5:
            raise InputError(f"{self.name}: radius {radius:g} is outside the model's "
                             "radius domain r <= 0.5")
        return PlaneModel.chart_box(self, self._lift(z), radius)  # errors name the cone

    def membership_chart(self, z, coords, radius):
        lift = self._lift(z)
        return (self._plane.membership_chart(lift, coords, radius)
                | self._plane.membership_chart(lift, -coords, radius))


class HyperboloidModel:
    """The adjoint orbit of H: the one-sheeted quadric {a^2 + bc = 1},
    the model of SL(2,R)/SO(1,1).

    With beta = (b+c)/2 and delta = (b-c)/2 the quadric reads
    a^2 + beta^2 - delta^2 = 1; cylindrical coordinates (psi, delta),
    a = rho cos psi, beta = rho sin psi, rho = sqrt(1 + delta^2), give a
    global chart in which the Gelfand-Leray measure of a^2 + bc (i.e.
    da db dc / |grad|) is exactly dpsi ddelta.  Each chart point w has the
    conjugator q_w = R(psi/2) B(t), B(t) = exp(t [[0, 1], [1, 0]]) and
    sinh 2t = -delta, with q_w H q_w^{-1} = X_w: B(t) moves the point H to
    (a, beta, delta) = (rho, 0, delta), and R(psi/2) turns (a, beta) by psi.
    The group elements taking z to w are q_w (+-exp(s H)) q_z^{-1}, and with
    x = +-e^s that is x M1 + M2 / x, M1 = q_w diag(1, 0) q_z^{-1} and
    M2 = q_w diag(0, 1) q_z^{-1}.  So w is in B_r . z exactly when
    f(v) = ||v1 M1 + v2 M2 - 1||_F^2 <= r^2 somewhere on the hyperbola
    v1 v2 = 1: `_matrices` builds the float entries of these rank-one
    matrices per sample and `_conic_hits` decides.

    The float range is rho = sqrt(a^2 + beta^2) <= 9.0e6 (t <= 8.35 on
    the curve, where beta = 0 and rho = |a|), the domain the decisions are
    checked on: there the tests match them with an 80-digit oracle on the
    samples nearest r^2, up to t = 8.35 itself.  `chart_box` refuses a
    point past it.  rho, unlike |a|, is unchanged by the rotations
    R(theta), which turn (a, beta) and keep delta, so a rotated curve
    point meets the same bound.  The radius domain is r <= 1.2, where
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
        if not math.hypot(a, beta) <= 9.0e6:
            raise InputError(f"{self.name}: the point is outside the model's float range "
                             "rho = sqrt(a^2 + beta^2) <= 9.0e6 (t <= 8.35 on the curve)")
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
            raise InputError("degenerate orbit point")
        psi = math.atan2(beta, a)
        lo = np.array([psi - half_psi, delta - half_delta])
        hi = np.array([psi + half_psi, delta + half_delta])
        return lo, hi

    def _matrices(self, z, coords):
        """The float entries of M1 = (q_w e1)(e1^T q_z^{-1}) and
        M2 = (q_w e2)(e2^T q_z^{-1}) per chart sample (psi, delta), from
        q_w e1 = R(psi_w/2) (cosh t_w, sinh t_w), q_w e2 = R(psi_w/2)
        (sinh t_w, cosh t_w), e1^T q_z^{-1} = (cosh t_z, -sinh t_z)
        R(-psi_z/2) and e2^T q_z^{-1} = (-sinh t_z, cosh t_z) R(-psi_z/2):
        each entry is one product of two factors a few roundings each."""
        psi_z, delta_z = self.to_chart(z)
        t_z = -math.asinh(delta_z) / 2.0
        cz, sz = math.cos(psi_z / 2.0), math.sin(psi_z / 2.0)
        chz, shz = math.cosh(t_z), math.sinh(t_z)
        rows = ((chz * cz + shz * sz, chz * sz - shz * cz),
                (-shz * cz - chz * sz, chz * cz - shz * sz))
        psi, delta = coords[:, 0], coords[:, 1]
        t_w = -np.arcsinh(delta) / 2.0
        cw, sw = np.cos(psi / 2.0), np.sin(psi / 2.0)
        ch, sh = np.cosh(t_w), np.sinh(t_w)
        cols = ((cw * ch - sw * sh, sw * ch + cw * sh),
                (cw * sh - sw * ch, sw * sh + cw * ch))
        return tuple((x1 * y1, x1 * y2, x2 * y1, x2 * y2)
                     for (x1, x2), (y1, y2) in zip(cols, rows))

    def membership_chart(self, z, coords, radius):
        return _conic_hits(*self._matrices(z, coords), False, radius * radius)


# what the estimator reads of a model: name, chart_dim, curve, chart_box
# and membership_chart
SpaceModel = PlaneModel | SPD2Model | ConeModel | HyperboloidModel

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
    reaches (twice its 32 MiB mmap threshold maximum).  The estimator
    calls it before it forks, so the children inherit the setting; set in
    a child, it would be lost with the child.  Elsewhere, no-op.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no C library, or not glibc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD is -1


def _box(model: SpaceModel, z, radius: float, samples: int, seed: int, points: int = 1):
    """The sampling parameters of a call on `points` grid points checked,
    and the chart box (lo, hi) around z with its measure."""
    if not (math.isfinite(radius) and radius > 0.0):
        raise InputError("radius must be positive and finite")
    if seed < 0:
        raise InputError("seed must be nonnegative")
    if samples < 1000:
        raise InputError("need at least 1000 samples")
    if samples > MAX_SAMPLES:
        raise InputError(f"need at most {MAX_SAMPLES} samples, got {samples}")
    if points * samples > MAX_CALL_SAMPLES:
        raise InputError(f"need at most {MAX_CALL_SAMPLES} samples in one call, "
                         f"got {points} points x {samples}")
    lo, hi = model.chart_box(z, radius)
    with np.errstate(over="ignore"):
        box_measure = float(np.prod(hi - lo))
    if not (box_measure > 0.0 and np.isfinite(box_measure)):
        raise InputError("sampling box has no volume")
    return lo, hi, box_measure


def _batch_hits(model, radius, seed, z, lo, hi, point_index, batch_index, count):
    """Hits among `count` uniform samples of the box [lo, hi].

    The samples are `rng.uniform(lo, hi, size=(count, dim))` bit for bit:
    that computes lo + (hi - lo) * u from unit draws u in C order, but its
    broadcast of array bounds over rows of dim elements costs more than
    the draw.  `_box` has checked the finite range `uniform` would.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, point_index, batch_index]))
    coords = rng.random((count, model.chart_dim))
    for k in range(model.chart_dim):
        coords[:, k] *= hi[k] - lo[k]
        coords[:, k] += lo[k]
    return int(np.count_nonzero(model.membership_chart(z, coords, radius)))


def _run_child(run, share, pipe) -> None:
    """In a forked child: pickle the share's hit counts, or the exception
    that stopped them, into `pipe`, and leave by `os._exit` on every path,
    so the child never returns into the parent's code."""
    status = 1
    try:
        try:
            payload = [run(*task) for task in share]
        except Exception as exc:
            payload = exc
        with os.fdopen(pipe, "wb") as out:
            pickle.dump(payload, out)
        status = 0
    finally:
        os._exit(status)


def _estimates(model: SpaceModel, points, radius: float, samples: int,
               seed: int) -> list[tuple[float, float]]:
    """(estimate, stderr) per (point index, z, lo, hi, box measure) in
    `points`, each box from `_box`.

    The (point, batch) tasks are dealt into W shares, W the number of
    CPUs this process may use and at most the number of tasks: task i
    goes to share i mod W, so every point's batches spread over all
    shares.  The parent forks a child for each share but the first, which
    it runs itself, rather than leave a CPU idle while it waits.  A forked
    child starts from the parent's memory, imports included, so it costs
    far less than a pool's.  With W = 1 the tasks run here and nothing
    forks.  The parent reads each child's pipe to EOF, then reaps it; on
    any error here (its own share's, a child's, an interrupt) the
    children not yet read are killed and reaped before the error goes
    on, so no call leaves a child behind.  The hit counts are integers,
    summed per point in task order, so the results are the same at any
    worker count.
    """
    counts = [BATCH] * (samples // BATCH) + ([samples % BATCH] if samples % BATCH else [])
    tasks = [(z, lo, hi, index, batch, count) for index, z, lo, hi, _ in points
             for batch, count in enumerate(counts)]
    run = partial(_batch_hits, model, radius, seed)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cpus, len(tasks))
    _keep_freed_pages()
    hits = [0] * len(tasks)
    children = {}  # pid -> (share index, read end of its pipe), until read
    try:
        for share in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _run_child(run, tasks[share::workers], write_end)
            children[pid] = share, os.fdopen(read_end, "rb")
            os.close(write_end)
        hits[::workers] = [run(*task) for task in tasks[::workers]]
        for pid, (share, pipe) in list(children.items()):
            with pipe:
                data = pipe.read()
            del children[pid]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                raise RuntimeError(f"an estimator worker ended with exit code {code}")
            payload = pickle.loads(data)  # written by this program's child
            if isinstance(payload, Exception):
                raise payload
            hits[share::workers] = payload
    finally:
        for pid, (_, pipe) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    results = []
    for i, (*_, box_measure) in enumerate(points):
        # each sample scores 0 or 1, so its second moment equals the mean
        mean = sum(hits[i * len(counts):(i + 1) * len(counts)]) / samples
        var = max(mean - mean * mean, 0.0)
        results.append((box_measure * mean, box_measure * math.sqrt(var / samples)))
    return results


def estimate_volume(model: SpaceModel, z, radius: float = 0.3,
                    samples: int = 100_000, seed: int = 0,
                    point_index: int = 0) -> tuple[float, float]:
    """Hit-or-miss volume of the orbit patch B_r . z.

    Returns (estimate, stderr).  Estimate = box measure times the hit
    rate of uniform box samples; stderr propagates the sample variance
    of the hit indicator.
    """
    point = (point_index, z, *_box(model, z, radius, samples, seed))
    return _estimates(model, [point], radius, samples, seed)[0]


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
    points = []
    for i, t in enumerate(t_values):
        try:
            z = model.curve(t)
        except OverflowError:
            raise InputError(
                f"{model.name}: t = {t:g} is outside the model's float range") from None
        points.append((i, z, *_box(model, z, radius, samples, seed, len(t_values))))
    results = _estimates(model, points, radius, samples, seed)
    series = VolumeSeries(t_values, [est for est, _ in results], [err for _, err in results],
                          samples, seed, radius, model.name)
    try:
        (series.slope, series.intercept,
         series.slope_half_width) = fit_log_slope(series)
    except TooFewPoints:
        pass
    return series

