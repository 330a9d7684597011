"""Float Monte Carlo checks of the paper's estimates.

These are sanity checks of what the exact certificates predict, not
certificates: the Jacobian sandwich measures the decay rate of a
``DecayWitness`` chart, and ``chi_partial`` the weighted patch norms of
the plane model's step-function counterexample.  ``act`` is the group
action on each space model, which the membership tests move points by.
"""

import math

import numpy as np

from vaikit.exact import RatMat
from vaikit.grading import grading_of
from vaikit.volume import PlaneModel, SPD2Model, estimate_volume


def act(model, g, point) -> np.ndarray:
    """g . point in the model's space: g z on the plane, g P g^T on spd2, and
    g X g^-1 on the adjoint orbits, with X = [[a, b], [c, -a]] for (a, b, c)."""
    g = np.asarray(g, dtype=float)
    if isinstance(model, PlaneModel):
        return g @ np.asarray(point, dtype=float)
    if isinstance(model, SPD2Model):
        return g @ np.asarray(point, dtype=float) @ g.T
    a, b, c = (float(x) for x in point)
    m = g @ np.array([[a, b], [c, -a]]) @ np.linalg.inv(g)
    return np.array([m[0, 0], m[0, 1], m[1, 0]])


def to_floats(m: RatMat) -> np.ndarray:
    """Float entries of m, each its numerator divided by the denominator."""
    return np.array([[e / m.den for e in r] for r in m.num])


def beta_series(ad_t: np.ndarray) -> np.ndarray:
    """(1 - exp(-A)) / A for a float matrix A, summed as a power series.

    Summed until a term's norm drops below 1e-14, for at most 60 terms.
    """
    n = ad_t.shape[0]
    acc = np.eye(n)
    term = np.eye(n)
    for k in range(1, 61):
        term = term @ ad_t * (-1.0 / (k + 1))
        norm = np.linalg.norm(term)
        assert norm <= 1e6, f"beta series term norm {norm:.3g} diverges"
        acc += term
        if norm < 1e-14:
            break
    return acc


def phi_jacobian_sandwich(witness, q_box=0.1, samples=2000, seed=7, claimed_gamma=None):
    """Monte Carlo check that sup |det dPhi_t| tracks e^{t gamma}.

    For each t = 0, -1, ..., -8, samples chart points Y in the box
    [-q_box, q_box]^m inside v and evaluates the exact differential
    formula in floats: the columns are beta/adjoint compositions of the
    three components of Y, pushed through Ad(a_t)^{-1} and projected to
    v.  Returns (max/min ratio of the normalized sups, per-t records).
    A witness with the true gamma keeps the ratio near 1; a corrupted
    gamma drifts exponentially.

    Sampling is batched with substreams seeded by (seed, t-index,
    batch-index), so results do not depend on evaluation order.
    """
    g = witness.algebra
    p = witness.parabolic
    gamma = float(witness.gamma if claimed_gamma is None else claimed_gamma)

    m = witness.v.dim
    a = p.nbar0.dim
    b = witness.l1.dim

    v_f = np.array([[float(e) for e in col] for col in witness.v.basis]).T
    ext = to_floats(witness._vh_inv)[:m]
    ad_cols = [to_floats(g.ad(col)) for col in witness.v.basis]
    # Ad(exp(t x))^{-1} = c diag(e^(-t lam)) c^{-1}, c the ad-x eigenvectors
    grading = grading_of(g, p.x)
    c = RatMat.from_cols([v for part in grading.parts.values() for v in part.basis])
    c_f, c_inv_f = to_floats(c), to_floats(c.inverse())
    lams = np.array([float(lam) for lam, part in grading.parts.items() for _ in part.basis])

    def ad_inverse(t: float) -> np.ndarray:
        return (c_f * np.exp(-t * lams)) @ c_inv_f

    # chart sanity at the origin: dPhi_0(0) is the identity on v
    assert abs(np.linalg.det(ext @ ad_inverse(0.0) @ v_f)) >= 1e-12, \
        "dPhi_0(0) is singular; the complement is broken"

    def jac_det(t_inv: np.ndarray, y: np.ndarray) -> float:
        a_minus = sum((y[i] * ad_cols[i] for i in range(a)),
                      np.zeros((g.dim, g.dim)))
        a_zero = sum((y[a + i] * ad_cols[a + i] for i in range(b)),
                     np.zeros((g.dim, g.dim)))
        a_plus = sum((y[a + b + i] * ad_cols[a + b + i] for i in range(m - a - b)),
                     np.zeros((g.dim, g.dim)))
        # exp(-A) = 1 - beta(A) A, with beta(A) = (1 - exp(-A)) / A
        beta_plus = beta_series(a_plus)
        beta_zero = beta_series(a_zero)
        exp_plus = np.eye(g.dim) - beta_plus @ a_plus
        s = np.empty((g.dim, m))
        if a:
            exp_zero = np.eye(g.dim) - beta_zero @ a_zero
            s[:, :a] = exp_plus @ exp_zero @ beta_series(a_minus) @ v_f[:, :a]
        if b:
            s[:, a:a + b] = exp_plus @ beta_zero @ v_f[:, a:a + b]
        if m - a - b:
            s[:, a + b:] = beta_plus @ v_f[:, a + b:]
        return abs(np.linalg.det(ext @ t_inv @ s))

    batch = 512
    per_t = []
    for ti, t in enumerate(range(0, -9, -1)):
        t_inv = ad_inverse(float(t))
        sup = 0.0
        done = 0
        bi = 0
        while done < samples:
            take = min(batch, samples - done)
            rng = np.random.default_rng(np.random.SeedSequence([seed, ti, bi]))
            ys = rng.uniform(-q_box, q_box, size=(take, m))
            for y in ys:
                d = jac_det(t_inv, y)
                if d > sup:
                    sup = d
            done += take
            bi += 1
        normalized = sup / math.exp(float(t) * gamma)
        per_t.append({"t": float(t), "sup": sup, "normalized": normalized})
    values = [rec["normalized"] for rec in per_t]
    ratio = max(values) / min(values)
    return ratio, per_t


def chi_partial(big_k: int, radius: float = 0.3, p: float = 2.0,
                samples: int = 100_000, seed: int = 0) -> tuple[float, float, float]:
    """Partial sums of the step-function counterexample on the plane model.

    chi_k is the indicator of the patch B . a_{-k} z0; the partial sum
    sum_{k<=K} k chi_k has L^p norm ((sum k^p vol_k))^{1/p} because the
    patches are pairwise disjoint for radius < (1 - 1/e)/(1 + 1/e), and
    its sup is exactly K, attained at the K-th base point.

    Returns (norm_p, sup_value, tail_ratio) with tail_ratio the ratio of
    the K-th to (K-1)-th term of k * ||chi_k||_p.
    """
    assert radius < (1.0 - math.exp(-1.0)) / (1.0 + math.exp(-1.0)), \
        "the norm formula needs pairwise disjoint patches"
    model = PlaneModel()
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
                  if model.membership_chart(zk, zj[None, :], radius)[0])
        sup_value = max(sup_value, float(val))
    term_last = big_k * vols[-1] ** (1.0 / p)
    term_prev = (big_k - 1) * vols[-2] ** (1.0 / p)
    tail_ratio = term_last / term_prev
    return norm_p, sup_value, tail_ratio
