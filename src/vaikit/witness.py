"""Decay and growth certificates for volumes of translated balls.

Three certificate families live here:

* ``UnipotentWitness``: for an ad-nilpotent subalgebra pushed to
  infinity by a grading element, the exact exponential decay rate is a
  trace; when no normalizing element exists the certificate falls back
  to a one-dimensional central direction with rate 2.
* ``DecayWitness``: the general construction inside a parabolic
  p0 = l0 + n0.  A greedy complement n1 of h inside n0, taken along
  descending ad-x eigenvalues, yields gamma = tr(ad x on n0) minus
  tr(ad x on n1) > 0 and a chart complement v; the boundedness and
  Jacobian-sandwich checks certify that volumes decay like e^{t gamma}.
* ``LowerBoundCert`` / symmetric exponents: on reductive quotients,
  exact eigenvalue sums give the cosh-type lower bound and, for
  symmetric pairs, the exact two-sided growth exponent.

Exact claims are exact rationals; only the sampling checks use floats,
and they import numpy when called, so the exact paths never load it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (
    GammaNotPositive,
    InputError,
    InvariantViolation,
    IrrationalSpectrum,
    NoNormalizer,
    NotNilpotent,
    NotSemisimple,
    NotSymmetric,
    SeriesDivergenceGuard,
    SingularChart,
)
from .exact import (
    IncrementalSpan,
    RatMat,
    Vec,
    kernel,
    rat,
    rational_eigen_decomposition,
    vec,
    vec_is_zero,
    vec_scale,
)
from .grading import (
    Grading,
    SL2Triple,
    acts_nilpotently,
    grading_of,
    is_ad_nilpotent,
    jacobson_morozov,
    verify_nonnegative_grading,
)
from .lie import LieAlgebra, Subalgebra, Subspace, center

if TYPE_CHECKING:  # annotations only; the float checks import numpy when called
    import numpy as np

# the base point's escape along the contracted direction is a geometric
# fact about the group, not decidable from structure constants; every
# witness carries it as an explicit assumption
ESCAPE_ASSUMPTION = ("the curve exp(t x) pushes the base point to infinity "
                     "as t -> -infinity")


def _as_subspace(g, data, name):
    if isinstance(data, Subspace):
        return data
    return Subspace(g, data, name=name)


class ParabolicData:
    """A parabolic p0 = l0 + n0 with grading element x and opposite n̄0.

    Validated exactly: the length of x, the Levi/nilradical split (the
    ``_split`` subspace rejects an l0/n0 overlap), the ideal property of
    n0, centrality of x in l0, the full split g = n̄0 + l0 + n0, and a
    semisimple positive ad-x spectrum on n0.
    """

    def __init__(self, g: LieAlgebra, p0, l0, n0, nbar0, x):
        self.algebra = g
        self.p0 = _as_subspace(g, p0, "p0")
        self.l0 = _as_subspace(g, l0, "l0")
        self.n0 = _as_subspace(g, n0, "n0")
        self.nbar0 = _as_subspace(g, nbar0, "nbar0")
        self.x = vec(x)

        if len(self.x) != g.dim:
            raise InvariantViolation(
                f"x has {len(self.x)} entries, the algebra has dimension {g.dim}")
        if self.l0.dim + self.n0.dim != self.p0.dim:
            raise InvariantViolation("p0 dimension is not dim l0 + dim n0")
        self._split = Subspace(g, self.l0.basis + self.n0.basis, name="l0|n0")
        if not all(self.p0.contains(b) for b in self.l0.basis + self.n0.basis):
            raise InvariantViolation("l0 + n0 does not lie in p0")
        for a in self.p0.basis:
            for b in self.n0.basis:
                if not self.n0.contains(g.bracket(a, b)):
                    raise InvariantViolation("n0 is not an ideal of p0")
        if not self.l0.contains(self.x):
            raise InvariantViolation("x must lie in l0")
        for b in self.l0.basis:
            if not vec_is_zero(g.bracket(self.x, b)):
                raise InvariantViolation("x must centralize l0")
        full = IncrementalSpan(g.dim, self.nbar0.basis)
        for b in self.l0.basis + self.n0.basis:
            if not full.add(b):
                raise InvariantViolation("nbar0 overlaps l0 + n0")
        if full.rank != g.dim:
            raise InvariantViolation("nbar0 + l0 + n0 does not fill the algebra")

        m = self.n0.restriction_matrix(g.ad(self.x))
        eigen = rational_eigen_decomposition(m)
        if any(lam <= 0 for lam in eigen):
            raise InvariantViolation("ad x must be positive on n0")
        # eigenbasis of n0 in ambient coordinates, rref order per eigenvalue
        self.n0_eigen: dict[Fraction, list[Vec]] = {
            lam: [self.n0.from_coords(c) for c in basis] for lam, basis in eigen.items()
        }
        self.n0_trace = m.trace()

    def __repr__(self):
        return (f"ParabolicData(p0={self.p0.dim}, l0={self.l0.dim}, "
                f"n0={self.n0.dim})")


class DecayWitness:
    """Certificate that ball volumes decay like e^{t gamma} on the curve.

    Verified exactly at construction: p0 = l1 + h + n1 as a direct sum,
    n1 a proper ad-x stable subspace of n0, and gamma the positive trace
    gap.  ParabolicData gives g = n̄0 + p0, so g = h + v is direct for
    v = n̄0 + l1 + n1 and the (v | h) coordinate matrix is invertible.
    """

    def __init__(self, g: LieAlgebra, h: Subalgebra, parabolic: ParabolicData,
                 n1, l1, gamma):
        self.algebra = g
        self.h = h
        self.parabolic = parabolic
        self.n1 = _as_subspace(g, n1, "n1")
        self.l1 = _as_subspace(g, l1, "l1")
        self.gamma = rat(gamma)
        self.assumptions = (ESCAPE_ASSUMPTION,)

        p = parabolic
        if not all(p.p0.contains(b) for b in h.basis):
            raise InvariantViolation("h does not lie in p0")
        if not all(p.n0.contains(b) for b in self.n1.basis):
            raise InvariantViolation("n1 does not lie in n0")
        if self.n1.dim >= p.n0.dim:
            raise InvariantViolation("n1 must be a proper subspace of n0")
        ad_x = g.ad(p.x)
        n1_trace = self.n1.restriction_matrix(ad_x).trace()
        if self.gamma != p.n0_trace - n1_trace:
            raise InvariantViolation("gamma must be the ad-x trace gap")
        if self.gamma <= 0:
            raise InvariantViolation("gamma must be positive")
        span = IncrementalSpan(g.dim, self.l1.basis)
        for b in h.basis + self.n1.basis:
            if not span.add(b):
                raise InvariantViolation("l1, h, n1 are not independent")
        if span.rank != p.p0.dim or not all(
                p.p0.contains(b) for b in self.l1.basis):
            raise InvariantViolation("l1 + h + n1 does not equal p0")

        self.v = Subspace(
            g, p.nbar0.basis + self.l1.basis + self.n1.basis, name="v")
        # coordinates (v | h); the v block realizes the projection along h
        self._vh = RatMat.from_cols(list(self.v.basis) + list(h.basis))
        self._vh_inv = self._vh.inverse()

    def v_coordinates(self, u: Vec) -> Vec:
        """Coordinates of the v-component of u in the v basis."""
        return self._vh_inv.apply(u)[: self.v.dim]

    def project_v(self, u: Vec) -> Vec:
        """Projection of u onto v along h, in ambient coordinates."""
        return self.v.from_coords(self.v_coordinates(u))

    def projection_matrix(self) -> RatMat:
        """pi_v as an exact matrix on ambient coordinates."""
        cols = [self.project_v(self.algebra.basis_vector(i))
                for i in range(self.algebra.dim)]
        return RatMat.from_cols(cols)

    def __repr__(self):
        return (f"DecayWitness(gamma={self.gamma}, n1={self.n1.dim}, "
                f"l1={self.l1.dim}, v={self.v.dim})")


def build_n1(g: LieAlgebra, h: Subalgebra, parabolic: ParabolicData) -> DecayWitness:
    """Greedy complement construction inside the nilradical.

    Walk the ad-x eigenvalues of n0 from the largest down; within one
    eigenspace walk the deterministic eigenbasis in order; take a
    vector exactly when it extends the direct sum with h and the
    vectors already taken.  The result n1 satisfies h + n1 >= n0 with
    h and n1 independent, and the decay rate is the trace gap
    gamma = tr(ad x | n0) - tr(ad x | n1).

    The case h meeting n0 trivially leaves gamma = 0; that needs a
    reduction to the Levi factor, so it is raised as GammaNotPositive
    with the smaller pair's data attached rather than recursed into.
    """
    p = parabolic
    if not all(p.p0.contains(b) for b in h.basis):
        raise InvariantViolation("h does not lie in p0")
    chosen, lams = _greedy_complement(g, h, p.n0_eigen)
    if len(chosen) == p.n0.dim:
        proj = _levi_projection(g, h, p)
        raise GammaNotPositive(
            "h meets the nilradical trivially; recurse on the Levi factor",
            payload={"levi": p.l0.basis, "h_projected": proj})
    gamma = p.n0_trace - sum(lams, Fraction(0))
    l1 = _levi_complement(g, h, p)
    return DecayWitness(g, h, p, chosen, l1, gamma)


def _greedy_complement(g: LieAlgebra, h: Subalgebra,
                       eigen) -> tuple[list[Vec], list[Fraction]]:
    """Eigenvectors extending h to a direct sum, with their eigenvalues.

    Walks the eigenvalues of ``eigen`` (eigenvalue to basis) from the
    largest down and each basis in order, and takes a vector exactly
    when it enlarges the span of h and the vectors already taken.
    """
    span = IncrementalSpan(g.dim, h.basis)
    chosen: list[Vec] = []
    lams: list[Fraction] = []
    for lam in sorted(eigen, reverse=True):
        for b in eigen[lam]:
            if span.add(b):
                chosen.append(b)
                lams.append(lam)
    return chosen, lams


def _levi_projection(g: LieAlgebra, h: Subalgebra, p: ParabolicData) -> list[Vec]:
    """Basis of the projection of h to l0 along n0."""
    out = IncrementalSpan(g.dim)
    basis = []
    for b in h.basis:
        c = p._split.coords_strict(b)
        proj = p.l0.from_coords(c[: p.l0.dim])
        if out.add(proj):
            basis.append(proj)
    return basis


def _levi_complement(g: LieAlgebra, h: Subalgebra, p: ParabolicData) -> list[Vec]:
    """l1: the coordinate-orthogonal complement of pr_l0(h) inside l0."""
    proj = _levi_projection(g, h, p)
    if not proj:
        return list(p.l0.basis)
    rows = [p.l0.coords_strict(v) for v in proj]
    coeffs = kernel(RatMat(rows, ncols=p.l0.dim))
    return [p.l0.from_coords(c) for c in coeffs]


# ---------------------------------------------------------------------------
# boundedness of the conjugated projection


class _AdFlow:
    """Float Ad(exp(t x))^{-1} from the exact eigenstructure of ad x.

    ``c`` has the ad-x eigenvectors as columns and ``lams`` their exact
    eigenvalues, so Ad(exp(t x))^{-1} = c diag(e^(-t lam)) c^{-1}.
    """

    def __init__(self, grading: Grading):
        import numpy as np
        self.lams = [lam for lam, part in grading.parts.items() for _ in part.basis]
        self.c = RatMat.from_cols([b for part in grading.parts.values() for b in part.basis])
        self.c_inv = self.c.inverse()
        self.c_f = np.array(self.c.to_floats())
        self.c_inv_f = np.array(self.c_inv.to_floats())
        self._lams_f = np.array([float(lam) for lam in self.lams])

    def inverse_at(self, t: float) -> np.ndarray:
        import numpy as np
        return (self.c_f * np.exp(-t * self._lams_f)) @ self.c_inv_f


def check_mt_bounded(witness: DecayWitness, t_min: int = -40,
                     tail_window: int = 10, factor: float = 2.0) -> bool:
    """Is the conjugated projection uniformly bounded for t <= 0?

    Structural check (exact): split every h basis vector into its l0
    part and positive ad-x eigencomponents Y_lambda; for each Y_lambda
    outside n1, its projection to v must consist of eigencomponents
    with eigenvalues >= lambda.  That inequality is exactly what makes
    e^{mu t}(e^{-lambda t} - 1) stay bounded as t -> -infinity.

    Numeric check: sample the operator norm of
    Ad(a_t) pi_v Ad(a_t)^{-1} on the integer grid t in [t_min, 0] and
    require the whole sequence to stay below ``factor`` times its
    maximum over the deepest ``tail_window`` points.
    """
    import numpy as np
    g = witness.algebra
    grading = grading_of(g, witness.parabolic.x)

    for y in witness.h.basis:
        comps = grading.components_of(y)
        for lam, ylam in comps.items():
            if lam <= 0 or witness.n1.contains(ylam):
                continue
            image = witness.project_v(ylam)
            for mu, vmu in grading.components_of(image).items():
                if not witness.n1.contains(vmu):
                    return False
                if mu < lam:
                    return False

    # numeric sampling in the exact eigenbasis; entries that would grow
    # are exactly zero by the structural rule, so mask them first
    flow = _AdFlow(grading)
    pv_f = np.array((flow.c_inv @ witness.projection_matrix() @ flow.c).to_floats())
    mask = pv_f != 0.0
    n = g.dim
    diff = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if mask[i, j]:
                diff[i, j] = float(flow.lams[i] - flow.lams[j])
    norms = []
    for t in range(0, t_min - 1, -1):
        b_t = np.where(mask, pv_f * np.exp(t * diff), 0.0)
        norms.append(np.linalg.norm(flow.c_f @ b_t @ flow.c_inv_f, 2))
    tail = norms[len(norms) - tail_window - 1:]
    return max(norms) <= factor * max(tail)


# ---------------------------------------------------------------------------
# the beta map and the Jacobian sandwich

_BETA_CUTOFF = 1e-14
_BETA_CAP = 60
_BETA_GUARD = 1e6


def beta_map(g: LieAlgebra, t_vec: Vec):
    """The linear map (1 - exp(-ad T)) / ad T on g.

    For ad-nilpotent T the alternating series is a finite polynomial
    and the result is an exact RatMat; otherwise a float matrix is
    summed until terms drop below 1e-14 (hard cap 60 terms), guarding
    against divergence for badly scaled input.
    """
    import numpy as np
    t_vec = vec(t_vec)
    ad_t = g.ad(t_vec)
    n = g.dim
    if is_ad_nilpotent(g, t_vec):
        acc = RatMat.identity(n)
        term = RatMat.identity(n)
        k = 1
        while True:
            term = (term @ ad_t).scale(Fraction(-1, k + 1))
            if term.is_zero():
                return acc
            acc = acc + term
            k += 1
    return _beta_float(np.array(ad_t.to_floats()))


def _beta_float(ad_t: np.ndarray) -> np.ndarray:
    import numpy as np
    n = ad_t.shape[0]
    acc = np.eye(n)
    term = np.eye(n)
    for k in range(1, _BETA_CAP + 1):
        term = term @ ad_t * (-1.0 / (k + 1))
        norm = np.linalg.norm(term)
        if norm > _BETA_GUARD:
            raise SeriesDivergenceGuard(
                f"beta series term norm {norm:.3g} exceeds guard")
        acc += term
        if norm < _BETA_CUTOFF:
            break
    return acc


def phi_jacobian_sandwich(witness: DecayWitness, q_box=0.1, t_grid=None,
                          samples: int = 2000, seed: int = 7,
                          claimed_gamma=None):
    """Monte Carlo check that sup |det dPhi_t| tracks e^{t gamma}.

    For each t in the grid, samples chart points Y in the box Q inside
    v and evaluates the exact differential formula in floats: the
    columns are beta/adjoint compositions of the three components of
    Y, pushed through Ad(a_t)^{-1} and projected to v.  Returns
    (max/min ratio of the normalized sups, per-t records).  A witness
    with the true gamma keeps the ratio near 1; a corrupted gamma
    drifts exponentially.

    Sampling is batched with substreams seeded by (seed, t-index,
    batch-index), so results do not depend on evaluation order.
    """
    import numpy as np
    g = witness.algebra
    p = witness.parabolic
    if t_grid is None:
        t_grid = tuple(range(0, -9, -1))
    if any(t > 0 for t in t_grid):
        raise InputError("the sandwich grid must stay at t <= 0")
    gamma = float(witness.gamma if claimed_gamma is None else claimed_gamma)

    m = witness.v.dim
    a = p.nbar0.dim
    b = witness.l1.dim
    widths = np.full(m, float(q_box)) if np.isscalar(q_box) else np.asarray(
        [float(w) for w in q_box])
    if widths.shape != (m,) or np.any(widths < 0):
        raise InputError("box half-widths must be one nonnegative value per "
                         "v coordinate")

    v_f = np.array([[float(e) for e in col] for col in witness.v.basis]).T
    ext = np.array(RatMat([list(r) for r in witness._vh_inv.rows[:m]]).to_floats())
    ad_cols = [np.array(g.ad(col).to_floats()) for col in witness.v.basis]
    flow = _AdFlow(grading_of(g, p.x))

    # chart sanity at the origin: dPhi_0(0) is the identity on v
    probe = ext @ flow.inverse_at(0.0) @ v_f
    if abs(np.linalg.det(probe)) < 1e-12:
        raise SingularChart("dPhi_0(0) is singular; the complement is broken")

    def jac_det(t_inv: np.ndarray, y: np.ndarray) -> float:
        a_minus = sum((y[i] * ad_cols[i] for i in range(a)),
                      np.zeros((g.dim, g.dim)))
        a_zero = sum((y[a + i] * ad_cols[a + i] for i in range(b)),
                     np.zeros((g.dim, g.dim)))
        a_plus = sum((y[a + b + i] * ad_cols[a + b + i] for i in range(m - a - b)),
                     np.zeros((g.dim, g.dim)))
        # exp(-A) = 1 - beta(A) A, with beta(A) = (1 - exp(-A)) / A
        beta_plus = _beta_float(a_plus)
        beta_zero = _beta_float(a_zero)
        exp_plus = np.eye(g.dim) - beta_plus @ a_plus
        s = np.empty((g.dim, m))
        if a:
            exp_zero = np.eye(g.dim) - beta_zero @ a_zero
            s[:, :a] = exp_plus @ exp_zero @ _beta_float(a_minus) @ v_f[:, :a]
        if b:
            s[:, a:a + b] = exp_plus @ beta_zero @ v_f[:, a:a + b]
        if m - a - b:
            s[:, a + b:] = beta_plus @ v_f[:, a + b:]
        return abs(np.linalg.det(ext @ t_inv @ s))

    batch = 512
    per_t = []
    for ti, t in enumerate(t_grid):
        t_inv = flow.inverse_at(float(t))
        sup = 0.0
        done = 0
        bi = 0
        while done < samples:
            take = min(batch, samples - done)
            rng = np.random.default_rng(np.random.SeedSequence([seed, ti, bi]))
            ys = rng.uniform(-widths, widths, size=(take, m))
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


# ---------------------------------------------------------------------------
# unipotent-case certificates


class UnipotentWitness:
    """Exact decay rate for an ad-nilpotent subalgebra.

    When ``averaged`` is false, x normalizes n with positive spectrum
    and gamma = tr(ad x | n) is the decay exponent of the volume along
    exp(t x).  When true, the certificate instead covers the central
    line n1 = span(u) inside n (rate 2), the two-step construction for
    subalgebras no semisimple element normalizes.
    """

    def __init__(self, g: LieAlgebra, n: Subalgebra, x: Vec, gamma,
                 averaged: bool, triple: SL2Triple | None = None,
                 n1: Subspace | None = None):
        self.algebra = g
        self.n = n
        self.x = vec(x)
        self.gamma = rat(gamma)
        self.averaged = averaged
        self.triple = triple
        self.n1 = n1
        self.assumptions = (ESCAPE_ASSUMPTION,)
        if self.gamma <= 0:
            raise InvariantViolation("decay rate must be positive")

    def __repr__(self):
        kind = "averaged" if self.averaged else "direct"
        return f"UnipotentWitness(gamma={self.gamma}, {kind})"


def _normalizing_rate(g: LieAlgebra, n: Subalgebra, x: Vec) -> Fraction | None:
    """tr(ad x | n) when x normalizes n with all-positive exact spectrum."""
    for b in n.basis:
        if not n.contains(g.bracket(x, b)):
            return None
    m = n.restriction_matrix(g.ad(x))
    try:
        eigen = rational_eigen_decomposition(m)
    except (NotSemisimple, IrrationalSpectrum):
        return None
    return m.trace() if all(lam > 0 for lam in eigen) else None


def unipotent_witness(g: LieAlgebra, n: Subalgebra,
                      x: Vec | None = None) -> UnipotentWitness:
    """Decay certificate for a nonzero ad-nilpotent subalgebra.

    With a supplied x the rate tr(ad x | n) is returned directly after
    verifying that x acts on n with positive semisimple spectrum.
    Otherwise a central element u of n is completed to an sl2-triple;
    if the triple's grading element normalizes n the direct rate is
    used, and if not the certificate degrades to the central line
    span(u) with rate 2, flagged as averaged.
    """
    if n.dim == 0:
        raise NotNilpotent("empty subalgebra carries no decay direction")
    if not acts_nilpotently(g, n):
        raise NotNilpotent("subalgebra does not act nilpotently")
    if x is not None:
        rate = _normalizing_rate(g, n, vec(x))
        if rate is None:
            raise NoNormalizer(
                "supplied element does not normalize n with positive "
                "semisimple spectrum")
        return UnipotentWitness(g, n, vec(x), rate, averaged=False)

    z = center(n)
    if z.dim == 0:
        raise NoNormalizer("nilpotent subalgebra with trivial center")
    u = z.basis[0]
    triple = jacobson_morozov(g, u)
    if not verify_nonnegative_grading(g, n, triple):
        raise NoNormalizer(
            "the sl2-triple through the central element does not dominate n")
    rate = _normalizing_rate(g, n, triple.x)
    if rate is not None:
        return UnipotentWitness(g, n, triple.x, rate, averaged=False,
                                triple=triple)
    n1 = Subspace(g, [u], name="n1")
    line_rate = n1.restriction_matrix(g.ad(triple.x)).trace()
    return UnipotentWitness(g, n, triple.x, line_rate, averaged=True,
                            triple=triple, n1=n1)


# ---------------------------------------------------------------------------
# reductive-case exponents


class LowerBoundCert:
    """Certificate v_B(exp(t x) z0) >= c cosh(lambda t) with exact lambda.

    vx is an ad-x stable complement of h assembled from eigenvectors;
    the box-scaling argument contracts its positive-eigenvalue edges at
    rate e^{-t mu}, so lambda is minus the sum of the positive
    eigenvalues and the symmetrized exponent is |lambda|.
    """

    def __init__(self, g: LieAlgebra, h: Subalgebra, x: Vec,
                 vx: Subspace, eigenvalues: list[Fraction]):
        self.algebra = g
        self.h = h
        self.x = vec(x)
        self.vx = vx
        self.eigenvalues = list(eigenvalues)
        if len(self.eigenvalues) != vx.dim:
            raise InvariantViolation("one eigenvalue per vx basis vector")
        span = IncrementalSpan(g.dim, h.basis)
        if not all(span.add(b) for b in vx.basis) or span.rank != g.dim:
            raise InvariantViolation("vx + h does not split the algebra")
        for lam, b in zip(self.eigenvalues, vx.basis):
            if g.bracket(self.x, b) != vec_scale(lam, b):
                raise InvariantViolation("vx basis is not an ad-x eigenbasis")
        self.lam = -sum((e for e in self.eigenvalues if e > 0), Fraction(0))
        self.cosh_exponent = abs(self.lam)

    def __repr__(self):
        return f"LowerBoundCert(lambda={self.lam}, vx={self.vx.dim})"


def predict_lower_bound(g: LieAlgebra, h: Subalgebra, cartan,
                        x: Vec) -> LowerBoundCert:
    """Exact cosh-type lower-bound exponent in the direction x.

    Requires x in the (-1)-eigenspace of the involution and orthogonal
    to h under the twisted pairing; the complement vx is assembled from
    ad-x eigenvectors in descending eigenvalue order.
    """
    x = vec(x)
    if cartan.theta.apply(x) != vec_scale(Fraction(-1), x):
        raise InputError("direction must be flipped by the involution")
    if any(cartan.inner.value(x, b) != 0 for b in h.basis):
        raise InputError("direction must be orthogonal to h")
    chosen, eigenvalues = _greedy_complement(g, h, rational_eigen_decomposition(g.ad(x)))
    vx = Subspace(g, chosen, name="vx")
    return LowerBoundCert(g, h, x, vx, eigenvalues)


def predict_symmetric_exponent(g: LieAlgebra, h: Subalgebra, cartan,
                               u_sub: Subspace, x: Vec) -> Fraction:
    """Two-sided growth exponent for a symmetric pair: tr(ad x | u).

    u_sub is the nilradical of a parabolic adapted to the pair
    (catalog-supplied); the trace of ad x on it is the exact exponent
    of vol(B exp(t x) z0) in both directions.
    """
    from .reductivity import is_symmetric_pair

    if not is_symmetric_pair(g, h, cartan):
        raise NotSymmetric("the pair is not symmetric")
    return u_sub.restriction_matrix(g.ad(vec(x))).trace()
