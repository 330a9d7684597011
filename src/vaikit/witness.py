"""Decay and growth certificates for volumes of translated balls.

Three certificate families live here:

* ``UnipotentWitness``: for an ad-nilpotent subalgebra pushed to
  infinity by a grading element, the exact exponential decay rate is a
  trace; when no normalizing element exists the certificate falls back
  to a one-dimensional central direction with rate 2.
* ``DecayWitness``: the general construction inside a parabolic
  p0 = l0 + n0.  A greedy complement n1 of h inside n0, taken along
  descending ad-x eigenvalues, yields gamma = tr(ad x on n0) minus
  tr(ad x on n1) > 0 and a chart complement v; with the conjugated
  projection onto v bounded (``check_mt_bounded``), volumes decay like
  e^{t gamma}.
* ``LowerBoundCert`` / symmetric exponents: on reductive quotients,
  exact eigenvalue sums give the cosh-type lower bound and, for
  symmetric pairs, the exact two-sided growth exponent.

Every claim is decided on exact rationals; nothing here uses floats.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    GammaNotPositive,
    InputError,
    InvariantViolation,
    IrrationalSpectrum,
    NoNormalizer,
    NotNilpotent,
    NotSemisimple,
)
from .exact import (
    RatMat,
    Vec,
    kernel,
    pivot_indices,
    rat,
    rational_eigen_decomposition,
    vec,
    vec_is_zero,
    vec_scale,
)
from .grading import (
    SL2Triple,
    acts_nilpotently,
    grading_of,
    jacobson_morozov,
    verify_nonnegative_grading,
)
from .lie import LieAlgebra, Subalgebra, Subspace, center

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
        full = self.nbar0.basis + self._split.basis
        if len(pivot_indices(full)) < len(full):
            raise InvariantViolation("nbar0 overlaps l0 + n0")
        if len(full) != g.dim:
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
        parts = self.l1.basis + h.basis + self.n1.basis
        if len(pivot_indices(parts)) < len(parts):
            raise InvariantViolation("l1, h, n1 are not independent")
        if len(parts) != p.p0.dim or not all(
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
    chosen, lams = _greedy_complement(h, p.n0_eigen)
    if len(chosen) == p.n0.dim:
        proj = _levi_projection(h, p)
        raise GammaNotPositive(
            "h meets the nilradical trivially; recurse on the Levi factor",
            payload={"levi": p.l0.basis, "h_projected": proj})
    gamma = p.n0_trace - sum(lams, Fraction(0))
    l1 = _levi_complement(h, p)
    return DecayWitness(g, h, p, chosen, l1, gamma)


def _greedy_complement(h: Subalgebra, eigen) -> tuple[list[Vec], list[Fraction]]:
    """Eigenvectors extending h to a direct sum, with their eigenvalues.

    Walks the eigenvalues of ``eigen`` (eigenvalue to basis) from the
    largest down and each basis in order, and takes a vector exactly
    when it enlarges the span of h and the vectors already taken.
    """
    walk = [(lam, b) for lam in sorted(eigen, reverse=True) for b in eigen[lam]]
    # h.basis is independent, so its indices 0, ..., h.dim - 1 all pivot
    picks = [walk[i - h.dim] for i in pivot_indices(h.basis + tuple(b for _, b in walk))
             if i >= h.dim]
    return [b for _, b in picks], [lam for lam, _ in picks]


def _levi_projection(h: Subalgebra, p: ParabolicData) -> list[Vec]:
    """Basis of the projection of h to l0 along n0."""
    proj = [p.l0.from_coords(p._split.coords_strict(b)[: p.l0.dim]) for b in h.basis]
    return [proj[i] for i in pivot_indices(proj)]


def _levi_complement(h: Subalgebra, p: ParabolicData) -> list[Vec]:
    """l1: the coordinate-orthogonal complement of pr_l0(h) inside l0."""
    proj = _levi_projection(h, p)
    if not proj:
        return list(p.l0.basis)
    rows = [p.l0.coords_strict(v) for v in proj]
    coeffs = kernel(RatMat(rows, ncols=p.l0.dim))
    return [p.l0.from_coords(c) for c in coeffs]


# ---------------------------------------------------------------------------
# boundedness of the conjugated projection


def check_mt_bounded(witness: DecayWitness) -> bool:
    """Is M_t = Ad(a_t) pi_v Ad(a_t)^{-1} uniformly bounded for t <= 0?

    In an ad-x eigenbasis with B the matrix of pi_v, entry (i, j) of M_t
    is B_ij e^{t(lam_i - lam_j)}, bounded on t <= 0 exactly when
    B_ij = 0 or lam_i >= lam_j.  So M_t is bounded exactly when pi_v
    maps each eigenspace g^lam into the sum of the g^mu with mu >= lam,
    which is decided here on exact rationals.
    """
    grading = grading_of(witness.algebra, witness.parabolic.x)
    return all(mu >= lam for lam, part in grading.parts.items() for b in part.basis
               for mu in grading.components_of(witness.project_v(b)))


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
    ad_x = g.ad(x)
    try:
        m = n.restriction_matrix(ad_x)
    except InvariantViolation:  # x does not normalize n
        return None
    try:
        eigen = rational_eigen_decomposition(m)
    except (NotSemisimple, IrrationalSpectrum):
        return None
    return m.trace() if all(lam > 0 for lam in eigen) else None


def unipotent_witness(g: LieAlgebra, n: Subalgebra) -> UnipotentWitness:
    """Decay certificate for a nonzero ad-nilpotent subalgebra.

    A central element u of n is completed to an sl2-triple; if the
    triple's grading element normalizes n the direct rate is used, and
    if not the certificate degrades to the central line span(u) with
    rate 2, flagged as averaged.
    """
    if n.dim == 0:
        raise NotNilpotent("empty subalgebra carries no decay direction")
    if not acts_nilpotently(g, n):
        raise NotNilpotent("subalgebra does not act nilpotently")

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
        split = h.basis + vx.basis
        if len(split) != g.dim or len(pivot_indices(split)) < g.dim:
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
    to h under the twisted pairing B(x, b) = -kappa(theta x, b), which
    for such x is kappa(x, b); the complement vx is assembled from ad-x
    eigenvectors in descending eigenvalue order.
    """
    x = vec(x)
    if cartan.theta.apply(x) != vec_scale(Fraction(-1), x):
        raise InputError("direction must be flipped by the involution")
    kappa = g.killing_form()
    if any(kappa.value(x, b) != 0 for b in h.basis):
        raise InputError("direction must be orthogonal to h")
    chosen, eigenvalues = _greedy_complement(h, rational_eigen_decomposition(g.ad(x)))
    vx = Subspace(g, chosen, name="vx")
    return LowerBoundCert(g, h, x, vx, eigenvalues)


def predict_symmetric_exponent(g: LieAlgebra, h: Subalgebra,
                               u_sub: Subspace, x: Vec) -> Fraction:
    """Two-sided growth exponent for a symmetric pair: tr(ad x | u).

    u_sub is the nilradical of a parabolic adapted to the pair
    (catalog-supplied); the trace of ad x on it is the exact exponent
    of vol(B exp(t x) z0) in both directions.
    """
    from .reductivity import is_symmetric_pair

    if not is_symmetric_pair(g, h):
        raise InputError("the pair is not symmetric")
    return u_sub.restriction_matrix(g.ad(vec(x))).trace()
