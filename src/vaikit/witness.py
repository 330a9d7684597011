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
from operator import mul

from .errors import (
    GammaNotPositive,
    InputError,
    InvariantViolation,
    NoNormalizer,
    NotNilpotent,
)
from .exact import (
    RatMat,
    Vec,
    _common,
    _eigenspaces,
    _fraction_row,
    _gauss_jordan,
    _int_matmul,
    _integer_row,
    _is_eigenvector,
    _null_space,
    pivot_indices,
    rat,
    vec,
)
from .grading import SL2Triple, _grading, _jacobson_morozov, acts_nilpotently
from .lie import LieAlgebra, Subalgebra, Subspace, _direct_sum, center, derived_subalgebra
from .reductivity import is_symmetric_pair

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
    semisimple positive ad-x spectrum on n0.  ``n0_eigen`` maps each
    ad-x eigenvalue on n0 to its eigenspace, in ambient coordinates.
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
        self._split = _direct_sum(g, [self.l0, self.n0], "l0|n0")
        if not all(self.p0._holds(b) for b in self._split._num):
            raise InvariantViolation("l0 + n0 does not lie in p0")
        for a in self.p0._num:
            for b in self.n0._num:
                if not self.n0._holds(g._int_bracket(a, b)):
                    raise InvariantViolation("n0 is not an ideal of p0")
        if not self.l0.contains(self.x):
            raise InvariantViolation("x must lie in l0")
        self.ad_x = g.ad(self.x)
        for b in self.l0._num:
            if any(sum(map(mul, r, b)) for r in self.ad_x.num):
                raise InvariantViolation("x must centralize l0")
        full = self.nbar0._num + self._split._num
        if len(pivot_indices(full)) < len(full):
            raise InvariantViolation("nbar0 overlaps l0 + n0")
        if len(full) != g.dim:
            raise InvariantViolation("nbar0 + l0 + n0 does not fill the algebra")

        m = self.n0.restriction_matrix(self.ad_x)
        eigen = _eigenspaces(m)
        if any(lam <= 0 for lam in eigen):
            raise InvariantViolation("ad x must be positive on n0")
        # eigenbases in n0 coordinates, rref order per eigenvalue, taken to g
        self.n0_eigen: dict[Fraction, Subspace] = {
            lam: Subspace.from_integers(g, _int_matmul(basis, self.n0._num),
                                        d * self.n0._den, f"n0^{lam}")
            for lam, (basis, d) in eigen.items()
        }
        self.n0_trace = m.trace()


class DecayWitness:
    """Certificate that ball volumes decay like e^{t gamma} on the curve.

    ``build_n1``, the only producer, proves what the certificate claims.
    It checks h in p0.  ``_greedy_complement`` takes n1 from the
    ``n0_eigen`` eigenvectors, so n1 is an ad-x stable subspace of n0
    and gamma = n0_trace - (the sum of their eigenvalues) is the trace
    gap; n1 = n0 raises GammaNotPositive, so n1 is proper and gamma, a
    sum of the positive eigenvalues of ad x on n0 / n1 != 0, is > 0.
    The greedy walk makes span(h, n1) = h + n0.  l1 is the
    coordinate-orthogonal complement of pr_l0(h) in l0; a c in l1 and
    in h + n0 has pr_l0(c) = c in pr_l0(h), so c . c = 0 and, over Q,
    c = 0.  The dimensions add up to dim l0 + dim n0 = dim p0, which
    ``ParabolicData`` checks, so p0 = l1 + h + n1 is direct.
    ParabolicData gives g = n̄0 + p0, so g = h + v is direct for
    v = n̄0 + l1 + n1 and the (v | h) coordinate matrix is invertible.
    ``projection`` is the matrix of the projection onto v along h.
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

        self.v = _direct_sum(g, [parabolic.nbar0, self.l1, self.n1], "v")
        # the v block of the coordinates in (v | h), taken back to g by v's basis
        inv = RatMat.from_integers(*_common([(self.v._num, self.v._den), (h._num, h._den)]),
                                   g.dim).transpose().inverse()
        self.projection = (self.v._rows.transpose()
                           @ RatMat.from_integers(inv.num[: self.v.dim], inv.den, g.dim))


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
    if not all(p.p0._holds(b) for b in h._num):
        raise InvariantViolation("h does not lie in p0")
    n1, lams = _greedy_complement(g, h, p.n0_eigen, "n1")
    if n1.dim == p.n0.dim:
        rows, d = _levi_projection(h, p)
        raise GammaNotPositive(
            "h meets the nilradical trivially; recurse on the Levi factor",
            payload={"levi": p.l0.basis,
                     "h_projected": [_fraction_row(r, d * p.l0._den)
                                     for r in _int_matmul(rows, p.l0._num)]})
    gamma = p.n0_trace - sum(lams, Fraction(0))
    return DecayWitness(g, h, p, n1, _levi_complement(g, h, p), gamma)


def _greedy_complement(g: LieAlgebra, h: Subalgebra, eigen: dict[Fraction, Subspace],
                       name: str) -> tuple[Subspace, list[Fraction]]:
    """Eigenvectors extending h to a direct sum, and their eigenvalues.

    Walks the eigenvalues of ``eigen`` (eigenvalue to eigenspace) from
    the largest down and each basis in order, and takes a vector exactly
    when it enlarges the span of h and the vectors already taken.
    """
    labels = sorted(eigen, reverse=True)
    walk, d = _common([(eigen[lam]._num, eigen[lam]._den) for lam in labels])
    lams = [lam for lam in labels for _ in range(eigen[lam].dim)]
    # h's rows are independent, so its indices 0, ..., h.dim - 1 all pivot
    picks = [i - h.dim for i in pivot_indices(list(h._num) + walk) if i >= h.dim]
    return Subspace.from_integers(g, [walk[i] for i in picks], d, name), [lams[i] for i in picks]


def _levi_projection(h: Subalgebra, p: ParabolicData) -> tuple[list[list[int]], int]:
    """The projection of h to l0 along n0 in l0's basis: rows over one
    denominator, for the basis vectors of h whose images are independent."""
    split, k = p._split, p.l0.dim
    # b / h._den = sum_j c_j S_j / (s h._den) for the split's integer rows S_j and
    # c = eliminate(b), and l0's basis is the first k of the S_j / split._den
    proj = [[split._den * e for e in split._coord.eliminate(b)[:k]] for b in h._num]
    return [proj[i] for i in pivot_indices(proj)], split._coord.s * h._den


def _levi_complement(g: LieAlgebra, h: Subalgebra, p: ParabolicData) -> Subspace:
    """l1: the coordinate-orthogonal complement of pr_l0(h) inside l0."""
    coeffs, d = _null_space(_levi_projection(h, p)[0], p.l0.dim)
    return Subspace.from_integers(g, _int_matmul(coeffs, p.l0._num), d * p.l0._den, "l1")


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
    grading = _grading(witness.algebra, witness.parabolic.ad_x)
    pi = witness.projection.num
    for lam, part in grading.parts.items():
        upper = grading.at_least(lam)
        if not all(upper._holds([sum(map(mul, r, b)) for r in pi]) for b in part._num):
            return False
    return True


# ---------------------------------------------------------------------------
# unipotent-case certificates


class UnipotentWitness:
    """Exact decay rate for an ad-nilpotent subalgebra.

    When ``averaged`` is false, x normalizes n with positive spectrum
    and gamma = tr(ad x | n) is the decay exponent of the volume along
    exp(t x).  When true, the certificate instead covers the central
    line n1 = span(u) inside n (rate 2), the two-step construction for
    subalgebras no semisimple element normalizes.  ``unipotent_witness``,
    the only producer, proves n in g^(>=0) for the grading by x and
    gamma > 0: a trace of positive eigenvalues on n != 0, or the
    eigenvalue 2 of [x, u] = 2u on n1.
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


def _normalizing_rate(n: Subalgebra, ad_x: RatMat) -> Fraction | None:
    """tr(ad x | n) when x normalizes n with all-positive spectrum.

    n lies in g^(>=0) for the grading by x (``unipotent_witness``), so
    when n is ad-x stable its restriction m has its spectrum inside that
    of ad x on g^(>=0), which is >= 0.  Every eigenvalue of m is then
    positive exactly when none is 0, that is when m is nonsingular: one
    rank test, and no eigenspaces.
    """
    try:
        m = n.restriction_matrix(ad_x)
    except InvariantViolation:  # x does not normalize n
        return None
    return m.trace() if len(_gauss_jordan([list(r) for r in m.num], n.dim)) == n.dim else None


def unipotent_witness(g: LieAlgebra, n: Subalgebra) -> UnipotentWitness:
    """Decay certificate for a nonzero ad-nilpotent subalgebra.

    A central element u of n is completed to an sl2-triple: the first
    basis vector of z(n), or one in [g, g] if that has a component in the
    center of g.  If the triple's grading element normalizes n the direct
    rate is used, and if not the certificate degrades to the central line
    span(u) with rate 2 = tr(ad x | n1), as [x, u] = 2u, flagged as
    averaged.  The center is nonzero: n acts nilpotently on g, which
    contains n, so n is a nilpotent Lie algebra (Engel), and a nonzero
    nilpotent Lie algebra has a nonzero center.

    n lies in g^(>=0) for the grading by x: on both paths u is taken
    from z(n), so u is in n and central there, the two guards of
    ``verify_nonnegative_grading``, whose sl2 argument then gives n in
    ker ad u in g^(>=0).  ``_normalizing_rate`` rests on that.
    """
    if n.dim == 0:
        raise NotNilpotent("empty subalgebra carries no decay direction")
    if not acts_nilpotently(g, n):
        raise NotNilpotent("subalgebra does not act nilpotently")

    z = center(n)
    us = z._num[0]
    try:
        triple = _jacobson_morozov(g, us, z._den)
    except NoNormalizer:
        # us has a component in the center of g, an element of z(n) in
        # [g, g] has a triple; z(n) and [g, g] have independent rows, so
        # the z(n) part of a null vector of their columns gives one
        derived = derived_subalgebra(Subalgebra.from_integers(g, RatMat.identity(g.dim).num, 1, g.name))
        null, _ = _null_space([list(r) for r in zip(*z._num, *derived._num)], z.dim + derived.dim)
        if not null:
            raise
        us = _int_matmul([null[0][:z.dim]], z._num)[0]
        triple = _jacobson_morozov(g, us, z._den)
    rate = _normalizing_rate(n, g._int_ad(triple.xuv.num[0], triple.xuv.den))
    if rate is not None:
        return UnipotentWitness(g, n, triple.x, rate, averaged=False,
                                triple=triple)
    n1 = Subspace.from_integers(g, [us], z._den, "n1")
    return UnipotentWitness(g, n, triple.x, Fraction(2), averaged=True,
                            triple=triple, n1=n1)


# ---------------------------------------------------------------------------
# reductive-case exponents


class LowerBoundCert:
    """Certificate v_B(exp(t x) z0) >= c cosh(lambda t) with exact lambda.

    vx is an ad-x stable complement of h assembled from eigenvectors;
    the box-scaling argument contracts its positive-eigenvalue edges at
    rate e^{-t mu}, so lambda is minus the sum of the positive
    eigenvalues and the symmetrized exponent is |lambda|.

    ``predict_lower_bound`` proves the rest: ``_greedy_complement`` picks
    vx from the ad-x eigenspaces, which fill g, so vx completes h to a
    basis of g, each vector an eigenvector of its listed eigenvalue.
    """

    def __init__(self, g: LieAlgebra, h: Subalgebra, x: Vec,
                 vx: Subspace, eigenvalues: list[Fraction]):
        self.algebra = g
        self.h = h
        self.x = vec(x)
        self.vx = vx
        self.eigenvalues = list(eigenvalues)
        self.lam = -sum((e for e in self.eigenvalues if e > 0), Fraction(0))
        self.cosh_exponent = abs(self.lam)


def predict_lower_bound(g: LieAlgebra, h: Subalgebra, cartan,
                        x: Vec) -> LowerBoundCert:
    """Exact cosh-type lower-bound exponent in the direction x.

    Requires x in the (-1)-eigenspace of the involution and orthogonal
    to h under the twisted pairing B(x, b) = -kappa(theta x, b), which
    for such x is kappa(x, b); the complement vx is assembled from ad-x
    eigenvectors in descending eigenvalue order.
    """
    xs, dx = _integer_row(vec(x))
    if not _is_eigenvector(cartan.theta, Fraction(-1), xs):
        raise InputError("direction must be flipped by the involution")
    kx = [sum(map(mul, r, xs)) for r in g.killing_form().gram.num]
    if any(sum(map(mul, kx, b)) for b in h._num):
        raise InputError("direction must be orthogonal to h")
    parts = _grading(g, g._int_ad(xs, dx)).parts
    vx, eigenvalues = _greedy_complement(g, h, parts, "vx")
    return LowerBoundCert(g, h, x, vx, eigenvalues)


def predict_symmetric_exponent(g: LieAlgebra, h: Subalgebra,
                               u_sub: Subspace, x: Vec) -> Fraction:
    """Two-sided growth exponent for a symmetric pair: tr(ad x | u).

    u_sub is the nilradical of a parabolic adapted to the pair
    (catalog-supplied); the trace of ad x on it is the exact exponent
    of vol(B exp(t x) z0) in both directions.
    """
    if not is_symmetric_pair(g, h):
        raise InputError("the pair is not symmetric")
    return u_sub.restriction_matrix(g.ad(vec(x))).trace()
