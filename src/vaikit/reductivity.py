"""Reductive-type analysis of a subalgebra and the decay verdict.

Given a reductive ambient algebra g and a subalgebra h, three exact
questions decide how volumes of balls behave at infinity on the
quotient space:

* is the pair unimodular (otherwise no invariant measure exists and the
  question is void),
* is h reductive in g (radical(h) = center(h) and the center acts
  semisimply on g),
* is the pair symmetric, decided by the Killing form alone through
  q = h-perp; a Cartan involution theta only names the complement in
  the theta-stable certificate.

The verdict is "holds" exactly when the pair is unimodular and h is
reductive in g; every verdict ships a checkable certificate.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul

from .errors import InputError, InvariantViolation
from .exact import (
    RatMat,
    _gauss_jordan,
    _null_space,
    is_squarefree,
    minimal_polynomial,
)
from .lie import (
    BilinearForm,
    LieAlgebra,
    Subalgebra,
    Subspace,
    center,
    negative_transpose_involution,
    radical,
    unimodular_trace_witness,
)

VAI_HOLDS = "holds"
VAI_FAILS = "fails"
VAI_NO_MEASURE = "no-invariant-measure"


class CartanData:
    """A Cartan involution of g.

    theta must be an involutive automorphism whose twisted Killing
    pairing <x, y> = -kappa(theta x, y) is positive definite.  All three
    are checked here, on outside matrices (``--theta`` files, tests);
    ``default_cartan`` proves them for X -> -X^T and skips this check.
    """

    def __init__(self, g: LieAlgebra, theta: RatMat):
        n = g.dim
        if theta.nrows != n or theta.ncols != n:
            raise InvariantViolation("involution matrix has wrong shape")
        if theta @ theta != RatMat.identity(n):
            raise InvariantViolation("involution does not square to the identity")
        cols = list(zip(*theta.num))
        for i in range(n):
            for j in range(i + 1, n):
                # theta [e_i, e_j] and [theta e_i, theta e_j], both times den^2 _den
                lhs = [theta.den * sum(c * r[k] for k, c in g._nz[i][j]) for r in theta.num]
                if lhs != g._int_bracket(cols[i], cols[j]):
                    raise InvariantViolation(
                        f"involution is not an automorphism at basis pair ({i}, {j})")
        # <x, y> = -kappa(theta x, y): the Gram matrix is -(theta^T K)
        inner = BilinearForm(g, -(theta.transpose() @ g.killing_form().gram))
        if not inner.is_positive_definite():
            raise InvariantViolation("twisted Killing pairing is not positive definite")
        self.algebra = g
        self.theta = theta


class ReductivityReport(namedtuple("ReductivityReport", (
        "algebra", "subalgebra", "unimodular", "reductive_in_g", "certificate",
        "symmetric_pair", "trace_witness"), defaults=(None,))):
    """Exact verdict for one (g, h) pair, with certificates."""

    @property
    def vai(self) -> str:
        """Holds exactly when the pair is unimodular and h is reductive in g."""
        if not self.unimodular:
            return VAI_NO_MEASURE
        return VAI_HOLDS if self.reductive_in_g else VAI_FAILS


def is_reductive_in_g(g: LieAlgebra, h: Subalgebra) -> tuple[bool, dict | None]:
    """Is the adjoint action of h on g completely reducible?

    Criterion: radical(h) = center(h), and every basis element of the
    center acts semisimply on g (squarefree minimal polynomial of its
    adjoint matrix).  Center elements commute, so semisimplicity of
    each basis action gives semisimplicity of the whole center action.

    Returns (True, None) or (False, certificate) where the certificate
    names the offending element.
    """
    r = radical(h)
    z = center(h)
    if not r.same_span(z):
        # the center always sits inside the radical, so some radical
        # basis vector escapes the center
        witness = next(b for b, w in zip(r.basis, r._num) if not z._holds(w))
        return False, {
            "kind": "radical-witness",
            "element": witness,
            "radical_dim": r.dim,
            "center_dim": z.dim,
        }
    for zv, w in zip(z.basis, z._num):
        mp = minimal_polynomial(g._int_ad(w, z._den))
        if not is_squarefree(mp):
            return False, {"kind": "center-witness", "element": zv, "minpoly": mp}
    return True, None


def killing_complement(g: LieAlgebra, h: Subalgebra) -> Subspace | None:
    """q = h-perp under kappa if kappa is nondegenerate on h, else None.

    Then g = h + q is direct, and [h, q] lies in q as kappa is invariant.
    """
    gram = g.killing_form().gram
    # K b for the integer basis rows b of h, all at one scale
    rows = [[sum(map(mul, r, b)) for r in gram.num] for b in h._num]
    on_h = [[sum(map(mul, r, b)) for b in h._num] for r in rows]
    if len(_gauss_jordan(on_h, h.dim)) < h.dim:
        return None
    return Subspace.from_integers(g, *_null_space(rows, g.dim), "q")


def check_theta_stable(g: LieAlgebra, h: Subalgebra,
                       cartan: CartanData) -> tuple[bool, Subspace | None]:
    """Is h preserved by the involution?  If so, split off q = h-perp.

    Then q exists: kappa(x, theta x) = -B(x, x) < 0 on h for the positive
    definite B(x, y) = -kappa(theta x, y) of CartanData.
    """
    theta = cartan.theta.num
    if not all(h._holds([sum(map(mul, r, b)) for r in theta]) for b in h._num):
        return False, None
    return True, killing_complement(g, h)


def is_symmetric_pair(g: LieAlgebra, h: Subalgebra) -> bool:
    """Is h the fixed algebra of an involutive automorphism sigma of g?

    Decided as: kappa is nondegenerate on h and q = h-perp has [q, q] in h.
    Sound for every g (sigma = +1 on h, -1 on q); complete when kappa is
    nondegenerate, as every such sigma preserves kappa.  With a center it
    can miss a pair: so(2) + center in gl2 is fixed by Ad(J), but kappa
    vanishes on the center.
    """
    return _brackets_into(g, h, killing_complement(g, h))


def _brackets_into(g: LieAlgebra, h: Subalgebra, q: Subspace | None) -> bool:
    """Is q = ``killing_complement(g, h)`` present with [q, q] in h?"""
    return q is not None and all(h._holds(g._int_bracket(x, y))
                                 for i, x in enumerate(q._num)
                                 for y in q._num[i + 1:])


def default_cartan(g: LieAlgebra) -> CartanData | None:
    """X -> -X^T if a Cartan involution of the realized g; cached, None too.

    ``negative_transpose_involution`` raises unless the realized span is
    transpose-stable.  The rest is proved, and only kappa's rank tested:
    * -(XY - YX)^T = [-X^T, -Y^T], so theta is an involutive automorphism.
    * <Y, Z> = tr(Y^T Z) is positive definite and <[X, Y], Z> = <Y, [X^T, Z]>,
      so -kappa(theta X, X) = tr(ad(X)* ad X) >= 0, zero only where ad X = 0.
    * kappa(X, X^T) = 0 forces ad X = 0 for every X in ker kappa, so the
      pairing is positive definite exactly when kappa is nondegenerate.
    """
    if not g._cartan:
        g._cartan = (None,)
        try:
            theta = negative_transpose_involution(g)
        except InvariantViolation:
            return None
        if len(_gauss_jordan([list(r) for r in g.killing_form().gram.num], g.dim)) == g.dim:
            cartan = CartanData.__new__(CartanData)
            cartan.algebra, cartan.theta = g, theta
            g._cartan = (cartan,)
    return g._cartan[0]


def vai_verdict(g: LieAlgebra, h: Subalgebra,
                cartan: CartanData | None = None) -> ReductivityReport:
    """Full verdict: does every smooth vector vanish at infinity?

    holds  -> unimodular and reductive in g; if an involution is
              available and preserves h, a theta-stable certificate
              with the invariant complement is attached.
    fails  -> unimodular but not reductive in g; certificate names the
              offending radical or center element.
    no-invariant-measure -> not unimodular; the question is void and a
              nonzero-trace element is reported.
    """
    if not g.is_reductive():
        raise InputError(
            f"ambient algebra {g.name or '?'} is not reductive")
    if cartan is None:
        cartan = default_cartan(g)
    trace_witness = unimodular_trace_witness(g, h)
    unimodular = trace_witness is None
    reductive, failure_cert = is_reductive_in_g(g, h)

    certificate = None
    stable, q = (False, None) if cartan is None else check_theta_stable(g, h, cartan)
    if stable:
        certificate = {"kind": "theta-stable", "q": q.basis}
    else:
        q = killing_complement(g, h)
    if not reductive:
        certificate = failure_cert

    return ReductivityReport(
        algebra=g.name,
        subalgebra=h.name,
        unimodular=unimodular,
        reductive_in_g=reductive,
        certificate=certificate,
        symmetric_pair=_brackets_into(g, h, q),
        trace_witness=trace_witness,
    )
