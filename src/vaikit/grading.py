"""Eigenspace gradings by semisimple elements and sl2-triples.

A semisimple element x with rational spectrum splits g into exact
ad-eigenspaces g^lambda; brackets add eigenvalues, giving the
triangular decomposition that drives every decay certificate.  For a
nilpotent u, a deterministic two-step linear solve produces an
sl2-triple (x, u, v) through u, the structural backbone for growth
rates on non-reductive quotients.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantViolation, NoNormalizer, NotNilpotent
from .exact import (
    RatMat,
    Vec,
    _common,
    _eigenspaces,
    _integer_row,
    _is_eigenvector,
    _primitive,
    _solve,
    pivot_indices,
    vec,
)
from .lie import LieAlgebra, Subspace, _direct_sum


class Grading:
    """Exact decomposition of g into ad-x eigenspaces.

    parts maps each rational eigenvalue, ascending, to its eigenspace.
    The constructor checks the labels and the fill; ``grading_of`` skips
    both, as ``_eigenspaces`` returns the kernels of ad x - lam for the
    ascending roots lam and raises unless they fill g.  Labels are
    distinct, so each part is the whole ad-x eigenspace.  Bracket compatibility
    [g^lam, g^mu] in g^{lam+mu} follows: every LieAlgebra satisfies
    Jacobi (validated, read off matrices, or restricted by abstract()),
    so ad x is a derivation and [a, b] lies in the (lam+mu)-eigenspace,
    which is parts[lam+mu] or 0.
    """

    def __init__(self, g: LieAlgebra, x: Vec, parts: dict[Fraction, Subspace]):
        self.algebra = g
        self.parts = dict(sorted(parts.items()))
        if sum(p.dim for p in self.parts.values()) != g.dim:
            raise InvariantViolation("eigenspaces do not fill the algebra")
        ad = g.ad(vec(x))
        for lam, p in self.parts.items():
            if not all(_is_eigenvector(ad, lam, b) for b in p._num):
                raise InvariantViolation(
                    f"labeled eigenvalue {lam} is not the ad-x eigenvalue")

    def at_least(self, low: Fraction) -> Subspace:
        """The sum of the parts with labels >= low."""
        return _direct_sum(self.algebra, [p for lam, p in self.parts.items() if lam >= low],
                           f"g^(>={low})")


class SL2Triple:
    """Elements (x, u, v) with [x,u] = 2u, [x,v] = -2v, [u,v] = x.

    Given and stored as the rows of one RatMat ``xuv``; ``x``, ``u`` and
    ``v`` are its Fraction rows.  ``_jacobson_morozov``, the only producer,
    proves the relations: x = [u, w] with (ad u)^2 w = -2u gives
    [x, u] = 2u, and v solves the stacked [u, v] = x, [x, v] = -2v.
    """

    def __init__(self, g: LieAlgebra, xuv: RatMat):
        self.algebra, self.xuv = g, xuv
        self.x, self.u, self.v = xuv.rows


def grading_of(g: LieAlgebra, x: Vec) -> Grading:
    """The ad-x eigenspaces of g as a Grading.

    ad x must be semisimple with rational spectrum: the eigenspaces of
    ``_eigenspaces``, which raises NotSemisimple or IrrationalSpectrum
    otherwise.
    """
    return _grading(g, g.ad(x))


def _grading(g: LieAlgebra, ad: RatMat) -> Grading:
    """``grading_of`` the x with ``ad = g.ad(x)``, unchecked (see Grading)."""
    grading = Grading.__new__(Grading)
    grading.algebra = g
    grading.parts = {lam: Subspace.from_integers(g, basis, d, f"g^{lam}")
                     for lam, (basis, d) in _eigenspaces(ad).items()}
    return grading


def is_ad_nilpotent(g: LieAlgebra, u: Vec) -> bool:
    """Does some power of ad u vanish?  Then (ad u)^dim g does."""
    return (g.ad(u) ** g.dim).is_zero()


def acts_nilpotently(g: LieAlgebra, n) -> bool:
    """Does the subalgebra n act nilpotently on g?

    Computed via the joint lower central series of the module:
    W_0 = g, W_{k+1} = [n, W_k]; nilpotent action iff the series hits
    zero.  This is the honest subalgebra-level test; nilpotency of the
    individual basis actions alone would not suffice.  The W_k are kept
    as primitive integer rows, as scaling a vector changes no span.
    """
    current = RatMat.identity(g.dim).num
    while current:
        images = [g._int_bracket(b, w) for b in n._num for w in current]
        nxt = [_primitive(images[i]) for i in pivot_indices(images)]
        if len(nxt) >= len(current):
            # series stalled above zero
            return False
        current = nxt
    return True


def jacobson_morozov(g: LieAlgebra, u: Vec) -> SL2Triple:
    """Complete a nonzero nilpotent u to an sl2-triple (x, u, v).

    Deterministic construction: first solve (ad u)^2 w = -2u and set
    x = [u, w], so that [x, u] = 2u with x in the image of ad u; then
    solve the joint linear system [u, v] = x, [x, v] = -2v for v.  Both
    systems use the rref parametrization with free variables at zero,
    so equal inputs give identical triples.  In a reductive algebra the
    first system fails exactly when u has a component in the center,
    as the image of ad u lies in [g, g]; that raises NoNormalizer.  For
    nilpotent u in [g, g] both are solvable (Jacobson-Morozov).
    """
    u = vec(u)
    if not any(u):
        raise NotNilpotent("zero element admits no sl2-triple")
    if not is_ad_nilpotent(g, u):
        raise NotNilpotent("element is not ad-nilpotent")
    return _jacobson_morozov(g, *_integer_row(u))


def _jacobson_morozov(g: LieAlgebra, us: list[int], du: int) -> SL2Triple:
    """``jacobson_morozov`` of the nonzero ad-nilpotent u = us / du, us
    integers, such as a center element of a subalgebra acting nilpotently."""
    adu = g._int_ad(us, du)
    w = _solve(adu @ adu, [-2 * e for e in us], du)
    if w is None:
        raise NoNormalizer("(ad u)^2 w = -2u is unsolvable: u has a component "
                           "in the center of g, so no sl2-triple passes through u")
    xs, dx = g._int_bracket(us, w[0]), du * w[1] * g._den  # x = [u, w]
    low = g._int_ad(xs, dx) + RatMat.identity(g.dim).scale(2)
    stacked = RatMat.from_integers(*_common([(m.num, m.den) for m in (adu, low)]), g.dim)
    v = _solve(stacked, xs + [0] * g.dim, dx)
    if v is None:
        raise InvariantViolation("triple completion system is unsolvable; input corrupted")
    return SL2Triple(g, RatMat.from_integers(
        *_common([([xs], dx), ([us], du), ([v[0]], v[1])]), g.dim))


def verify_nonnegative_grading(g: LieAlgebra, n, triple: SL2Triple) -> bool:
    """Does n sit inside the nonnegative part of the triple's grading?

    That is n in g^+ + g^0 for the grading by triple.x, the structural
    fact that lets a nilpotent direction be pushed to infinity with
    controlled volume distortion.  It is read off two guards, u =
    triple.u in n and u central in n, and not off a grading of g.  With
    both, n lies in ker ad u, and ker ad u lies in g^(>=0) for every
    sl2-triple: g is a sum of irreducible ad-sl2 modules, ad u raises the
    ad-x weight by 2, so ker ad u is spanned by their highest-weight
    vectors, whose weights are >= 0 (Humphreys 1972, 7.2).  A triple
    failing either guard certifies nothing and yields False.
    """
    u = triple.xuv.num[1]
    return n._holds(u) and not any(any(g._int_bracket(u, b)) for b in n._num)
