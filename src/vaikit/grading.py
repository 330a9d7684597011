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
from math import lcm

from .errors import InvariantViolation, NotNilpotent
from .exact import (
    RatMat,
    Vec,
    _integer_matrix,
    _integer_row,
    kernel,
    pivot_indices,
    rational_eigen_decomposition,
    solve,
    vec,
    vec_is_zero,
    vec_scale,
    zero_vec,
)
from .lie import LieAlgebra, Subspace, _Coordinatizer


class Grading:
    """Exact decomposition of g into ad-x eigenspaces.

    parts maps each rational eigenvalue to its eigenspace.  The labels
    and the dimension fill are checked, and labels are distinct, so each
    part is the whole ad-x eigenspace.  Bracket compatibility
    [g^lam, g^mu] in g^{lam+mu} follows: every LieAlgebra satisfies
    Jacobi (validated, read off matrices, or restricted by abstract()),
    so ad x is a derivation and [a, b] lies in the (lam+mu)-eigenspace,
    which is parts[lam+mu] or 0.

    The union of the parts' bases is a basis of g, so ``components_of``
    needs no independence check: each part's basis is independent (its
    Subspace checks that), eigenvectors of distinct eigenvalues are
    independent, and the dimensions fill g.  Its coordinatizer is built
    on the first ``components_of`` call.
    """

    def __init__(self, g: LieAlgebra, x: Vec, parts: dict[Fraction, Subspace]):
        self.algebra = g
        self.x = vec(x)
        self.parts = dict(sorted(parts.items()))
        if sum(p.dim for p in self.parts.values()) != g.dim:
            raise InvariantViolation("eigenspaces do not fill the algebra")
        # [x, b] = lam b for the integer basis rows b of each part, on integers
        xs, dx = _integer_row(self.x)
        for lam, p in self.parts.items():
            f = lam.numerator * dx * g._den
            for b in p._num:
                if [e * lam.denominator for e in g._int_bracket(xs, b)] != [f * e for e in b]:
                    raise InvariantViolation(
                        f"labeled eigenvalue {lam} is not the ad-x eigenvalue")
        self._slices = {}
        lo = 0
        for lam, p in self.parts.items():
            self._slices[lam] = (lo, lo + p.dim)
            lo += p.dim
        self._coord = None

    def nonnegative_part(self) -> Subspace:
        basis = [b for lam, p in self.parts.items() if lam >= 0 for b in p.basis]
        return Subspace(self.algebra, basis, name="g^(>=0)")

    def components_of(self, v: Vec) -> dict[Fraction, Vec]:
        """Split v into its eigenvalue components; zero parts omitted."""
        if self._coord is None:
            cols = [b for p in self.parts.values() for b in p.basis]
            self._coord = _Coordinatizer(*_integer_matrix(cols), self.algebra.dim)
        c = self._coord.coords(v)
        out = {}
        for lam, (lo, hi) in self._slices.items():
            if any(e != 0 for e in c[lo:hi]):
                out[lam] = self.parts[lam].from_coords(c[lo:hi])
        return out

    def __repr__(self):
        body = ", ".join(f"{lam}:{p.dim}" for lam, p in self.parts.items())
        return f"Grading({body})"


class SL2Triple:
    """Elements (x, u, v) with [x,u] = 2u, [x,v] = -2v, [u,v] = x."""

    def __init__(self, g: LieAlgebra, x: Vec, u: Vec, v: Vec):
        self.algebra = g
        self.x, self.u, self.v = vec(x), vec(u), vec(v)
        if g.bracket(self.x, self.u) != vec_scale(Fraction(2), self.u):
            raise InvariantViolation("[x, u] != 2u")
        if g.bracket(self.x, self.v) != vec_scale(Fraction(-2), self.v):
            raise InvariantViolation("[x, v] != -2v")
        if g.bracket(self.u, self.v) != self.x:
            raise InvariantViolation("[u, v] != x")

    def __repr__(self):
        return f"SL2Triple(x={self.x}, u={self.u}, v={self.v})"


def grading_of(g: LieAlgebra, x: Vec) -> Grading:
    """The ad-x eigenspaces of g as a Grading.

    ad x must be semisimple with rational spectrum: the eigenspaces of
    ``rational_eigen_decomposition``, which raises NotSemisimple or
    IrrationalSpectrum otherwise.
    """
    parts = {lam: Subspace(g, basis, name=f"g^{lam}")
             for lam, basis in rational_eigen_decomposition(g.ad(x)).items()}
    return Grading(g, x, parts)


def is_ad_nilpotent(g: LieAlgebra, u: Vec) -> bool:
    """Does some power of ad u vanish?  Then (ad u)^dim g does."""
    return (g.ad(u) ** g.dim).is_zero()


def acts_nilpotently(g: LieAlgebra, n) -> bool:
    """Does the subalgebra n act nilpotently on g?

    Computed via the joint lower central series of the module:
    W_0 = g, W_{k+1} = [n, W_k]; nilpotent action iff the series hits
    zero.  This is the honest subalgebra-level test; nilpotency of the
    individual basis actions alone would not suffice.
    """
    current = [g.basis_vector(i) for i in range(g.dim)]
    for _ in range(g.dim + 1):
        if not current:
            return True
        images = [g.bracket(b, w) for b in n.basis for w in current]
        nxt = [images[i] for i in pivot_indices(images)]
        if len(nxt) >= len(current):
            # series stalled above zero
            return False
        current = nxt
    return not current


def jacobson_morozov(g: LieAlgebra, u: Vec) -> SL2Triple:
    """Complete a nonzero nilpotent u to an sl2-triple (x, u, v).

    Deterministic construction: first solve (ad u)^2 w = -2u and set
    x = [u, w], so that [x, u] = 2u with x in the image of ad u; then
    solve the joint linear system [u, v] = x, [x, v] = -2v for v.  Both
    systems use the rref parametrization with free variables at zero,
    so equal inputs give identical triples.  Solvability is a classical
    theorem for nilpotent u in a reductive algebra; an unsolvable
    system therefore signals corrupted input.
    """
    u = vec(u)
    if vec_is_zero(u):
        raise NotNilpotent("zero element admits no sl2-triple")
    if not is_ad_nilpotent(g, u):
        raise NotNilpotent("element is not ad-nilpotent")
    adu = g.ad(u)
    w = solve(adu @ adu, vec_scale(Fraction(-2), u))
    if w is None:
        raise InvariantViolation("(ad u)^2 w = -2u is unsolvable; input corrupted")
    x = g.bracket(u, w)
    low = g.ad(x) + RatMat.identity(g.dim).scale(2)
    d = lcm(adu.den, low.den)
    stacked = RatMat.from_integers([[e * (d // m.den) for e in r]
                                    for m in (adu, low) for r in m.num], d, g.dim)
    rhs = tuple(x) + zero_vec(g.dim)
    v = solve(stacked, rhs)
    if v is None:
        raise InvariantViolation("triple completion system is unsolvable; input corrupted")
    return SL2Triple(g, x, u, v)


def verify_nonnegative_grading(g: LieAlgebra, n, triple: SL2Triple) -> bool:
    """Does n sit inside the nonnegative part of the triple's grading?

    Checks n in g^+ + g^0 for the grading by triple.x, and the
    companion containment of the centralizer of triple.u.  Both are the
    structural facts that let a nilpotent direction be pushed to
    infinity with controlled volume distortion.

    A triple whose u is missing from the center of n certifies nothing
    and yields False outright.
    """
    if not n.contains(triple.u):
        return False
    if any(not vec_is_zero(g.bracket(triple.u, b)) for b in n.basis):
        return False
    grading = grading_of(g, triple.x)
    nonneg = grading.nonnegative_part()
    if not all(nonneg.contains(b) for b in n.basis):
        return False
    centralizer = kernel(g.ad(triple.u))
    return all(nonneg.contains(z) for z in centralizer)
