"""Lie algebras over the rationals, given by structure constants.

A ``LieAlgebra`` stores the full structure tensor c[i][j][k] with
``[e_i, e_j] = sum_k c[i][j][k] e_k`` and, optionally, a matrix
realization used for building catalogs and for transpose-based
involutions.  Hand-entered tensors are checked exactly (antisymmetry
and Jacobi) at construction.  Only ``from_realization`` sets a
realization: one matrix per basis element, with the tensor read off
their commutators, so it agrees with the tensor and inherits both
properties; only span closure is checked there.

The public tensor ``sc`` holds Fractions, but all arithmetic runs on a
sparse integer view of it over one common denominator; brackets, ``ad``,
the Killing form and the realization's commutators divide once on the
way out, so they equal Fraction arithmetic's results entry for entry.

Subspaces and subalgebras remember their ambient algebra and their
spanning vectors in ambient coordinates.  All derived data (centers,
derived subalgebras, radicals, Killing forms) is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import InputError, InvariantViolation
from .exact import (
    ONE,
    ZERO,
    RatMat,
    Vec,
    _augmented,
    _bareiss,
    _fraction_row,
    _gauss_jordan,
    _int_matmul,
    _integer_matrix,
    _integer_row,
    _null_space,
    kernel,
    rat,
    rref,
    vec,
    zero_vec,
)


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q with a fixed ordered basis."""

    def __init__(self, structure, name: str = "", _validate: bool = True):
        sc = tuple(tuple(tuple(rat(c) for c in row) for row in plane) for plane in structure)
        self.dim = len(sc)
        if any(len(plane) != self.dim or any(len(row) != self.dim for row in plane)
               for plane in sc):
            raise InvariantViolation("structure tensor must be dim x dim x dim")
        self.sc = sc
        self.name = name
        self.realization = self._realization_coord = None  # set by from_realization
        # integer view: _nz[i][j] lists (k, c[i][j][k] * _den) for c[i][j][k] != 0
        n = self.dim
        ints, self._den = _integer_matrix([row for plane in sc for row in plane])
        self._nz = tuple(tuple(tuple((k, x) for k, x in enumerate(ints[i * n + j]) if x)
                               for j in range(n)) for i in range(n))
        self._killing = None
        self._cartan: tuple = ()  # (default_cartan(self),) once computed
        self._reductive = None
        if _validate:
            self._validate()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_realization(cls, matrices, name: str = "") -> "LieAlgebra":
        """Build the algebra spanned by the given matrices.

        The span must be closed under commutators; the structure tensor
        is read off by solving exact linear systems.
        """
        mats = [m if isinstance(m, RatMat) else RatMat(m) for m in matrices]
        if not mats:
            raise InvariantViolation("empty basis")
        d = mats[0].nrows
        if any(m.nrows != d or m.ncols != d for m in mats):
            raise InvariantViolation("realization matrices must share one square shape")
        n = len(mats)
        # commutators of the integer matrices den * m_i are den^2 times the true ones
        den = lcm(*[m.den for m in mats])
        ints = [[[e * (den // m.den) for e in r] for r in m.num] for m in mats]
        coord = _Coordinatizer([[e for r in a for e in r] for a in ints], den, d * d)
        structure: list[list] = [[zero_vec(n)] * n for _ in range(n)]
        for i, ai in enumerate(ints):
            for j in range(i):
                ab, ba = _int_matmul(ai, ints[j]), _int_matmul(ints[j], ai)
                flat = [x - y for ra, rb in zip(ab, ba) for x, y in zip(ra, rb)]
                c = coord.int_coords(flat, den * den)
                if c is None:
                    raise InvariantViolation(
                        f"span not closed under brackets at basis pair ({i}, {j})")
                structure[i][j] = c
                structure[j][i] = tuple(-e for e in c)
        # commutators of actual matrices satisfy antisymmetry and Jacobi,
        # so the tensor read off here needs no re-validation
        alg = cls(structure, name=name, _validate=False)
        alg.realization, alg._realization_coord = tuple(mats), coord
        return alg

    # -- validation --------------------------------------------------------

    def _validate(self):
        n, nz = self.dim, self._nz
        for i in range(n):
            for j in range(i, n):
                neg = tuple((k, -c) for k, c in nz[j][i])
                if nz[i][j] != neg:
                    k = min(set(nz[i][j]) ^ set(neg))[0]
                    raise InvariantViolation(
                        f"antisymmetry fails at c[{i}][{j}][{k}]")
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = [0] * n
                    self._jacobi_term(i, j, k, acc)
                    self._jacobi_term(j, k, i, acc)
                    self._jacobi_term(k, i, j, acc)
                    if any(acc):
                        raise InvariantViolation(
                            f"Jacobi identity fails on basis triple ({i}, {j}, {k})")

    def _jacobi_term(self, i: int, j: int, k: int, acc: list):
        # acc += [e_i, [e_j, e_k]]
        for m, c in self._nz[j][k]:
            for l, c2 in self._nz[i][m]:
                acc[l] += c * c2

    # -- basic operations ---------------------------------------------------

    def basis_vector(self, i: int) -> Vec:
        return tuple(ONE if j == i else ZERO for j in range(self.dim))

    def bracket(self, x: Vec, y: Vec) -> Vec:
        if len(x) != self.dim or len(y) != self.dim:
            raise InvariantViolation(
                f"bracket of vectors with {len(x)} and {len(y)} entries in dimension {self.dim}")
        xs, dx = _integer_row(x)
        ys, dy = _integer_row(y)
        return _fraction_row(self._int_bracket(xs, ys), dx * dy * self._den)

    def _int_bracket(self, xs, ys) -> list[int]:
        """``_den`` times the bracket of the integer vectors xs and ys."""
        out = [0] * self.dim
        nzy = [(j, yj) for j, yj in enumerate(ys) if yj]
        for i, xi in enumerate(xs):
            if not xi:
                continue
            nzi = self._nz[i]
            for j, yj in nzy:
                f = xi * yj
                for k, c in nzi[j]:
                    out[k] += f * c
        return out

    def ad(self, x: Vec) -> RatMat:
        """Matrix of y -> [x, y] in the fixed basis; column j is [x, e_j]."""
        if len(x) != self.dim:
            raise InvariantViolation(
                f"ad of a vector with {len(x)} entries in dimension {self.dim}")
        xs, dx = _integer_row(x)
        rows = [[0] * self.dim for _ in range(self.dim)]
        for i, xi in enumerate(xs):
            if xi:
                for j, nzij in enumerate(self._nz[i]):
                    for k, c in nzij:
                        rows[k][j] += xi * c
        return RatMat.from_integers(rows, dx * self._den, self.dim)

    def realize(self, x: Vec) -> RatMat:
        if self.realization is None:
            raise InvariantViolation(f"{self.name or 'algebra'} has no matrix realization")
        out = RatMat.zeros(self.realization[0].nrows, self.realization[0].ncols)
        for i, xi in enumerate(x):
            if xi != 0:
                out = out + self.realization[i].scale(xi)
        return out

    def realization_coords(self, m: RatMat) -> Vec | None:
        """Coordinates of a matrix in the realized basis; None if outside."""
        if self.realization is None:
            raise InvariantViolation(f"{self.name or 'algebra'} has no matrix realization")
        return self._realization_coord.int_coords([e for row in m.num for e in row], m.den)

    def killing_form(self) -> "BilinearForm":
        """Killing form kappa(x, y) = tr(ad x ad y), computed once.

        On the basis, tr(ad e_i ad e_j) = sum_{k,l} c[i][k][l] c[j][l][k],
        summed on the integer view and divided by _den^2 at the end.
        """
        if self._killing is None:
            n, nz = self.dim, self._nz
            # entry[j][(k, l)] = c[j][l][k] * _den, the (k, l) entry of ad e_j
            entry = [{(k, l): c for l, row in enumerate(nz[j]) for k, c in row}
                     for j in range(n)]
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                terms = [((k, l), c) for k, row in enumerate(nz[i]) for l, c in row]
                for j in range(i, n):
                    ej = entry[j]
                    gram[i][j] = gram[j][i] = sum(c * ej.get(kl, 0) for kl, c in terms)
            self._killing = BilinearForm(self, RatMat.from_integers(gram, self._den ** 2, n))
        return self._killing

    def is_reductive(self) -> bool:
        """Exact test: the kernel of the Killing form is the center.

        The center z and the nilradical N lie in ker kappa: for y in N,
        ad x ad y raises the filtration by the ideals [N, ...], so it is
        nilpotent.  If ker kappa = z then N = z; as [g, rad g] lies in N,
        ad is nilpotent on rad g, which by Engel lies in N = z.  Conversely
        a reductive g = z + s has ker kappa = z (Cartan's criterion on s).
        """
        if self._reductive is None:
            self._reductive = all(self.ad(k).is_zero()
                                  for k in kernel(self.killing_form().gram))
        return self._reductive

    def __repr__(self):
        return f"LieAlgebra({self.name or 'unnamed'}, dim={self.dim})"


class _Coordinatizer:
    """Coordinates in the basis ``vectors[j] / den`` via one precomputed elimination.

    The vectors[j] are k integer vectors of length n.  Row reducing
    ``[vectors | I]`` on its first n columns gives rows ``[R_i | T_i]``
    with R = T V: R is the RREF of the span, with pivot columns p_i, and
    T holds the combinations.  A vector w lies in the span exactly when
    w = sum_i w[p_i] R_i, and then its coordinates in the vectors[j] are
    sum_i w[p_i] T_ij, den times those in the basis.
    """

    def __init__(self, vectors, den: int, n: int):
        k = len(vectors)
        rows = _augmented(vectors)
        pivots = _gauss_jordan(rows, n)
        if len(pivots) < k:
            raise InvariantViolation("basis vectors are linearly dependent")
        # s R and s T over the common denominator s of the pivot entries
        self._s = s = lcm(*[row[p] for row, p in zip(rows, pivots)])
        rows = [[e * (s // row[p]) for e in row] for row, p in zip(rows, pivots)]
        self.den, self.n, self._pivots = den, n, pivots
        self._free_cols = [(c, [r[c] for r in rows]) for c in range(n) if c not in pivots]
        self._t_cols = [[r[n + j] for r in rows] for j in range(k)]

    def eliminate(self, w: list[int]) -> list[int] | None:
        """s times the coordinates of w in the vectors[j]; None when w is outside."""
        if len(w) != self.n:
            raise InvariantViolation(f"vector with {len(w)} entries in dimension {self.n}")
        u = [w[p] for p in self._pivots]
        s = self._s
        if any(s * w[c] != sum(map(mul, u, col)) for c, col in self._free_cols):
            return None
        return [sum(map(mul, u, col)) for col in self._t_cols]

    def coords(self, v: Vec) -> Vec | None:
        return self.int_coords(*_integer_row(v))

    def int_coords(self, w: list[int], dw: int) -> Vec | None:
        """Coordinates of the vector ``w / dw``, w integers."""
        x = self.eliminate(w)
        if x is None:
            return None
        d = self._s * dw
        return tuple(Fraction(e * self.den, d) if e else ZERO for e in x)

    def matrix(self, ws, dw: int) -> RatMat | None:
        """The matrix whose column j holds the coordinates of ``ws[j] / dw``."""
        cols = [self.eliminate(w) for w in ws]
        if None in cols:
            return None
        return RatMat.from_integers([[c[i] * self.den for c in cols]
                                     for i in range(len(self._t_cols))],
                                    self._s * dw, len(cols))


class BilinearForm:
    """Symmetric bilinear form on an algebra, stored as a Gram matrix."""

    def __init__(self, algebra: LieAlgebra, gram: RatMat):
        if gram.nrows != algebra.dim or gram.ncols != algebra.dim:
            raise InvariantViolation("Gram matrix shape mismatch")
        if gram != gram.transpose():
            raise InvariantViolation("form is not symmetric")
        self.algebra = algebra
        self.gram = gram

    def value(self, x: Vec, y: Vec) -> Fraction:
        return sum((xi * e for xi, e in zip(x, self.gram.apply(y), strict=True)), ZERO)

    def is_positive_definite(self) -> bool:
        """Sylvester criterion: all leading principal minors positive.

        They are the pivots of one Bareiss pass (times positive row
        scales); a row exchange means a zero minor.
        """
        rows = [list(r) for r in self.gram.num]
        return all(sign > 0 and pivot > 0 for pivot, sign in _bareiss(rows))


class Subspace:
    """Linear subspace of an ambient algebra, basis in ambient coordinates.

    ``basis`` holds Fraction vectors; the arithmetic uses the same basis
    as integer rows ``_num`` over one denominator ``_den``.
    """

    def __init__(self, algebra: LieAlgebra, basis, name: str = ""):
        self.algebra = algebra
        self.basis: tuple[Vec, ...] = tuple(vec(b) for b in basis)
        self.name = name
        for b in self.basis:
            if len(b) != algebra.dim:
                raise InvariantViolation("basis vector has wrong length")
        self.dim = len(self.basis)
        self._num, self._den = _integer_matrix(self.basis)
        # raises on a linearly dependent basis
        self._coord = _Coordinatizer(self._num, self._den, algebra.dim) if self.dim else None

    def _integer_vector(self, v: Vec) -> tuple[list[int], int]:
        if len(v) != self.algebra.dim:
            raise InvariantViolation(
                f"vector with {len(v)} entries in dimension {self.algebra.dim}")
        return _integer_row(v)

    def contains(self, v: Vec) -> bool:
        w, _ = self._integer_vector(v)
        if self._coord is None:
            return not any(w)
        return self._coord.eliminate(w) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def same_span(self, other: "Subspace") -> bool:
        return self.dim == other.dim and self.contains_subspace(other)

    def coords(self, v: Vec) -> Vec | None:
        """Coefficients of v in this basis; None when v is outside."""
        w, dw = self._integer_vector(v)
        if self._coord is None:
            return None if any(w) else ()
        return self._coord.int_coords(w, dw)

    def coords_strict(self, v: Vec) -> Vec:
        c = self.coords(v)
        if c is None:
            raise InvariantViolation("vector outside subspace")
        return c

    def from_coords(self, c: Vec) -> Vec:
        if len(c) != self.dim:
            raise ValueError("coordinate vector has wrong length")
        cs, dc = _integer_row(c)
        out = [0] * self.algebra.dim
        for x, b in zip(cs, self._num):
            if x:
                out = [o + x * e for o, e in zip(out, b)]
        return _fraction_row(out, dc * self._den)

    def restriction_matrix(self, op: RatMat) -> RatMat:
        """Matrix of ``op`` restricted to this subspace, in this basis.

        Raises when the subspace is not invariant under ``op``.
        """
        if op.nrows != self.algebra.dim or op.ncols != self.algebra.dim:
            raise ValueError("shape mismatch")
        if self._coord is None:
            return RatMat.zeros(0, 0)
        images = [[sum(map(mul, r, b)) for r in op.num] for b in self._num]
        m = self._coord.matrix(images, op.den * self._den)
        if m is None:
            raise InvariantViolation("subspace not invariant under operator")
        return m

    def __repr__(self):
        return f"{type(self).__name__}({self.name or '?'}, dim={self.dim})"


class Subalgebra(Subspace):
    """Subspace closed under the bracket; closure is checked exactly.

    Callers that proved closure (``center``, ``radical``) skip the check
    with ``_validate=False``.
    """

    def __init__(self, algebra: LieAlgebra, basis, name: str = "", _validate: bool = True):
        super().__init__(algebra, basis, name=name)
        if _validate:
            num = self._num
            for i, bi in enumerate(num):
                for j in range(i + 1, self.dim):
                    if self._coord.eliminate(algebra._int_bracket(bi, num[j])) is None:
                        raise InvariantViolation(
                            f"not closed under bracket at basis pair ({i}, {j})")
        self._abstract = None

    def abstract(self) -> LieAlgebra:
        """This subalgebra as a standalone algebra in its own basis."""
        if self._abstract is None:
            g = self.algebra
            if self.dim == g.dim and all(
                    b == g.basis_vector(i) for i, b in enumerate(self.basis)):
                self._abstract = g
            else:
                # closure was proven at construction, so no coordinate is None
                den = g._den * self._den ** 2
                structure = [[self._coord.int_coords(g._int_bracket(bi, bj), den)
                              for bj in self._num] for bi in self._num]
                self._abstract = LieAlgebra(structure, name=f"{self.name or 'h'}|abstract",
                                            _validate=False)
        return self._abstract


def center(h: Subalgebra) -> Subalgebra:
    """Elements of h commuting with all of h.

    The center is an ideal of h, so a subalgebra; it is not re-checked.
    """
    g, num = h.algebra, h._num
    # brackets of the integer basis rows, all at the same scale
    brackets = [[g._int_bracket(bi, bj) for bj in num] for bi in num]
    rows = [[brackets[i][j][l] for i in range(h.dim)] for j in range(h.dim) for l in range(g.dim)]
    coeffs = _null_space(rows, h.dim)
    return Subalgebra(g, [h.from_coords(c) for c in coeffs], name=f"z({h.name})",
                      _validate=False)


def derived_subalgebra(h: Subalgebra) -> Subalgebra:
    """Span of all brackets [h, h]."""
    g, num = h.algebra, h._num
    brackets = [g._int_bracket(bi, bj) for i, bi in enumerate(num) for bj in num[i + 1:]]
    r, pivots = rref(RatMat.from_integers(brackets, 1, g.dim))
    return Subalgebra(g, r.rows[:len(pivots)], name=f"[{h.name},{h.name}]")


def radical(h: Subalgebra) -> Subalgebra:
    """Maximal solvable ideal of h.

    Characteristic zero criterion: the radical is the orthogonal
    complement of [h, h] with respect to the Killing form of h itself.
    [h, h] is spanned by the abstract structure tensor's entries c[i][j].
    The radical is an ideal of h, so a subalgebra; it is not re-checked.
    """
    habs = h.abstract()
    derived, _ = _integer_matrix([habs.sc[i][j] for i in range(h.dim)
                                  for j in range(i + 1, h.dim)])
    rank = len(_gauss_jordan(derived, h.dim))
    # K is symmetric, so the row d K of each derived row d is (K d)^T
    rows = _int_matmul(derived[:rank], habs.killing_form().gram.num)
    coeffs = _null_space(rows, h.dim)
    return Subalgebra(h.algebra, [h.from_coords(c) for c in coeffs], name=f"rad({h.name})",
                      _validate=False)


def is_unimodular_pair(g: LieAlgebra, h: Subalgebra) -> bool:
    """Does the homogeneous quotient carry an invariant measure?

    Requires a reductive ambient algebra; then the condition is that the
    adjoint action of h on itself is traceless.
    """
    if not g.is_reductive():
        raise InputError(
            f"ambient algebra {g.name or '?'} is not reductive: radical exceeds center")
    return unimodular_trace_witness(g, h) is None


def unimodular_trace_witness(g: LieAlgebra, h: Subalgebra) -> Vec | None:
    """A basis element of h whose adjoint trace on h is nonzero, if any."""
    for x in h.basis:
        if h.restriction_matrix(g.ad(x)).trace() != 0:
            return x
    return None


def negative_transpose_involution(g: LieAlgebra) -> RatMat:
    """Coordinate matrix of X -> -X^T on a realized algebra.

    The realized span must be stable under transposition.
    """
    if g.realization is None:
        raise InvariantViolation("negative-transpose involution needs a matrix realization")
    cols = []
    for m in g.realization:
        c = g.realization_coords(-(m.transpose()))
        if c is None:
            raise InvariantViolation("span is not stable under negative transpose")
        cols.append(c)
    return RatMat.from_cols(cols)
