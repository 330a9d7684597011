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

from .errors import InvariantViolation, NotReductive
from .exact import (
    ONE,
    ZERO,
    IncrementalSpan,
    RatMat,
    Vec,
    _augmented,
    _bareiss,
    _fraction_row,
    _gauss_jordan,
    _int_matmul,
    _integer_matrix,
    _integer_row,
    kernel,
    rat,
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
        self._den = den = lcm(*[c.denominator for plane in sc for row in plane for c in row])
        self._nz = tuple(tuple(tuple((k, c.numerator * (den // c.denominator))
                                     for k, c in enumerate(row) if c)
                               for row in plane) for plane in sc)
        self._killing = None
        self._cartan: tuple = ()  # (default_cartan(self),) once computed
        self._reductive = None
        self._full = None
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
        flat_cols = [[m.rows[a][b] for m in mats] for a in range(d) for b in range(d)]
        coord = _Coordinatizer(RatMat(flat_cols), n)
        # commutators of the integer matrices den * m_i are den^2 times the true ones
        stacked, den = _integer_matrix([r for m in mats for r in m.rows])
        ints = [stacked[i * d:(i + 1) * d] for i in range(n)]
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
                    if any(e != 0 for e in acc):
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
        out = [0] * self.dim
        for i, xi in enumerate(xs):
            if not xi:
                continue
            nzi = self._nz[i]
            for j, yj in enumerate(ys):
                if not yj:
                    continue
                f = xi * yj
                for k, c in nzi[j]:
                    out[k] += f * c
        return _fraction_row(out, dx * dy * self._den)

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
        return RatMat([_fraction_row(r, dx * self._den) for r in rows])

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
        return self._realization_coord.coords([e for row in m.rows for e in row])

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
            den = self._den * self._den
            self._killing = BilinearForm(self, RatMat([_fraction_row(r, den) for r in gram]))
        return self._killing

    def full_subalgebra(self) -> "Subalgebra":
        if self._full is None:
            self._full = Subalgebra(self, [self.basis_vector(i) for i in range(self.dim)],
                                    name=self.name or "g")
        return self._full

    def is_reductive(self) -> bool:
        """Exact test: the radical equals the center."""
        if self._reductive is None:
            g = self.full_subalgebra()
            r = radical(g)
            # the center is an abelian ideal, hence inside the radical;
            # a zero radical therefore forces a zero center
            self._reductive = True if r.dim == 0 else r.same_span(center(g))
        return self._reductive

    def __repr__(self):
        return f"LieAlgebra({self.name or 'unnamed'}, dim={self.dim})"


class _Coordinatizer:
    """Solve columns-of-B coordinates repeatedly via one precomputed elimination.

    The integer RREF of ``[B | I]`` gives E with E B = [I; 0]: the first
    ``ncols`` entries of E v are the coordinates of v, and v lies in the
    column span exactly when the remaining entries vanish.
    """

    def __init__(self, b: RatMat, ncols: int):
        n = b.nrows
        rows = _augmented(b.rows)
        pivots = _gauss_jordan(rows, b.ncols + n)
        if [p for p in pivots if p < ncols] != list(range(ncols)):
            raise InvariantViolation("basis vectors are linearly dependent")
        self.ncols = ncols
        self.nrows = n
        # row i of E is rows[i][b.ncols:] divided by its pivot entry
        self._pivot = [rows[i][p] for i, p in enumerate(pivots[:ncols])]
        # column-sparse view; inputs are typically sparse, so coords costs
        # nnz(v) * nnz(column) instead of a dense n^2 sweep
        self._cols_nz = [tuple((i, rows[i][b.ncols + j]) for i in range(n)
                               if rows[i][b.ncols + j]) for j in range(n)]

    def coords(self, v: Vec) -> Vec | None:
        return self.int_coords(*_integer_row(v))

    def int_coords(self, w: list[int], den: int) -> Vec | None:
        """Coordinates of the vector ``w / den``, w integers."""
        u = [0] * self.nrows
        for j, x in enumerate(w):
            if x:
                for i, c in self._cols_nz[j]:
                    u[i] += x * c
        if any(u[self.ncols:]):
            return None
        return tuple(Fraction(x, den * p) if x else ZERO for x, p in zip(u, self._pivot))


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
        rows = [_integer_row(r)[0] for r in self.gram.rows]
        return all(sign > 0 and pivot > 0 for pivot, sign in _bareiss(rows))


class Subspace:
    """Linear subspace of an ambient algebra, basis in ambient coordinates."""

    def __init__(self, algebra: LieAlgebra, basis, name: str = ""):
        self.algebra = algebra
        self.basis: tuple[Vec, ...] = tuple(vec(b) for b in basis)
        self.name = name
        for b in self.basis:
            if len(b) != algebra.dim:
                raise InvariantViolation("basis vector has wrong length")
        self.dim = len(self.basis)
        if self.dim:
            # raises on a linearly dependent basis
            self._coord = _Coordinatizer(RatMat.from_cols(self.basis), self.dim)
        else:
            self._coord = None

    def contains(self, v: Vec) -> bool:
        return self.coords(v) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def same_span(self, other: "Subspace") -> bool:
        return self.dim == other.dim and self.contains_subspace(other)

    def coords(self, v: Vec) -> Vec | None:
        """Coefficients of v in this basis; None when v is outside."""
        if self._coord is None:
            return None if any(e != 0 for e in v) else ()
        return self._coord.coords(v)

    def coords_strict(self, v: Vec) -> Vec:
        c = self.coords(v)
        if c is None:
            raise InvariantViolation("vector outside subspace")
        return c

    def from_coords(self, c: Vec) -> Vec:
        out = zero_vec(self.algebra.dim)
        for ci, b in zip(c, self.basis, strict=True):
            if ci != 0:
                out = tuple(o + ci * e for o, e in zip(out, b))
        return out

    def restriction_matrix(self, op: RatMat) -> RatMat:
        """Matrix of ``op`` restricted to this subspace, in this basis.

        Raises when the subspace is not invariant under ``op``.
        """
        cols = []
        for b in self.basis:
            c = self.coords(op.apply(b))
            if c is None:
                raise InvariantViolation("subspace not invariant under operator")
            cols.append(c)
        return RatMat.from_cols(cols) if cols else RatMat.zeros(0, 0)

    def __repr__(self):
        return f"{type(self).__name__}({self.name or '?'}, dim={self.dim})"


class Subalgebra(Subspace):
    """Subspace closed under the bracket; closure is checked exactly."""

    def __init__(self, algebra: LieAlgebra, basis, name: str = ""):
        super().__init__(algebra, basis, name=name)
        for i, bi in enumerate(self.basis):
            for j in range(i + 1, self.dim):
                if not self.contains(algebra.bracket(bi, self.basis[j])):
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
                structure = [[self.coords_strict(g.bracket(bi, bj)) for bj in self.basis]
                             for bi in self.basis]
                self._abstract = LieAlgebra(structure, name=f"{self.name or 'h'}|abstract",
                                            _validate=False)
        return self._abstract


def center(h: Subalgebra) -> Subalgebra:
    """Elements of h commuting with all of h."""
    g = h.algebra
    if h.dim == 0:
        return Subalgebra(g, [], name=f"z({h.name})")
    rows = []
    brackets = [[g.bracket(bi, bj) for bj in h.basis] for bi in h.basis]
    for j in range(h.dim):
        for l in range(g.dim):
            rows.append([brackets[i][j][l] for i in range(h.dim)])
    coeffs = kernel(RatMat(rows, ncols=h.dim))
    return Subalgebra(g, [h.from_coords(c) for c in coeffs], name=f"z({h.name})")


def derived_subalgebra(h: Subalgebra) -> Subalgebra:
    """Span of all brackets [h, h]."""
    g = h.algebra
    span = IncrementalSpan(g.dim)
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            span.add(g.bracket(h.basis[i], h.basis[j]))
    return Subalgebra(g, span.basis(), name=f"[{h.name},{h.name}]")


def radical(h: Subalgebra) -> Subalgebra:
    """Maximal solvable ideal of h.

    Characteristic zero criterion: the radical is the orthogonal
    complement of [h, h] with respect to the Killing form of h itself.
    """
    g = h.algebra
    if h.dim == 0:
        return Subalgebra(g, [], name=f"rad({h.name})")
    habs = h.abstract()
    kappa = habs.killing_form()
    derived = derived_subalgebra(habs.full_subalgebra())
    if derived.dim == 0:
        return Subalgebra(g, h.basis, name=f"rad({h.name})")
    rows = [kappa.gram.apply(d) for d in derived.basis]
    coeffs = kernel(RatMat(rows, ncols=h.dim))
    return Subalgebra(g, [h.from_coords(c) for c in coeffs], name=f"rad({h.name})")


def is_unimodular_pair(g: LieAlgebra, h: Subalgebra) -> bool:
    """Does the homogeneous quotient carry an invariant measure?

    Requires a reductive ambient algebra; then the condition is that the
    adjoint action of h on itself is traceless.
    """
    if not g.is_reductive():
        raise NotReductive(
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
