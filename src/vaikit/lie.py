"""Lie algebras over the rationals, given by structure constants.

A ``LieAlgebra`` stores the full structure tensor c[i][j][k] with
``[e_i, e_j] = sum_k c[i][j][k] e_k`` and, optionally, a matrix
realization used for building catalogs and for transpose-based
involutions.  Hand-entered tensors are checked exactly (antisymmetry
and Jacobi) at construction.  Only ``from_realization`` sets a
realization: one matrix per basis element, with the tensor read off
their commutators, so it agrees with the tensor and inherits both
properties; only span closure is checked there.

The tensor is stored once, as sparse integers over one reduced
denominator, and a subspace's basis once, as integer rows over one
reduced denominator; the producers here and in ``reductivity``,
``grading`` and ``witness`` build both from integers
(``from_integers``).  Fractions appear only in parsed input (the public
constructors), in the ``basis`` view, built on first use, in returned
scalars, and in the entry points ``bracket``, ``ad`` and ``contains``,
each one parse into the integer routine the package calls.  Arithmetic
divides once on the way out, so it equals Fraction arithmetic's results
entry for entry.

Subspaces and subalgebras remember their ambient algebra and their
spanning vectors in ambient coordinates.  All derived data (centers,
derived subalgebras, radicals, Killing forms) is exact.
"""

from __future__ import annotations

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
    _common,
    _fraction_row,
    _gauss_jordan,
    _int_matmul,
    _integer_row,
    _null_space,
    rref,
)


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q with a fixed ordered basis.

    The tensor is stored once, over one reduced denominator ``_den``:
    ``_nz[i][j]`` lists ``(k, c[i][j][k] * _den)`` for the nonzero entries.
    """

    def __init__(self, structure, name: str = ""):
        sc = [[list(row) for row in plane] for plane in structure]
        n = len(sc)
        if any(len(plane) != n or any(len(row) != n for row in plane) for plane in sc):
            raise InvariantViolation("structure tensor must be dim x dim x dim")
        self._set(RatMat([row for plane in sc for row in plane], ncols=n), name)
        self._validate()

    @classmethod
    def from_integers(cls, rows, den: int, name: str) -> "LieAlgebra":
        """The algebra with c[i][j] = ``rows[i * dim + j] / den``, unchecked.

        For tensors that are antisymmetric and satisfy Jacobi by
        construction: read off matrices, or restricted to a subalgebra.
        """
        alg = cls.__new__(cls)
        alg._set(RatMat.from_integers(rows, den, len(rows[0]) if rows else 0), name)
        return alg

    def _set(self, tensor: RatMat, name: str):
        n, rows, self._den = tensor.ncols, tensor.num, tensor.den
        self.dim = n
        self._nz = tuple(tuple(tuple((k, x) for k, x in enumerate(rows[i * n + j]) if x)
                               for j in range(n)) for i in range(n))
        self.name = name
        self.realization = self._realization_coord = None  # set by from_realization
        self._killing = None
        self._cartan: tuple = ()  # (default_cartan(self),) once computed
        self._reductive = None

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
        rows = [[0] * n] * (n * n)
        for i, ai in enumerate(ints):
            for j in range(i):
                ab, ba = _int_matmul(ai, ints[j]), _int_matmul(ints[j], ai)
                c = coord.eliminate([x - y for ra, rb in zip(ab, ba) for x, y in zip(ra, rb)])
                if c is None:
                    raise InvariantViolation(
                        f"span not closed under brackets at basis pair ({i}, {j})")
                rows[i * n + j] = c
                rows[j * n + i] = [-e for e in c]
        # the commutator is s c / den^2 in the ints_k = den m_k, i.e. c / (s den)
        # in the m_k; commutators of actual matrices satisfy antisymmetry
        # and Jacobi, so the tensor read off here needs no validation
        alg = cls.from_integers(rows, coord.s * den, name)
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
        return self._int_ad(*_integer_row(x))

    def _int_ad(self, xs, dx: int) -> RatMat:
        """``ad`` of the vector xs / dx, xs integers."""
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

    def killing_form(self) -> "BilinearForm":
        """Killing form kappa(x, y) = tr(ad x ad y), computed once.

        On the basis, tr(ad e_i ad e_j) = sum_{k,l} c[i][k][l] c[j][l][k],
        summed on the integer tensor and divided by _den^2 at the end.
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
            gram = self.killing_form().gram
            basis, _ = _null_space([list(r) for r in gram.num], self.dim)
            self._reductive = all(self._int_ad(k, 1).is_zero() for k in basis)
        return self._reductive


class _Coordinatizer:
    """Coordinates in the basis ``vectors[j] / den`` via one precomputed elimination.

    The vectors[j] are k integer vectors of length n.  Row reducing
    ``[vectors | I]`` on its first n columns gives rows ``[R_i | T_i]``
    with R = T V: R is the RREF of the span, with pivot columns p_i, and
    T holds the combinations.  A vector w lies in the span exactly when
    w = sum_i w[p_i] R_i, and then its coordinates in the vectors[j] are
    sum_i w[p_i] T_ij, den times those in the basis.  R and T are kept
    times ``s``, the lcm of the pivot entries.
    """

    def __init__(self, vectors, den: int, n: int):
        k = len(vectors)
        rows = _augmented(vectors)
        pivots = _gauss_jordan(rows, n)
        if len(pivots) < k:
            raise InvariantViolation("basis vectors are linearly dependent")
        self.s = s = lcm(*[row[p] for row, p in zip(rows, pivots)])
        rows = [[e * (s // row[p]) for e in row] for row, p in zip(rows, pivots)]
        self.den, self.n, self._pivots = den, n, pivots
        self._free_cols = [(c, [r[c] for r in rows]) for c in range(n) if c not in pivots]
        self._t_cols = [[r[n + j] for r in rows] for j in range(k)]

    def eliminate(self, w) -> list[int] | None:
        """s times the coordinates of w in the vectors[j]; None when w is outside."""
        if len(w) != self.n:
            raise InvariantViolation(f"vector with {len(w)} entries in dimension {self.n}")
        u = [w[p] for p in self._pivots]
        s = self.s
        if any(s * w[c] != sum(map(mul, u, col)) for c, col in self._free_cols):
            return None
        return [sum(map(mul, u, col)) for col in self._t_cols]

    def matrix(self, ws, dw: int) -> RatMat | None:
        """The matrix whose column j holds the coordinates of ``ws[j] / dw``."""
        cols = [self.eliminate(w) for w in ws]
        if None in cols:
            return None
        return RatMat.from_integers([[c[i] * self.den for c in cols]
                                     for i in range(len(self._t_cols))],
                                    self.s * dw, len(cols))


class BilinearForm:
    """Symmetric bilinear form on an algebra, stored as a square Gram matrix.

    Symmetry is proved, not checked: ``killing_form`` fills (i, j) and
    (j, i) with one sum.  ``CartanData`` forms -theta^T K after checking
    that theta is an involutive automorphism, so theta^T K theta = K and
    -theta^T K is symmetric; ``default_cartan`` never forms the pairing.
    """

    def __init__(self, algebra: LieAlgebra, gram: RatMat):
        self.algebra = algebra
        self.gram = gram

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion on the integer rows, whose minors are den^k times the Gram's."""
        return all(m > 0 for m in _bareiss([list(r) for r in self.gram.num]))


class Subspace:
    """Linear subspace of an ambient algebra, basis in ambient coordinates.

    The basis is stored once, as the rows of a RatMat: integer rows
    ``_num`` over one reduced denominator ``_den``; ``basis`` is its
    Fraction ``rows`` view, built on first use.
    """

    def __init__(self, algebra: LieAlgebra, basis, name: str = ""):
        basis = [list(b) for b in basis]
        if any(len(b) != algebra.dim for b in basis):
            raise InvariantViolation("basis vector has wrong length")
        self._set(algebra, RatMat(basis, ncols=algebra.dim), name)

    @classmethod
    def from_integers(cls, algebra: LieAlgebra, num, den: int, name: str) -> "Subspace":
        """The span of the integer rows ``num / den``; a Subalgebra's
        closure is not checked, so its caller must have proven it."""
        space = cls.__new__(cls)
        space._set(algebra, RatMat.from_integers(num, den, algebra.dim), name)
        return space

    def _set(self, algebra: LieAlgebra, rows: RatMat, name: str):
        self.algebra = algebra
        self.name = name
        self._rows, self._num, self._den = rows, rows.num, rows.den
        self.dim = len(self._num)
        # raises on a linearly dependent basis
        self._coord = _Coordinatizer(self._num, self._den, algebra.dim)

    @property
    def basis(self) -> tuple[Vec, ...]:
        return self._rows.rows

    def _holds(self, w) -> bool:
        """Does the span contain the integer vector w?"""
        return self._coord.eliminate(w) is not None

    def contains(self, v: Vec) -> bool:
        return self._holds(_integer_row(v)[0])

    def same_span(self, other: "Subspace") -> bool:
        return self.dim == other.dim and all(self._holds(r) for r in other._num)

    def restriction_matrix(self, op: RatMat) -> RatMat:
        """Matrix of ``op`` restricted to this subspace, in this basis.

        Raises when the subspace is not invariant under ``op``.
        """
        if op.nrows != self.algebra.dim or op.ncols != self.algebra.dim:
            raise ValueError("shape mismatch")
        images = [[sum(map(mul, r, b)) for r in op.num] for b in self._num]
        m = self._coord.matrix(images, op.den * self._den)
        if m is None:
            raise InvariantViolation("subspace not invariant under operator")
        return m


def _direct_sum(g: LieAlgebra, spaces, name: str) -> Subspace:
    """The span of the bases of spaces, in order; raises when they are dependent."""
    return Subspace.from_integers(g, *_common([(s._num, s._den) for s in spaces]), name)


class Subalgebra(Subspace):
    """Subspace closed under the bracket; closure is checked exactly.

    ``from_integers`` skips the check, for the producers that proved
    closure (``center``, ``radical``, ``derived_subalgebra``).
    """

    def __init__(self, algebra: LieAlgebra, basis, name: str = ""):
        super().__init__(algebra, basis, name=name)
        num = self._num
        for i, bi in enumerate(num):
            for j in range(i + 1, self.dim):
                if not self._holds(algebra._int_bracket(bi, num[j])):
                    raise InvariantViolation(
                        f"not closed under bracket at basis pair ({i}, {j})")

    def abstract(self) -> LieAlgebra:
        """This subalgebra as a standalone algebra in its own basis."""
        g = self.algebra
        if self._den == 1 and self._num == RatMat.identity(g.dim).num:
            return g
        # [b_i, b_j] = bracket / (g._den _den^2) for the rows b_i = _num[i] / _den;
        # its coordinates are _den eliminate / (s g._den _den^2), and
        # closure was proven at construction, so none is None
        rows = [self._coord.eliminate(g._int_bracket(bi, bj))
                for bi in self._num for bj in self._num]
        return LieAlgebra.from_integers(rows, self._coord.s * g._den * self._den,
                                        f"{self.name or 'h'}|abstract")


def center(h: Subalgebra) -> Subalgebra:
    """Elements of h commuting with all of h.

    The center is an ideal of h, so a subalgebra; it is not re-checked.
    """
    g, num = h.algebra, h._num
    # brackets of the integer basis rows, all at the same scale
    brackets = [[g._int_bracket(bi, bj) for bj in num] for bi in num]
    rows = [[brackets[i][j][l] for i in range(h.dim)] for j in range(h.dim) for l in range(g.dim)]
    coeffs, d = _null_space(rows, h.dim)
    return Subalgebra.from_integers(g, _int_matmul(coeffs, num), d * h._den, f"z({h.name})")


def derived_subalgebra(h: Subalgebra) -> Subalgebra:
    """Span of all brackets [h, h], an ideal of h, so a subalgebra."""
    g, num = h.algebra, h._num
    brackets = [g._int_bracket(bi, bj) for i, bi in enumerate(num) for bj in num[i + 1:]]
    r, pivots = rref(RatMat.from_integers(brackets, 1, g.dim))
    return Subalgebra.from_integers(g, r.num[:len(pivots)], r.den, f"[{h.name},{h.name}]")


def radical(h: Subalgebra) -> Subalgebra:
    """Maximal solvable ideal of h.

    Characteristic zero criterion: the radical is the orthogonal
    complement of [h, h] with respect to the Killing form of h itself.
    [h, h] is spanned by the abstract structure tensor's entries c[i][j].
    The radical is an ideal of h, so a subalgebra; it is not re-checked.
    """
    habs = h.abstract()
    derived = []
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            row = [0] * h.dim
            for k, c in habs._nz[i][j]:
                row[k] = c
            derived.append(row)
    rank = len(_gauss_jordan(derived, h.dim))
    # K is symmetric, so the row d K of each derived row d is (K d)^T
    rows = _int_matmul(derived[:rank], habs.killing_form().gram.num)
    coeffs, d = _null_space(rows, h.dim)
    return Subalgebra.from_integers(h.algebra, _int_matmul(coeffs, h._num), d * h._den,
                                    f"rad({h.name})")


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
    for x, xs in zip(h.basis, h._num):
        if h.restriction_matrix(g._int_ad(xs, h._den)).trace() != 0:
            return x
    return None


def negative_transpose_involution(g: LieAlgebra) -> RatMat:
    """Coordinate matrix of X -> -X^T on a realized algebra.

    The realized span must be stable under transposition.
    """
    if g.realization is None:
        raise InvariantViolation("negative-transpose involution needs a matrix realization")
    coord = g._realization_coord
    # -m^T for m = num / m.den, flattened, over the realization's common denominator
    theta = coord.matrix([[-e * (coord.den // m.den) for col in zip(*m.num) for e in col]
                          for m in g.realization], coord.den)
    if theta is None:
        raise InvariantViolation("span is not stable under negative transpose")
    return theta
