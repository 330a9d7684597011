"""Exact linear algebra over the rationals.

Dense matrices with ``Fraction`` entries, reduced row echelon form,
kernels in the standard free-variable parametrization, minimal and
characteristic polynomials, and eigenspace decompositions restricted to
rational eigenvalues.

Everything here is deterministic.  Pivots are chosen leftmost-first and
rows are scanned top to bottom, kernel bases set each free variable to 1
in index order, and eigenvalues are reported in ascending order.  The
same input therefore always yields the same basis vectors, which keeps
downstream certificates reproducible.

Polynomials are coefficient tuples in ascending degree order, following
the usual dense convention; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce an int, string like '3/4', or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vec(entries) -> Vec:
    return tuple(rat(e) for e in entries)


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def vec_dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


def vec_is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


class RatMat:
    """Immutable dense matrix over the rationals.

    Rows are tuples of Fraction.  Multiplication takes an integer fast
    path when both operands have denominator 1 throughout, which is the
    common case for structure constants and adjoint matrices.
    """

    __slots__ = ("rows", "nrows", "ncols", "_integral")

    def __init__(self, rows, ncols: int | None = None):
        self.rows: tuple[Vec, ...] = tuple(tuple(rat(e) for e in r) for r in rows)
        self.nrows = len(self.rows)
        if self.rows:
            self.ncols = len(self.rows[0])
        else:
            self.ncols = 0 if ncols is None else ncols
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")
        self._integral = None

    @classmethod
    def zeros(cls, n: int, m: int) -> "RatMat":
        return cls([(ZERO,) * m] * n, ncols=m)

    @classmethod
    def identity(cls, n: int) -> "RatMat":
        return cls([unit_vec(n, i) for i in range(n)])

    @classmethod
    def from_cols(cls, cols) -> "RatMat":
        cols = [vec(c) for c in cols]
        if not cols:
            return cls([])
        return cls(list(zip(*cols)))

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list[Vec]:
        return [self.col(j) for j in range(self.ncols)]

    def is_integral(self) -> bool:
        if self._integral is None:
            self._integral = all(e.denominator == 1 for r in self.rows for e in r)
        return self._integral

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other: "RatMat") -> "RatMat":
        return RatMat([vec_add(a, b) for a, b in zip(self.rows, other.rows, strict=True)])

    def __sub__(self, other: "RatMat") -> "RatMat":
        return RatMat([vec_sub(a, b) for a, b in zip(self.rows, other.rows, strict=True)])

    def __neg__(self) -> "RatMat":
        return RatMat([vec_scale(-ONE, r) for r in self.rows])

    def scale(self, c) -> "RatMat":
        c = rat(c)
        return RatMat([vec_scale(c, r) for r in self.rows])

    def __matmul__(self, other: "RatMat") -> "RatMat":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        if self.is_integral() and other.is_integral():
            a = [[e.numerator for e in r] for r in self.rows]
            bt = [[other.rows[i][j].numerator for i in range(other.nrows)]
                  for j in range(other.ncols)]
            out = [[Fraction(sum(x * y for x, y in zip(ar, bc))) for bc in bt] for ar in a]
            return RatMat(out)
        bt = list(zip(*other.rows)) if other.rows else []
        return RatMat([[vec_dot(r, c) for c in bt] for r in self.rows])

    def apply(self, v: Vec) -> Vec:
        """Matrix times column vector; skips zero entries of v."""
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        out = [ZERO] * self.nrows
        for j, vj in enumerate(v):
            if vj == 0:
                continue
            for i in range(self.nrows):
                mij = self.rows[i][j]
                if mij != 0:
                    out[i] += mij * vj
        return tuple(out)

    def transpose(self) -> "RatMat":
        return RatMat(list(zip(*self.rows))) if self.rows else RatMat([])

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace of non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), ZERO)

    def is_zero(self) -> bool:
        return all(e == 0 for r in self.rows for e in r)

    def __pow__(self, k: int) -> "RatMat":
        if self.nrows != self.ncols:
            raise ValueError("power of non-square matrix")
        out = RatMat.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return out

    def inverse(self) -> "RatMat":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        aug = RatMat([list(self.rows[i]) + list(RatMat.identity(n).rows[i])
                      for i in range(n)])
        r, pivots = rref(aug)
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return RatMat([row[n:] for row in r.rows])

    def det(self) -> Fraction:
        """Determinant by fraction-free style Gaussian elimination."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        n = self.nrows
        m = [list(r) for r in self.rows]
        det = ONE
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c] != 0), None)
            if piv is None:
                return ZERO
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det *= m[c][c]
            inv = ONE / m[c][c]
            for r in range(c + 1, n):
                if m[r][c] != 0:
                    f = m[r][c] * inv
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        return det

    def to_floats(self) -> list[list[float]]:
        return [[float(e) for e in r] for r in self.rows]

    def __repr__(self):
        return f"RatMat({[list(map(str, r)) for r in self.rows]})"


def rref(m: RatMat) -> tuple[RatMat, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Pivoting rule: for each column left to right, take the first nonzero
    entry scanning rows top to bottom.  The RREF itself is unique; the
    rule only fixes the arithmetic path.
    """
    rows = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    pivots: list[int] = []
    rank = 0
    for c in range(nc):
        piv = next((r for r in range(rank, nr) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = ONE / rows[rank][c]
        rows[rank] = [e * inv for e in rows[rank]]
        for r in range(nr):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(c)
        rank += 1
        if rank == nr:
            break
    return RatMat(rows), pivots


def kernel(m: RatMat) -> list[Vec]:
    """Basis of the null space in the standard parametrization.

    For each free column, the corresponding basis vector has a 1 in that
    coordinate, the back-substituted pivot entries, and 0 in every other
    free coordinate.  Free columns are visited in index order.
    """
    r, pivots = rref(m)
    nc = m.ncols
    pivset = set(pivots)
    basis: list[Vec] = []
    for free in range(nc):
        if free in pivset:
            continue
        v = [ZERO] * nc
        v[free] = ONE
        for i, p in enumerate(pivots):
            v[p] = -r.rows[i][free]
        basis.append(tuple(v))
    return basis


def solve(m: RatMat, b: Vec) -> Vec | None:
    """One solution of ``m x = b`` with all free variables set to 0.

    Returns None when the system is inconsistent.
    """
    aug = RatMat([list(row) + [bv] for row, bv in zip(m.rows, b, strict=True)])
    r, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    x = [ZERO] * m.ncols
    for i, p in enumerate(pivots):
        x[p] = r.rows[i][m.ncols]
    return tuple(x)


class IncrementalSpan:
    """Row space under incremental insertion, with membership queries.

    Maintains rows in reduced echelon form.  ``add`` returns True when
    the vector enlarged the span.  Used for greedy basis extension and
    for cheap repeated membership tests.
    """

    def __init__(self, dim: int, vectors=()):
        self.dim = dim
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []
        for v in vectors:
            self.add(v)

    def _reduce(self, v) -> list[Fraction]:
        w = list(v)
        for row, p in zip(self.rows, self.pivots):
            if w[p] != 0:
                f = w[p]
                w = [a - f * b for a, b in zip(w, row)]
        return w

    def contains(self, v: Vec) -> bool:
        return all(e == 0 for e in self._reduce(v))

    def add(self, v) -> bool:
        w = self._reduce(v)
        p = next((i for i, e in enumerate(w) if e != 0), None)
        if p is None:
            return False
        inv = ONE / w[p]
        w = [e * inv for e in w]
        for row in self.rows:
            if row[p] != 0:
                f = row[p]
                row[:] = [a - f * b for a, b in zip(row, w)]
        # keep rows sorted by pivot column
        idx = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(idx, w)
        self.pivots.insert(idx, p)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self) -> list[Vec]:
        return [tuple(r) for r in self.rows]


# ---------------------------------------------------------------------------
# polynomials, ascending coefficient order


Poly = tuple[Fraction, ...]


def poly(coeffs) -> Poly:
    c = [rat(e) for e in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(p: Poly) -> int:
    return len(p) - 1


def poly_is_zero(p: Poly) -> bool:
    return len(p) == 0


def poly_monic(p: Poly) -> Poly:
    if not p:
        return p
    lead = p[-1]
    return tuple(c / lead for c in p)


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly(out)


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(a)
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    inv = ONE / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1] * inv
        if c != 0:
            q[i] = c
            for j, bc in enumerate(b):
                rem[i + j] -= c * bc
    return poly(q), poly(rem)


def poly_derivative(p: Poly) -> Poly:
    return poly([c * i for i, c in enumerate(p)][1:])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_eval_matrix(p: Poly, m: RatMat) -> RatMat:
    acc = RatMat.zeros(m.nrows, m.ncols)
    ident = RatMat.identity(m.nrows)
    for c in reversed(p):
        acc = acc @ m + ident.scale(c)
    return acc


def is_squarefree(p: Poly) -> bool:
    """True when p has no repeated roots, i.e. gcd(p, p') is constant."""
    if poly_is_zero(p):
        raise ValueError("zero polynomial")
    if poly_degree(p) == 0:
        return True
    g = poly_gcd(p, poly_derivative(p))
    return poly_degree(g) == 0


def char_poly(m: RatMat) -> Poly:
    """Monic characteristic polynomial det(xI - m), Faddeev-LeVerrier."""
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.nrows
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    mk = RatMat.zeros(n, n)
    ident = RatMat.identity(n)
    for k in range(1, n + 1):
        mk = m @ mk + ident.scale(coeffs[n - k + 1])
        prod = m @ mk
        coeffs[n - k] = -prod.trace() / k
    return tuple(coeffs)


def minimal_polynomial(m: RatMat) -> Poly:
    """Monic minimal polynomial via the first linear dependence of powers.

    Powers I, m, m^2, ... are flattened and fed to an incremental
    echelon reduction; the first power that fails to enlarge the span
    yields the dependence coefficients.
    """
    if m.nrows != m.ncols:
        raise ValueError("minimal polynomial of non-square matrix")
    n = m.nrows
    if n == 0:
        return (ONE,)
    # Each inserted row is [flat(m^k) | e_k]; a dependence shows up as a
    # zero flat part whose tail holds the combination coefficients.
    span = IncrementalSpan(n * n + n + 1)
    power = RatMat.identity(n)
    k = 0
    while True:
        flat = [e for row in power.rows for e in row]
        tail = [ZERO] * (n + 1)
        tail[k] = ONE
        w = span._reduce(flat + tail)
        if all(e == 0 for e in w[: n * n]):
            coeffs = w[n * n:]
            lead = coeffs[k]
            return poly([c / lead for c in coeffs[: k + 1]])
        span.add(flat + tail)
        power = power @ m
        k += 1


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def rational_roots(p: Poly) -> dict[Fraction, int]:
    """Rational roots with multiplicities, by the rational root theorem.

    The polynomial is scaled to integer coefficients; candidates are
    +-(divisor of constant)/(divisor of leading).  Multiplicity comes
    from repeated exact division.
    """
    if poly_is_zero(p):
        raise ValueError("zero polynomial")
    work = list(p)
    roots: dict[Fraction, int] = {}
    m0 = 0
    while work[0] == 0:
        work.pop(0)
        m0 += 1
    if m0:
        roots[ZERO] = m0
    if len(work) <= 1:
        return dict(sorted(roots.items()))
    denom = lcm(*[c.denominator for c in work])
    ints = [int(c * denom) for c in work]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    a0, an = ints[0], ints[-1]
    candidates = set()
    for pnum in _divisors(a0):
        for qden in _divisors(an):
            candidates.add(Fraction(pnum, qden))
            candidates.add(Fraction(-pnum, qden))
    q = poly([Fraction(c) for c in ints])
    for cand in sorted(candidates):
        mult = 0
        while True:
            if poly_eval(q, cand) != 0:
                break
            q, rem = poly_divmod(q, poly([-cand, ONE]))
            assert poly_is_zero(rem)
            mult += 1
        if mult:
            roots[cand] = roots.get(cand, 0) + mult
    return dict(sorted(roots.items()))


@dataclass(frozen=True)
class EigenDecomposition:
    """Rational-eigenvalue decomposition of a square matrix.

    ``eigenspaces`` maps each rational eigenvalue, in ascending order,
    to a basis of the maximal invariant subspace on which (m - lambda)
    is nilpotent.  For a matrix with squarefree minimal polynomial these
    are exactly the eigenspaces.  ``residual`` spans the invariant
    complement on which no rational eigenvalue exists.  The pieces
    always sum directly to the whole space.
    """

    eigenspaces: dict[Fraction, tuple[Vec, ...]]
    residual: tuple[Vec, ...]

    def all_parts(self) -> list[Vec]:
        out = [v for basis in self.eigenspaces.values() for v in basis]
        out.extend(self.residual)
        return out


def rational_eigen_decomposition(m: RatMat) -> EigenDecomposition:
    if m.nrows != m.ncols:
        raise ValueError("eigen decomposition of non-square matrix")
    n = m.nrows
    cp = char_poly(m)
    roots = rational_roots(cp)
    ident = RatMat.identity(n)
    spaces: dict[Fraction, tuple[Vec, ...]] = {}
    rational_factor: Poly = (ONE,)
    for lam, mult in roots.items():
        shifted = m - ident.scale(lam)
        basis = kernel(shifted ** mult)
        spaces[lam] = tuple(basis)
        for _ in range(mult):
            rational_factor = poly_mul(rational_factor, poly([-lam, ONE]))
    q, rem = poly_divmod(cp, rational_factor)
    assert poly_is_zero(rem)
    if poly_degree(q) <= 0:
        residual: tuple[Vec, ...] = ()
    else:
        residual = tuple(kernel(poly_eval_matrix(q, m)))
    total = sum(len(b) for b in spaces.values()) + len(residual)
    if total != n:
        raise AssertionError("eigen decomposition does not fill the space")
    return EigenDecomposition(spaces, residual)
