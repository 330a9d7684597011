"""Exact linear algebra over the rationals.

Dense matrices with ``Fraction`` entries, reduced row echelon form,
kernels in the standard free-variable parametrization, minimal and
characteristic polynomials, and eigenspace decompositions restricted to
rational eigenvalues.

A ``RatMat`` holds Fractions, but the algorithms scale a matrix or row
to integers over the lcm of its denominators: products and powers
multiply integer matrices, eliminations combine primitive integer rows
fraction-free, determinants and characteristic polynomials are
division-free (Bareiss, Berkowitz), and each divides once on the way
out, so results equal Fraction arithmetic's entry for entry.

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
from math import gcd, isqrt, lcm, prod
from operator import mul

from .errors import InputError

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
    return tuple(c * x if x else ZERO for x in a)


def vec_is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


class RatMat:
    """Immutable dense matrix over the rationals; rows are tuples of Fraction."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        self.rows: tuple[Vec, ...] = tuple(
            r if isinstance(r, tuple) and all(isinstance(e, Fraction) for e in r)
            else tuple(rat(e) for e in r) for r in rows)
        self.nrows = len(self.rows)
        if self.rows:
            self.ncols = len(self.rows[0])
        else:
            self.ncols = 0 if ncols is None else ncols
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

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
        if not self.ncols:
            return RatMat.zeros(self.nrows, other.ncols)
        a, da = _integer_matrix(self.rows)
        b, db = _integer_matrix(other.rows)
        return RatMat([_fraction_row(r, da * db) for r in _int_matmul(a, b)],
                      ncols=other.ncols)

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
        a, d = _integer_matrix(self.rows)
        out = [[int(i == j) for j in range(self.nrows)] for i in range(self.nrows)]
        for bit in bin(k)[2:]:  # left-to-right binary powering of d m
            out = _int_matmul(out, out)
            if bit == "1":
                out = _int_matmul(out, a)
        return RatMat([_fraction_row(r, d ** k) for r in out], ncols=self.ncols)

    def inverse(self) -> "RatMat":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        rows = _augmented(self.rows)
        pivots = _gauss_jordan(rows, 2 * n)
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return RatMat([_fraction_row(row[n:], row[i]) for i, row in enumerate(rows)])

    def det(self) -> Fraction:
        """Determinant by fraction-free Bareiss elimination with row exchanges."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        rows = [_integer_row(r) for r in self.rows]
        det, sign = 1, 1
        for det, sign in _bareiss([ints for ints, _ in rows]):
            pass
        return Fraction(sign * det, prod(d for _, d in rows))

    def to_floats(self) -> list[list[float]]:
        return [[float(e) for e in r] for r in self.rows]

    def __repr__(self):
        return f"RatMat({[list(map(str, r)) for r in self.rows]})"


# ---------------------------------------------------------------------------
# integer elimination; Fractions only enter and leave at the boundary


def _integer_row(r) -> tuple[list[int], int]:
    """Row of Fractions times the lcm d of its denominators, and d."""
    d = lcm(*[e.denominator for e in r])
    if d == 1:
        return [e.numerator for e in r], 1
    return [e.numerator * (d // e.denominator) for e in r], d


def _integer_matrix(rows) -> tuple[list[list[int]], int]:
    """Rows of Fractions times the lcm d of all their denominators, and d."""
    d = lcm(*[e.denominator for r in rows for e in r])
    if d == 1:
        return [[e.numerator for e in r] for r in rows], 1
    return [[e.numerator * (d // e.denominator) for e in r] for r in rows], d


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Product of integer matrices given as row lists; b needs at least one row."""
    bt = list(zip(*b))
    return [[sum(map(mul, r, c)) for c in bt] for r in a]


def _augmented(rows) -> list[list[int]]:
    """Integer rows of ``[rows | I]``, each row's scale on its unit entry."""
    n, out = len(rows), []
    for i, r in enumerate(rows):
        ints, d = _integer_row(r)
        out.append(ints + [0] * i + [d] + [0] * (n - i - 1))
    return out


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [e // g for e in row] if g > 1 else row


def _fraction_row(row: list[int], den: int) -> Vec:
    return tuple(Fraction(e, den) if e else ZERO for e in row)


def _gauss_jordan(rows: list[list[int]], nc: int) -> list[int]:
    """Integer Gauss-Jordan in place, with the pivoting rule of ``rref``.

    Returns the pivot columns; row i divided by its entry in column
    ``pivots[i]`` is row i of the RREF, and rows past the rank are zero.
    """
    nr, rank = len(rows), 0
    pivots: list[int] = []
    rows[:] = [_primitive(r) for r in rows]
    for c in range(nc):
        piv = next((r for r in range(rank, nr) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        a = prow[c]
        for r in range(nr):
            f = rows[r][c]
            if f and r != rank:
                g = gcd(a, f)
                rows[r] = _primitive([a // g * x - f // g * y for x, y in zip(rows[r], prow)])
        pivots.append(c)
        rank += 1
        if rank == nr:
            break
    return pivots


def _bareiss(rows: list[list[int]]):
    """Fraction-free elimination of a square integer matrix (Bareiss 1968).

    Yields ``(pivot, sign)`` per column, sign the parity of the row
    exchanges so far, and stops after a zero pivot; the last pivot times
    its sign is the determinant.  Before the first exchange the k-th
    pivot is the k-th leading principal minor.
    """
    n = len(rows)
    prev, sign = 1, 1
    for k in range(n):
        if rows[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if piv is None:
                yield 0, sign
                return
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pk, tail = rows[k][k], rows[k][k + 1:]
        for ri in rows[k + 1:]:
            f = ri[k]
            ri[k + 1:] = [(pk * x - f * y) // prev for x, y in zip(ri[k + 1:], tail)]
        prev = pk
        yield pk, sign


def rref(m: RatMat) -> tuple[RatMat, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Pivoting rule: for each column left to right, take the first nonzero
    entry scanning rows top to bottom.  The RREF itself is unique; the
    rule only fixes the arithmetic path.
    """
    rows = [_integer_row(r)[0] for r in m.rows]
    pivots = _gauss_jordan(rows, m.ncols)
    out = [_fraction_row(rows[i], rows[i][p]) for i, p in enumerate(pivots)]
    out += [(ZERO,) * m.ncols] * (m.nrows - len(pivots))
    return RatMat(out, ncols=m.ncols), pivots


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

    Maintains rows in reduced echelon form, each a primitive integer
    vector with a positive pivot entry; ``basis()`` and ``_reduce``
    divide by it only on the way out, so their Fractions are those of
    Fraction arithmetic.  ``add`` returns True when the vector enlarged
    the span.  Used for greedy basis extension and membership tests.
    """

    def __init__(self, dim: int, vectors=()):
        self.dim = dim
        self._rows: list[list[int]] = []
        self.pivots: list[int] = []
        for v in vectors:
            self.add(v)

    def _residual(self, w: list[int], den: int) -> tuple[list[int], int]:
        """``w / den`` minus its part along the rows, as integers over a denominator."""
        for row, p in zip(self._rows, self.pivots):
            if w[p]:
                g = gcd(row[p], w[p])
                a, f = row[p] // g, w[p] // g
                w = [a * x - f * y for x, y in zip(w, row)]
                g = gcd(den * a, *w)
                den, w = den * a // g, [x // g for x in w]
        return w, den

    def _reduce(self, v) -> list[Fraction]:
        w, den = self._residual(*_integer_row(v))
        return list(_fraction_row(w, den))

    def contains(self, v: Vec) -> bool:
        return not any(self._residual(*_integer_row(v))[0])

    def add(self, v) -> bool:
        return self._insert(self._residual(*_integer_row(v))[0])

    def _insert(self, w: list[int]) -> bool:
        """Add a residual of ``_residual``; False when it is zero."""
        p = next((i for i, e in enumerate(w) if e), None)
        if p is None:
            return False
        w = _primitive([-e for e in w] if w[p] < 0 else w)
        for i, row in enumerate(self._rows):
            if row[p]:
                g = gcd(w[p], row[p])
                a, f = w[p] // g, row[p] // g
                self._rows[i] = _primitive([a * x - f * y for x, y in zip(row, w)])
        # keep rows sorted by pivot column
        idx = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self._rows.insert(idx, w)
        self.pivots.insert(idx, p)
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)

    def basis(self) -> list[Vec]:
        return [_fraction_row(r, r[p]) for r, p in zip(self._rows, self.pivots)]


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
    """Monic characteristic polynomial det(xI - m), by Berkowitz (1984).

    The algorithm is division-free, so it runs on the integer matrix d m
    (d the lcm of all denominators); its coefficient k is d^(n-k) times
    coefficient k of the answer.
    """
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.nrows
    a, d = _integer_matrix(m.rows)
    # desc: det(xI - a_r), descending, for the leading r x r block a_r.
    # Bordering by row R and column C multiplies it by the lower triangular
    # Toeplitz matrix with first column 1, -a[r][r], -R C, ..., -R a_r^(r-1) C
    desc = [1]
    for r in range(n):
        block = [a[i][:r] for i in range(r)]
        row = a[r][:r]
        col = [a[i][r] for i in range(r)]
        toeplitz = [1, -a[r][r]]
        for _ in range(r):
            toeplitz.append(-sum(x * y for x, y in zip(row, col)))
            col = [sum(x * y for x, y in zip(b, col)) for b in block]
        desc = [sum(toeplitz[i - j] * desc[j] for j in range(max(0, i - r - 1), min(i, r) + 1))
                for i in range(r + 2)]
    return tuple(Fraction(c, d ** (n - k)) for k, c in enumerate(reversed(desc)))


def minimal_polynomial(m: RatMat) -> Poly:
    """Monic minimal polynomial via the first linear dependence of powers.

    Powers I, a, a^2, ... of the integer matrix a = d m (d the lcm of
    all denominators) are flattened and fed to an incremental echelon
    reduction; the first power that fails to enlarge the span yields a
    dependence sum_j b_j a^j = 0, so m's coefficients are b_j d^j.
    """
    if m.nrows != m.ncols:
        raise ValueError("minimal polynomial of non-square matrix")
    n = m.nrows
    if n == 0:
        return (ONE,)
    a, d = _integer_matrix(m.rows)
    # Each inserted row is [flat(a^k) | e_k]; a dependence shows up as a
    # zero flat part whose tail holds the combination coefficients.
    span = IncrementalSpan(n * n + n + 1)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    k = 0
    while True:
        tail = [0] * (n + 1)
        tail[k] = 1
        w, _ = span._residual([e for row in power for e in row] + tail, 1)
        if not any(w[: n * n]):
            b = w[n * n:]
            return tuple(Fraction(c, b[k] * d ** (k - j)) for j, c in enumerate(b[: k + 1]))
        span._insert(w)
        power = _int_matmul(power, a)
        k += 1


_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, isqrt(p) + 1))]
# Miller-Rabin on the first 13 primes is exact below this (Sorenson and Webster 2015)
_MR_LIMIT = 3317044064679887385961981
_RHO_STEPS = 1 << 18


def _is_prime(n: int) -> bool:
    """Primality of an n with no prime factor below 1000; never a probable answer."""
    if n < 10 ** 6:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    d = (n - 1) >> s
    if any(pow(a, d, n) != 1 and all(pow(a, d << i, n) != n - 1 for i in range(s))
           for a in _SMALL_PRIMES[:13]):
        return False
    if n >= _MR_LIMIT:
        raise InputError(f"cannot certify {n} prime: it exceeds the exact Miller-Rabin range")
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


def _rho(n: int) -> int:
    """A proper factor of an odd composite n by Pollard-Brent rho (Brent 1980)."""
    for c in (1, 2, 3):
        y, r, g = 2, 1, 1
        while g == 1 and r <= _RHO_STEPS:
            x = y  # compare the next r steps with x
            for _ in range(r):
                y = (y * y + c) % n
                if (g := gcd(x - y, n)) != 1:
                    break
            r *= 2
        if g == 1:
            break
        if g < n:
            return g
    raise InputError(f"cannot factor {n}: Pollard-Brent rho found no factor within its bound")


def _factor(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1."""
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            n, out[p] = n // p, out.get(p, 0) + 1
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, e = stack.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        k = 2  # m's prime factors exceed 1000, so an exact k-th root does too
        while (r := _iroot(m, k)) >= 1000 and r ** k != m:
            k += 1
        stack += [(r, e * k)] if r >= 1000 else [(d := _rho(m), e), (m // d, e)]
    return out


def _divisors(n: int) -> list[int]:
    """Positive divisors of a nonzero n, ascending."""
    out = [1]
    for p, e in _factor(abs(n)).items():
        out = [d * p ** i for d in out for i in range(e + 1)]
    return sorted(out)


def rational_roots(p: Poly) -> dict[Fraction, int]:
    """Rational roots with multiplicities, by the rational root theorem.

    The polynomial is scaled to integer coefficients; candidates are
    +-(divisor of constant)/(divisor of leading), the divisors read off
    prime factorizations.  Multiplicity comes from repeated exact
    division.  A coefficient that cannot be factored within a fixed
    bound is an ``InputError``.
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
    ints = _primitive(_integer_row(work)[0])
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
    spaces: dict[Fraction, tuple[Vec, ...]] = {}
    rational_factor: Poly = (ONE,)
    for lam, mult in roots.items():
        shifted = RatMat([r[:i] + (r[i] - lam,) + r[i + 1:] for i, r in enumerate(m.rows)])
        # a full-dimension eigenspace is the generalized one: same RREF basis
        basis = kernel(shifted)
        if len(basis) < mult:
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
