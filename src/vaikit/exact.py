"""Exact linear algebra over the rationals.

Dense matrices over Q, reduced row echelon form, kernels in the standard
free-variable parametrization, minimal and characteristic polynomials,
and eigenspaces of semisimple matrices with rational spectrum.

A ``RatMat`` stores integer rows over one positive denominator, reduced
so that the denominator and the entries share no factor.  Products and
powers multiply the integer rows, eliminations combine primitive integer
rows fraction-free, leading minors and characteristic polynomials are
division-free (Bareiss, Berkowitz), and each divides once on the way
out, so results equal Fraction arithmetic's entry for entry.  One
integer Sturm sequence decides squarefreeness, isolates rational roots
and counts real roots, so no coefficient is ever factored.

Fractions appear only at the edges: in the entries ``rat``/``vec`` and
the ``RatMat`` constructor parse, in the vectors, scalars and
polynomials the functions here return, and in a matrix's ``rows`` view,
which is built on first use for reports and tests.

Everything here is deterministic.  Pivots are chosen leftmost-first and
rows are scanned top to bottom, kernel bases set each free variable to 1
in index order, and eigenvalues are reported in ascending order.  The
same input therefore always yields the same basis vectors, which keeps
downstream certificates reproducible.

Polynomials are coefficient tuples in ascending degree order, following
the usual dense convention; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul, ne

from .errors import IrrationalSpectrum, NotSemisimple

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


def vec_scale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x if x else ZERO for x in a)


def vec_is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


class RatMat:
    """Immutable dense matrix over the rationals: ``num / den``.

    ``num`` is a tuple of integer row tuples and ``den`` a positive
    integer sharing no factor with every entry, so each matrix has one
    representation and ``==`` and ``hash`` compare the shape, ``num`` and
    ``den``.  ``rows`` is the same matrix as tuples of Fraction, built on
    first use.
    """

    __slots__ = ("num", "den", "nrows", "ncols", "_rows")

    def __init__(self, rows, ncols: int | None = None):
        rows = [[rat(e) for e in r] for r in rows]
        if rows:
            ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        # the lcm of reduced denominators already shares no factor with
        # every numerator: a prime at its full power there divides one
        # denominator exactly, and not that entry's numerator
        num, den = _integer_matrix(rows)
        self._set(tuple(map(tuple, num)), den, ncols or 0)

    def _set(self, num: tuple, den: int, ncols: int):
        self.num, self.den = num, den
        self.nrows, self.ncols = len(num), ncols
        self._rows = None

    @classmethod
    def from_integers(cls, num, den: int, ncols: int) -> "RatMat":
        """The matrix ``num / den`` for integer rows ``num`` and ``den != 0``."""
        g = gcd(den, *[e for r in num for e in r])
        if den < 0:
            g = -g
        m = cls.__new__(cls)
        if g == 1:
            m._set(tuple(map(tuple, num)), den, ncols)
        else:
            m._set(tuple(tuple(e // g for e in r) for r in num), den // g, ncols)
        return m

    @classmethod
    def zeros(cls, n: int, m: int) -> "RatMat":
        return cls.from_integers([[0] * m] * n, 1, m)

    @classmethod
    def identity(cls, n: int) -> "RatMat":
        return cls.from_integers([[int(i == j) for j in range(n)] for i in range(n)], 1, n)

    @classmethod
    def from_cols(cls, cols) -> "RatMat":
        return cls(list(zip(*cols)), ncols=len(cols))

    @property
    def rows(self) -> tuple[Vec, ...]:
        if self._rows is None:
            self._rows = tuple(_fraction_row(r, self.den) for r in self.num)
        return self._rows

    def col(self, j: int) -> Vec:
        return _fraction_row([r[j] for r in self.num], self.den)

    def cols(self) -> list[Vec]:
        return [self.col(j) for j in range(self.ncols)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMat) and self.ncols == other.ncols
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.ncols, self.den, self.num))

    def __add__(self, other: "RatMat") -> "RatMat":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        d = lcm(self.den, other.den)
        a, b = _rescale(self.num, d // self.den), _rescale(other.num, d // other.den)
        return RatMat.from_integers([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)],
                                    d, self.ncols)

    def __sub__(self, other: "RatMat") -> "RatMat":
        return self + -other

    def __neg__(self) -> "RatMat":
        return RatMat.from_integers(_rescale(self.num, -1), self.den, self.ncols)

    def scale(self, c) -> "RatMat":
        c = rat(c)
        return RatMat.from_integers(_rescale(self.num, c.numerator),
                                    self.den * c.denominator, self.ncols)

    def __matmul__(self, other: "RatMat") -> "RatMat":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        if not self.ncols:
            return RatMat.zeros(self.nrows, other.ncols)
        return RatMat.from_integers(_int_matmul(self.num, other.num),
                                    self.den * other.den, other.ncols)

    def apply(self, v: Vec) -> Vec:
        """Matrix times column vector; skips zero entries of v."""
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        w, d = _integer_row(v)
        out = [0] * self.nrows
        for j, x in enumerate(w):
            if x:
                for i, r in enumerate(self.num):
                    if r[j]:
                        out[i] += r[j] * x
        return _fraction_row(out, self.den * d)

    def transpose(self) -> "RatMat":
        return RatMat.from_integers(list(zip(*self.num)) if self.nrows else [()] * self.ncols,
                                    self.den, self.nrows)

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace of non-square matrix")
        return Fraction(sum(r[i] for i, r in enumerate(self.num)), self.den)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def __pow__(self, k: int) -> "RatMat":
        if self.nrows != self.ncols:
            raise ValueError("power of non-square matrix")
        out = [[int(i == j) for j in range(self.nrows)] for i in range(self.nrows)]
        for bit in bin(k)[2:]:  # left-to-right binary powering of num
            out = _int_matmul(out, out)
            if bit == "1":
                out = _int_matmul(out, self.num)
        return RatMat.from_integers(out, self.den ** k, self.ncols)

    def inverse(self) -> "RatMat":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        rows = _augmented(self.num)
        pivots = _gauss_jordan(rows, 2 * n)
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        # row i of num^-1 is rows[i][n:] / rows[i][i], and m^-1 = den num^-1
        d = lcm(*[row[i] for i, row in enumerate(rows)])
        return RatMat.from_integers(
            [[e * (d // row[i] * self.den) for e in row[n:]] for i, row in enumerate(rows)], d, n)

    def __repr__(self):
        return f"RatMat({[list(map(str, r)) for r in self.rows]})"


# ---------------------------------------------------------------------------
# integer elimination; Fractions only enter and leave at the boundary


def _integer_row(r) -> tuple[list[int], int]:
    """Row of Fractions times the lcm d of its denominators, and d."""
    dens = [e.denominator for e in r]
    d = lcm(*dens)
    if d == 1:
        return [e.numerator for e in r], 1
    return [e.numerator * (d // q) for e, q in zip(r, dens)], d


def _integer_matrix(rows) -> tuple[list[list[int]], int]:
    """Rows of Fractions times the lcm d of all their denominators, and d."""
    d = lcm(*[e.denominator for r in rows for e in r])
    if d == 1:
        return [[e.numerator for e in r] for r in rows], 1
    return [[e.numerator * (d // e.denominator) for e in r] for r in rows], d


def _rescale(rows, f: int):
    return rows if f == 1 else [[e * f for e in r] for r in rows]


def _int_matmul(a, b) -> list[list[int]]:
    """Product of integer matrices given as rows; b needs at least one row."""
    bt = list(zip(*b))
    return [[sum(map(mul, r, c)) for c in bt] for r in a]


def _augmented(rows) -> list[list[int]]:
    """The integer rows of ``[rows | I]``."""
    n = len(rows)
    return [list(r) + [0] * i + [1] + [0] * (n - i - 1) for i, r in enumerate(rows)]


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [e // g for e in row] if g > 1 else row


def _fraction_row(row, den: int) -> Vec:
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
    rows = [list(r) for r in m.num]
    pivots = _gauss_jordan(rows, m.ncols)
    # row i of the RREF is rows[i] / rows[i][pivots[i]]
    d = lcm(*[rows[i][p] for i, p in enumerate(pivots)])
    out = [[e * (d // rows[i][p]) for e in rows[i]] for i, p in enumerate(pivots)]
    return RatMat.from_integers(out + rows[len(pivots):], d, m.ncols), pivots


def kernel(m: RatMat) -> list[Vec]:
    """Basis of the null space in the standard parametrization.

    For each free column, the corresponding basis vector has a 1 in that
    coordinate, the back-substituted pivot entries, and 0 in every other
    free coordinate.  Free columns are visited in index order.
    """
    return _null_space([list(r) for r in m.num], m.ncols)


def _null_space(rows: list[list[int]], nc: int) -> list[Vec]:
    """``kernel`` of the matrix with integer rows ``rows``, which it eliminates."""
    pivots = _gauss_jordan(rows, nc)
    pivset = set(pivots)
    basis: list[Vec] = []
    for free in range(nc):
        if free in pivset:
            continue
        v = [ZERO] * nc
        v[free] = ONE
        for i, p in enumerate(pivots):
            if rows[i][free]:
                v[p] = Fraction(-rows[i][free], rows[i][p])
        basis.append(tuple(v))
    return basis


def solve(m: RatMat, b: Vec) -> Vec | None:
    """One solution of ``m x = b`` with all free variables set to 0.

    Returns None when the system is inconsistent.
    """
    if len(b) != m.nrows:
        raise ValueError("shape mismatch")
    bs, db = _integer_row(b)
    # m x = b is (db num) x = den bs on integers
    rows = [[e * db for e in r] + [m.den * y] for r, y in zip(m.num, bs)]
    nc = m.ncols
    pivots = _gauss_jordan(rows, nc + 1)
    if nc in pivots:
        return None
    x = [ZERO] * nc
    for i, p in enumerate(pivots):
        if rows[i][nc]:
            x[p] = Fraction(rows[i][nc], rows[i][p])
    return tuple(x)


def pivot_indices(vectors) -> list[int]:
    """Indices of the vectors that enlarge the span of the vectors before them.

    They are the pivot columns of the matrix whose columns are the
    vectors: column j is a pivot exactly when it is no combination of
    columns 0, ..., j - 1.
    """
    cols = [_integer_row(v)[0] for v in vectors]
    return _gauss_jordan([list(r) for r in zip(*cols)], len(cols))


# ---------------------------------------------------------------------------
# polynomials, ascending coefficient order


Poly = tuple[Fraction, ...]


def is_squarefree(p: Poly) -> bool:
    """True when p has no repeated roots, i.e. gcd(p, p') is constant.

    The Sturm sequence of p ends in that gcd up to a scalar.
    """
    return len(_sturm_of(p)[-1]) == 1


def _sturm_of(p: Poly) -> list[list[int]]:
    """`_sturm` of p's primitive integer coefficients."""
    if not p:
        raise ValueError("zero polynomial")
    return _sturm(_primitive(_integer_row(p)[0]))


def _sturm(a: list[int]) -> list[list[int]]:
    """Sturm sequence of the integer polynomial a, ending in gcd(a, a').

    Each member is a primitive pseudo-remainder scaled by a power of the
    divisor's |lead|, so it has the sign of the true negated remainder.
    """
    seq = [a]
    r = _primitive([i * c for i, c in enumerate(a)][1:])
    while r:
        seq.append(r)
        u, s = seq[-2], abs(r[-1])
        while len(u) >= len(r):
            f, k = u[-1] * s // r[-1], len(u) - len(r)
            u = [s * x for x in u]
            for i, y in enumerate(r):
                u[k + i] -= f * y
            while u and not u[-1]:
                u.pop()
        r = _primitive([-x for x in u])
    return seq


def real_root_count(a: list[int]) -> int:
    """Distinct real roots of the integer polynomial a (a[-1] != 0): V(-inf) - V(+inf) of its
    Sturm sequence, whose members have their lead's sign at +inf, times (-1)^degree at -inf."""
    seq = _sturm(a)
    pos = [b[-1] > 0 for b in seq]
    neg = [p == (len(b) % 2 == 1) for p, b in zip(pos, seq)]
    return sum(map(ne, neg, neg[1:])) - sum(map(ne, pos, pos[1:]))


def char_poly(m: RatMat) -> Poly:
    """Monic characteristic polynomial det(xI - m), by Berkowitz (1984).

    The algorithm is division-free, so it runs on the integer matrix
    ``m.num = m.den m``; its coefficient k is den^(n-k) times coefficient
    k of the answer.
    """
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.nrows
    a, d = m.num, m.den
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

    Powers I, a, a^2, ... of the integer matrix a = ``m.num`` = d m
    (d = ``m.den``) are flattened and reduced, one after the other,
    against the reduced rows of the powers before them; the first power
    that fails to enlarge the span yields a dependence sum_j b_j a^j = 0,
    unique up to scale, so m's coefficients are b_j d^j.
    """
    if m.nrows != m.ncols:
        raise ValueError("minimal polynomial of non-square matrix")
    n = m.nrows
    if n == 0:
        return (ONE,)
    a, d = m.num, m.den
    # Each row is [flat(a^k) | e_k]; a dependence shows up as a zero flat
    # part whose tail holds the combination coefficients.  Rows are never
    # back-reduced: each is the residual of its power after clearing the
    # pivots of the rows before it, so it is zero there, and clearing the
    # pivots of w in insertion order leaves every one of them zero.
    rows: list[tuple[list[int], int]] = []
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    k = 0
    while True:
        w = [e for row in power for e in row] + [int(j == k) for j in range(n + 1)]
        for row, p in rows:
            if w[p]:
                g = gcd(row[p], w[p])
                s, f = row[p] // g, w[p] // g
                w = _primitive([s * x - f * y for x, y in zip(w, row)])
        if not any(w[: n * n]):
            b = w[n * n:]
            return tuple(Fraction(c, b[k] * d ** (k - j)) for j, c in enumerate(b[: k + 1]))
        rows.append((w, next(i for i, e in enumerate(w) if e)))
        power = _int_matmul(power, a)
        k += 1


def _deflate(a: list[int], p: int, q: int) -> list[int] | None:
    """Quotient of the integer polynomial a by (q x - p), or None if p/q is no root.

    For p/q in lowest terms a root has an integer quotient (Gauss's
    lemma), so synthetic division from the top either divides exactly at
    every step and leaves remainder 0, or p/q is no root.
    """
    out = [0] * (len(a) - 1)
    carry = 0
    for i in range(len(a) - 1, 0, -1):
        c, r = divmod(a[i] + carry, q)
        if r:
            return None
        out[i - 1], carry = c, p * c
    return out if a[0] + carry == 0 else None


def _sturm_roots(seq: list[list[int]]) -> dict[Fraction, int]:
    """Rational roots with multiplicities of the polynomial whose Sturm
    sequence is seq, by Sturm isolation (Sturm 1829).

    seq starts with the polynomial's primitive integer coefficients a,
    with leading coefficient of modulus c.  A root p/q in lowest terms has
    q dividing c, so every rational root is a multiple of 1/c and no point
    (2k+1)/(2c) is a root; Sturm counts between such points are exact
    even when a has repeated roots.  Bisection on them, from a Fujiwara
    (1916) bound on the roots, narrows each real root to one multiple of
    1/c, which is divided out by (q x - p) on integers as often as it
    divides; that count is its multiplicity.
    """
    a = seq[0]
    roots: dict[Fraction, int] = {}
    if len(a) > 1:
        c = abs(a[-1])
        # |root| < 2^bits, as |root| <= 2 max_k |a_(n-k) / a_n|^(1/k) (Fujiwara)
        # and |a_(n-k) / a_n| < 2^(bit_length(a_(n-k)) - bit_length(a_n) + 1)
        lead_bits = c.bit_length()
        bits = 1 + max([0] + [-((lead_bits - 1 - e.bit_length()) // k)
                              for k, e in enumerate(reversed(a[:-1]), 1) if e])
        scale = [1]  # powers of 2c, to evaluate at m / (2c) on integers
        for _ in a[1:]:
            scale.append(scale[-1] * 2 * c)

        def variations(m: int) -> int:
            """Sign changes of the Sturm sequence at m / (2c)."""
            signs = []
            for b in seq:
                n, v = len(b) - 1, b[-1]
                for i in range(n - 1, -1, -1):
                    v = v * m + b[i] * scale[n - i]
                if v:
                    signs.append(v > 0)
            return sum(x != y for x, y in zip(signs, signs[1:]))

        top = (2 * c << bits) + 1
        stack = [(-top, variations(-top), top, variations(top))]
        while stack:  # (lo, hi] in units of 1/(2c), both ends odd, with vlo - vhi roots
            lo, vlo, hi, vhi = stack.pop()
            if vlo == vhi:
                continue
            if hi - lo > 2:
                mid = lo + 2 * ((hi - lo) // 4)
                vmid = variations(mid)
                stack += [(lo, vlo, mid, vmid), (mid, vmid, hi, vhi)]
                continue
            root = Fraction((lo + 1) // 2, c)  # c, not the deflated lead: it bounds every q
            while (quotient := _deflate(a, root.numerator, root.denominator)) is not None:
                a = quotient
                roots[root] = roots.get(root, 0) + 1
    return dict(sorted(roots.items()))


def rational_eigen_decomposition(m: RatMat) -> dict[Fraction, tuple[Vec, ...]]:
    """Eigenspaces of a semisimple matrix with rational spectrum.

    Each root lambda of the minimal polynomial, ascending, maps to the
    kernel basis of m - lambda.  Raises ``NotSemisimple`` when the
    minimal polynomial has a repeated root, and ``IrrationalSpectrum``
    when the rational eigenspaces do not fill the space.
    """
    seq = _sturm_of(minimal_polynomial(m))
    if len(seq[-1]) != 1:  # is_squarefree
        raise NotSemisimple("not semisimple: the minimal polynomial has a repeated root")
    spaces: dict[Fraction, tuple[Vec, ...]] = {}
    for lam in _sturm_roots(seq):
        # q den (m - p/q) on integers; the kernel ignores the scale
        p, q = lam.numerator, lam.denominator
        shifted = [[e * q - p * m.den if i == j else e * q for j, e in enumerate(r)]
                   for i, r in enumerate(m.num)]
        spaces[lam] = tuple(_null_space(shifted, m.ncols))
    filled = sum(len(b) for b in spaces.values())
    if filled < m.nrows:
        raise IrrationalSpectrum(
            f"irrational spectrum: rational eigenvectors span {filled} of {m.nrows} dimensions")
    return spaces
