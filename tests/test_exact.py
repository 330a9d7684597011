"""Exact linear algebra: frozen small cases plus randomized identities."""

import random
from fractions import Fraction as F
from math import isqrt

import pytest

from vaikit import exact
from vaikit.errors import InputError, IrrationalSpectrum, NotSemisimple
from vaikit.exact import (
    IncrementalSpan,
    RatMat,
    char_poly,
    is_squarefree,
    kernel,
    minimal_polynomial,
    poly,
    poly_degree,
    poly_divmod,
    poly_eval,
    poly_gcd,
    rational_eigen_decomposition,
    rational_roots,
    rref,
    solve,
    vec,
)
from vaikit.lie import BilinearForm, LieAlgebra

# polynomial product and evaluation at a matrix, for the identities below


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly(out)


def poly_eval_matrix(p, m):
    acc = RatMat.zeros(m.nrows, m.ncols)
    for c in reversed(p):
        acc = acc @ m + RatMat.identity(m.nrows).scale(c)
    return acc


def test_rref_frozen_example():
    m = RatMat([[2, 4], [1, 2]])
    r, pivots = rref(m)
    assert r == RatMat([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_identity_fixed_point():
    m = RatMat.identity(4)
    r, pivots = rref(m)
    assert r == m
    assert pivots == [0, 1, 2, 3]


def test_rref_is_idempotent_randomized():
    rng = random.Random(7)
    for _ in range(50):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = RatMat([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
                      for _ in range(n)])
        r1, p1 = rref(mat)
        r2, p2 = rref(r1)
        assert r1 == r2 and p1 == p2


def test_kernel_free_variable_convention():
    # single row (1, 1): pivot col 0, free col 1 set to 1
    assert kernel(RatMat([[1, 1]])) == [(F(-1), F(1))]


def test_kernel_members_are_annihilated():
    rng = random.Random(11)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        mat = RatMat([[F(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)])
        ker = kernel(mat)
        assert len(ker) == m - len(rref(mat)[1])
        for v in ker:
            assert all(e == 0 for e in mat.apply(v))


def test_solve_particular_and_inconsistent():
    m = RatMat([[1, 1], [0, 0]])
    assert solve(m, vec([3, 0])) == (F(3), F(0))  # free variable zeroed
    assert solve(m, vec([0, 1])) is None


def test_matmul_small_cases():
    rng = random.Random(3)
    a = RatMat([[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)])
    b = RatMat([[rng.randint(-9, 9) for _ in range(2)] for _ in range(4)])
    prod = a @ b
    slow = RatMat([[sum(a.rows[i][k] * b.rows[k][j] for k in range(4))
                    for j in range(2)] for i in range(3)])
    assert prod == slow
    c = a.scale(F(1, 2))
    assert (c @ b) == (a @ b).scale(F(1, 2))
    empty = RatMat.zeros(3, 0) @ RatMat.zeros(0, 2)
    assert empty == RatMat.zeros(3, 2) and empty.ncols == 2


def test_det_and_charpoly_agree():
    m = RatMat([[2, 1], [1, 3]])
    cp = char_poly(m)
    # det(xI - m) = x^2 - 5x + 5
    assert cp == poly([5, -5, 1])
    assert m.det() == F(5)
    assert poly_eval(cp, F(0)) == m.det()  # n even: det(-m) = det(m)


def test_charpoly_cayley_hamilton_randomized():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = RatMat([[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                    for _ in range(n)])
        assert poly_eval_matrix(char_poly(m), m).is_zero()


def test_minpoly_divides_charpoly_randomized():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = RatMat([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        mp = minimal_polynomial(m)
        assert poly_eval_matrix(mp, m).is_zero()
        _, rem = poly_divmod(char_poly(m), mp)
        assert rem == ()


def test_minpoly_projection():
    # projection: x^2 - x
    m = RatMat([[1, 0], [0, 0]])
    assert minimal_polynomial(m) == poly([0, -1, 1])


def test_poly_gcd_and_squarefree():
    p = poly_mul(poly([1, 1]), poly([1, 1]))  # (x+1)^2
    assert not is_squarefree(p)
    assert poly_gcd(p, poly([1, 1])) == poly([1, 1])
    assert is_squarefree(poly([0, 4, 0, 1]))  # x^3 + 4x
    assert not is_squarefree(poly([0, 0, 0, 1]))  # x^3


def test_rational_roots_with_multiplicity_and_fractions():
    # (x - 1/2)^2 (x + 3) x = x^4 + 2x^3 - (11/4)x^2 + (3/4)x
    p = poly_mul(poly_mul(poly([F(-1, 2), 1]), poly([F(-1, 2), 1])),
                 poly_mul(poly([3, 1]), poly([0, 1])))
    assert rational_roots(p) == {F(-3): 1, F(0): 1, F(1, 2): 2}


def test_rational_roots_none():
    assert rational_roots(poly([2, 0, 1])) == {}  # x^2 + 2


def test_eigen_decomposition_diagonalizable():
    m = RatMat([[0, 0, 0], [0, 2, 0], [0, 0, -2]])
    spaces = rational_eigen_decomposition(m)
    assert list(spaces) == [F(-2), F(0), F(2)]
    assert spaces[F(2)] == ((F(0), F(1), F(0)),)
    for lam, basis in spaces.items():
        for v in basis:
            assert m.apply(v) == tuple(lam * e for e in v)


def test_eigen_decomposition_zero_matrix():
    spaces = rational_eigen_decomposition(RatMat.zeros(3, 3))
    assert list(spaces) == [F(0)]
    assert len(spaces[F(0)]) == 3
    assert rational_eigen_decomposition(RatMat.zeros(0, 0)) == {}


def test_eigen_decomposition_residual():
    # rotation-like block: no rational eigenvalues at all
    with pytest.raises(IrrationalSpectrum):
        rational_eigen_decomposition(RatMat([[0, -1], [1, 0]]))
    # a Jordan block is not semisimple, whatever its spectrum
    with pytest.raises(NotSemisimple):
        rational_eigen_decomposition(RatMat([[1, 1], [0, 1]]))


def test_eigen_parts_fill_space_randomized():
    rng = random.Random(41)
    filled = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        m = RatMat([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        try:
            spaces = rational_eigen_decomposition(m)
        except (NotSemisimple, IrrationalSpectrum):
            continue
        span = IncrementalSpan(n)
        assert all(span.add(v) for basis in spaces.values() for v in basis)
        assert span.rank == n
        filled += 1
    assert filled > 10


def test_incremental_span():
    s = IncrementalSpan(3)
    assert s.add(vec([1, 1, 0]))
    assert not s.add(vec([2, 2, 0]))
    assert s.add(vec([0, 0, 1]))
    assert s.contains(vec([3, 3, 5]))
    assert not s.contains(vec([1, 0, 0]))
    assert s.rank == 2


def test_matrix_power_and_nilpotent():
    m = RatMat([[0, 1], [0, 0]])
    assert (m ** 2).is_zero()
    assert m ** 0 == RatMat.identity(2)
    assert minimal_polynomial(m) == poly([0, 0, 1])


def test_empty_kernel_shape():
    m = RatMat.zeros(0, 3)
    assert m.ncols == 3
    assert len(kernel(m)) == 3


# ---------------------------------------------------------------------------
# differential tests: the integer core against Fraction reference algorithms
# (Fraction Gauss-Jordan, a Fraction IncrementalSpan, Faddeev-LeVerrier and
# Sylvester's minors), entry for entry on a seeded random set


def _ref_rref(rows, nc):
    """Fraction Gauss-Jordan with the pivoting rule ``rref`` documents."""
    rows = [list(r) for r in rows]
    pivots, rank = [], 0
    for c in range(nc):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [e * inv for e in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(c)
        rank += 1
    return [tuple(r) for r in rows], pivots


class _RefSpan:
    """Reduced echelon rows held as Fractions, pivot entries 1."""

    def __init__(self):
        self.rows, self.pivots = [], []

    def reduce(self, v):
        w = list(v)
        for row, p in zip(self.rows, self.pivots):
            if w[p] != 0:
                f = w[p]
                w = [a - f * b for a, b in zip(w, row)]
        return w

    def add(self, v):
        w = self.reduce(v)
        p = next((i for i, e in enumerate(w) if e != 0), None)
        if p is None:
            return False
        w = [e / w[p] for e in w]
        for i, row in enumerate(self.rows):
            if row[p] != 0:
                f = row[p]
                self.rows[i] = [a - f * b for a, b in zip(row, w)]
        idx = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(idx, w)
        self.pivots.insert(idx, p)
        return True


def _ref_char_poly(rows):
    """Faddeev-LeVerrier on Fraction lists, ascending coefficients."""
    n = len(rows)
    coeffs = [F(0)] * n + [F(1)]
    mk = [[F(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        prod = [[sum((rows[i][l] * mk[l][j] for l in range(n)), F(0)) for j in range(n)]
                for i in range(n)]
        mk = [[prod[i][j] + (coeffs[n - k + 1] if i == j else 0) for j in range(n)]
              for i in range(n)]
        trace = sum((rows[i][l] * mk[l][i] for i in range(n) for l in range(n)), F(0))
        coeffs[n - k] = -trace / k
    return tuple(coeffs)


def _ref_det(rows):
    """Fraction Gaussian elimination with row exchanges."""
    m = [list(r) for r in rows]
    n, det = len(m), F(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _ref_positive_definite(rows):
    """Sylvester: every leading principal minor is positive."""
    return all(_ref_det([r[:k] for r in rows[:k]]) > 0 for k in range(1, len(rows) + 1))


def _random_rows(rng, nr, nc):
    """Sparse entries, some with denominators, some duplicate or zero rows."""
    dens = rng.choice([(1,), (1, 2, 3), (1, 2, 4, 6, 9)])
    density = rng.choice([0.3, 0.6, 1.0])
    rows = [[F(rng.randint(-6, 6), rng.choice(dens)) if rng.random() < density else F(0)
             for _ in range(nc)] for _ in range(nr)]
    for i in range(nr):
        if i and rng.random() < 0.15:  # a multiple of an earlier row
            c = F(rng.randint(-3, 3), rng.randint(1, 3))
            rows[i] = [c * e for e in rows[rng.randrange(i)]]
        elif rng.random() < 0.1:
            rows[i] = [F(0)] * nc
    return rows


def _random_matrices(seed, count, square=False):
    rng = random.Random(seed)
    for _ in range(count):
        nr = rng.randint(0, 6)
        nc = nr if square else rng.randint(0, 7)
        yield RatMat(_random_rows(rng, nr, nc), ncols=nc)


def test_rref_matches_fraction_gauss_jordan():
    shapes = set()
    for m in _random_matrices(101, 1200):
        shapes.add((m.nrows == 0, m.ncols == 0))
        r, pivots = rref(m)
        ref_rows, ref_pivots = _ref_rref(m.rows, m.ncols)
        assert list(r.rows) == ref_rows and pivots == ref_pivots
        if m.nrows == m.ncols and len(pivots) == m.nrows:
            assert m.inverse() @ m == RatMat.identity(m.nrows)
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_incremental_span_matches_fraction_span():
    rng = random.Random(103)
    for m in _random_matrices(107, 1200):
        span, ref = IncrementalSpan(m.ncols), _RefSpan()
        for row in m.rows:
            assert span.add(row) == ref.add(row)
        assert span.basis() == [tuple(r) for r in ref.rows]
        assert span.pivots == ref.pivots and span.rank == len(ref.rows)
        probes = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m.ncols))]
        if m.rows:  # a combination of the rows lies in the span
            coeffs = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in m.rows]
            probes.append(tuple(sum((c * row[j] for c, row in zip(coeffs, m.rows)), F(0))
                                for j in range(m.ncols)))
        for v in probes:
            w = ref.reduce(v)
            assert span._reduce(v) == w
            assert span.contains(v) == all(e == 0 for e in w)


def test_char_poly_and_det_match_fraction_references():
    for m in _random_matrices(109, 1000, square=True):
        assert char_poly(m) == _ref_char_poly(m.rows)
        assert m.det() == _ref_det(m.rows)


def test_positive_definite_matches_sylvester():
    rng = random.Random(113)
    verdicts = []
    for n in [0] + [rng.randint(1, 5) for _ in range(1000)]:
        b = _random_rows(rng, n, n)
        # B^T B plus a diagonal shift of either sign: positive definite,
        # semidefinite, indefinite and negative definite all occur
        shift = F(rng.randint(-3, 3), rng.randint(1, 2))
        gram = [[sum((b[k][i] * b[k][j] for k in range(n)), F(0)) + (shift if i == j else 0)
                 for j in range(n)] for i in range(n)]
        algebra = LieAlgebra([[[0] * n] * n] * n, _validate=False)
        verdict = BilinearForm(algebra, RatMat(gram, ncols=n)).is_positive_definite()
        assert verdict == _ref_positive_definite(gram)
        verdicts.append(verdict)
    assert verdicts.count(False) > 100 and verdicts.count(True) > 100


def _ref_matmul(a, b):
    return [tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), F(0))
                  for j in range(len(b[0]) if b else 0)) for i in range(len(a))]


def _ref_minimal_polynomial(rows):
    """First dependence among the Fraction powers I, m, m^2, ..."""
    n = len(rows)
    span, power = _RefSpan(), [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n + 1):
        tail = [F(0)] * (n + 1)
        tail[k] = F(1)
        row = [e for r in power for e in r] + tail
        w = span.reduce(row)
        if all(e == 0 for e in w[:n * n]):
            return tuple(c / w[n * n + k] for c in w[n * n:n * n + k + 1])
        span.add(row)
        power = _ref_matmul(power, rows)
    raise AssertionError("no dependence among n + 1 powers")


def test_matmul_and_powers_match_fraction_references():
    rng = random.Random(127)
    for m in _random_matrices(131, 300, square=True):
        other = RatMat(_random_rows(rng, m.ncols, rng.randint(1, 5)))
        assert list((m @ other).rows) == _ref_matmul(m.rows, other.rows)
        k = rng.randint(0, 4)
        ref = [tuple(F(int(i == j)) for j in range(m.nrows)) for i in range(m.nrows)]
        for _ in range(k):
            ref = _ref_matmul(ref, m.rows)
        assert list((m ** k).rows) == ref


def test_minimal_polynomial_matches_fraction_powers():
    dens = []
    for m in _random_matrices(137, 300, square=True):
        assert minimal_polynomial(m) == (_ref_minimal_polynomial(m.rows) if m.nrows
                                         else (F(1),))
        dens.append(max((e.denominator for r in m.rows for e in r), default=1))
    assert sum(d > 1 for d in dens) > 50


# ---------------------------------------------------------------------------
# eigenspaces of semisimple matrices, against the general algorithm they
# replaced: generalized eigenspaces of the characteristic polynomial's
# rational roots and a residual where the spectrum is irrational


def _ref_eigen_decomposition(m):
    """Generalized eigenspaces kernel((m - lam)^mult) and the residual kernel q(m)."""
    cp = char_poly(m)
    spaces, rational_factor = {}, (F(1),)
    for lam, mult in rational_roots(cp).items():
        shifted = m - RatMat.identity(m.nrows).scale(lam)
        basis = kernel(shifted)
        if len(basis) < mult:
            basis = kernel(shifted ** mult)
        spaces[lam] = tuple(basis)
        for _ in range(mult):
            rational_factor = poly_mul(rational_factor, poly([-lam, 1]))
    q, rem = poly_divmod(cp, rational_factor)
    assert rem == ()
    residual = kernel(poly_eval_matrix(q, m)) if poly_degree(q) > 0 else []
    assert sum(len(b) for b in spaces.values()) + len(residual) == m.nrows
    return spaces, residual


def _block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    rows, lo = [], 0
    for b in blocks:
        rows += [[F(0)] * lo + list(r) + [F(0)] * (n - lo - len(b)) for r in b]
        lo += len(b)
    return RatMat(rows, ncols=n)


def _conjugate(rng, m):
    """S m S^-1 for a random invertible S with denominators."""
    while True:
        s = RatMat([[F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(m.nrows)]
                    for _ in range(m.nrows)])
        if s.det() != 0:
            return s @ m @ s.inverse()


def _spectral_matrices(seed, count):
    """(family, expected outcome, matrix) for each family, ``count`` times."""
    rng = random.Random(seed)

    def diagonal(k, pool):
        return [[[lam]] for lam in rng.choices(pool, k=k)]

    def jordan(lam, k):
        return [[lam if i == j else F(int(j == i + 1)) for j in range(k)] for i in range(k)]

    def irrational():  # companion matrix of x^2 - c, c not a rational square
        c = rng.choice((F(2), F(3), F(-1), F(1, 2)))
        return [[F(0), c], [F(1), F(0)]]

    root_two = [[F(0), F(2)], [F(1), F(0)]]  # A^2 = 2
    for _ in range(count):
        pool = [F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 3))]
        lam = rng.choice(pool)
        families = [
            ("diagonal", "spaces", diagonal(rng.randint(1, 5), pool)),
            ("jordan", NotSemisimple, [jordan(lam, rng.randint(2, 3))] + diagonal(
                rng.randint(0, 2), pool)),
            ("companion", IrrationalSpectrum, [irrational() for _ in range(rng.randint(1, 2))]
             + diagonal(rng.randint(0, 2), pool)),
            ("double", IrrationalSpectrum, [root_two, root_two]),
            ("jordan-irrational", NotSemisimple, [jordan(lam, 2), irrational()]),
        ]
        for family, outcome, blocks in families:
            yield family, outcome, _conjugate(rng, _block_diagonal(blocks))
    for n in range(5):
        yield "zero", "spaces", RatMat.zeros(n, n)


def test_eigen_decomposition_matches_general_algorithm():
    seen = set()
    for family, outcome, m in _spectral_matrices(151, 30):
        spaces, residual = _ref_eigen_decomposition(m)
        if not is_squarefree(minimal_polynomial(m)):
            assert outcome is NotSemisimple, family
        elif residual:
            assert outcome is IrrationalSpectrum, family
        else:
            assert outcome == "spaces", family
            assert list(rational_eigen_decomposition(m).items()) == list(spaces.items())
            seen.add((family, outcome))
            continue
        with pytest.raises(outcome):
            rational_eigen_decomposition(m)
        seen.add((family, outcome))
    assert len(seen) == 6


# ---------------------------------------------------------------------------
# divisors from factorizations, against the trial-division loop they replaced


def _ref_divisors(n):
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def _random_integer(rng):
    """Products of small primes, primes above the trial bound and powers."""
    big = [1009, 1013, 7919, 65537, 999983]
    n = rng.choice([1, 2, 6, 360, rng.randint(1, 10 ** 6)])
    for _ in range(rng.randint(0, 2)):
        n *= rng.choice(big) ** rng.randint(1, 2)
    return n if n < 10 ** 12 else rng.randint(1, 10 ** 6)


def test_divisors_match_trial_division():
    rng = random.Random(139)
    for _ in range(300):
        n = _random_integer(rng)
        assert exact._divisors(n) == _ref_divisors(n) == exact._divisors(-n)


def test_rational_roots_match_trial_division_divisors(monkeypatch):
    rng = random.Random(149)
    polys = []
    for _ in range(200):
        p = (F(rng.choice([1, -3, 1009])),)
        for _ in range(rng.randint(1, 3)):  # rational roots, some repeated
            root = F(rng.choice([1, 2, 7, 1013]) * rng.choice([-1, 1]),
                     rng.choice([1, 2, 9, 1009]))
            p = poly_mul(p, (-root, F(1)))
        if rng.random() < 0.5:  # x^2 + c with c > 0 has no rational root
            p = poly_mul(p, (F(rng.randint(1, 50), rng.randint(1, 4)), F(0), F(1)))
        polys.append(p)
    new = [rational_roots(p) for p in polys]
    monkeypatch.setattr(exact, "_divisors", _ref_divisors)
    assert new == [rational_roots(p) for p in polys]


def test_divisors_of_large_coefficients():
    n = 4 * 10 ** 24  # 2^26 5^24: far beyond trial division up to sqrt(n)
    divisors = exact._divisors(n)
    assert len(divisors) == 27 * 25 and all(n % d == 0 for d in divisors)
    assert rational_roots(poly([0, -n, 0, 1])) == {F(-2 * 10 ** 12): 1, F(0): 1,
                                                    F(2 * 10 ** 12): 1}
    p = 10 ** 12 + 39  # a prime, reached through the square 4 p^2
    assert exact._divisors(4 * p * p) == [1, 2, 4, p, 2 * p, 4 * p, p * p,
                                          2 * p * p, 4 * p * p]


@pytest.mark.parametrize("n", [
    2 ** 89 - 1,  # prime above the exact Miller-Rabin range
    (2 ** 61 - 1) * (2 ** 89 - 1),  # both factors far beyond Pollard rho's bound
])
def test_unfactorable_coefficient_is_an_input_error(n):
    with pytest.raises(InputError):
        exact._divisors(n)
