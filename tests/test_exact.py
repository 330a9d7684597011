"""Exact linear algebra: frozen small cases plus randomized identities."""

import random
from fractions import Fraction as F
from math import gcd, isqrt, lcm

import pytest

from vaikit import exact
from vaikit.errors import IrrationalSpectrum, NotSemisimple
from vaikit.exact import (
    RatMat,
    _bareiss,
    _sturm_of,
    _sturm_roots,
    char_poly,
    is_squarefree,
    kernel,
    minimal_polynomial,
    pivot_indices,
    rational_eigen_decomposition,
    rref,
    solve,
    vec,
)
from vaikit.lie import BilinearForm, LieAlgebra

# polynomials, their roots and determinants, for the identities below


def poly(coeffs):
    """Fraction coefficients, ascending, with trailing zeros dropped."""
    c = [F(e) for e in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def rational_roots(p):
    """Rational roots of p with multiplicities, as rational_eigen_decomposition
    finds them: by Sturm isolation on p's Sturm sequence."""
    return _sturm_roots(_sturm_of(p))


def det(m):
    """m's determinant: the last pivot, times its sign, of a Bareiss pass on
    m's integer rows, over den^n."""
    pivot, sign = 1, 1
    for pivot, sign in _bareiss([list(r) for r in m.num]):
        pass
    return F(sign * pivot, m.den ** m.nrows)


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly(out)


def _ref_divmod(a, b):
    """Quotient and remainder of Fraction long division."""
    rem = list(a)
    q = [F(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        q[i] = rem[i + len(b) - 1] / b[-1]
        for j, bc in enumerate(b):
            rem[i + j] -= q[i] * bc
    return poly(q), poly(rem)


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
    assert det(m) == F(5)
    assert cp[0] == det(m)  # det(xI - m) at x = 0; n even: det(-m) = det(m)


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
        _, rem = _ref_divmod(char_poly(m), mp)
        assert rem == ()


def test_minpoly_projection():
    # projection: x^2 - x
    m = RatMat([[1, 0], [0, 0]])
    assert minimal_polynomial(m) == poly([0, -1, 1])


def test_poly_gcd_and_squarefree():
    p = poly_mul(poly([1, 1]), poly([1, 1]))  # (x+1)^2
    assert not is_squarefree(p)
    assert is_squarefree(poly([0, 4, 0, 1]))  # x^3 + 4x
    assert not is_squarefree(poly([0, 0, 0, 1]))  # x^3


@pytest.mark.parametrize("coeffs, count", [
    ([1, 0, 1], 0),                            # x^2 + 1
    ([-2, 3, -3, 3, -1], 2),                   # -(x - 1)(x - 2)(x^2 + 1)
    ([3, -5, 1, 1], 2),                        # (x - 1)^2 (x + 3): distinct roots
    ([4, 0, -5, 0, 1], 4),                     # (x^2 - 1)(x^2 - 4)
    ([0, 0, 0, 0, 7], 1),                      # 7 x^4
    ([5], 0),
])
def test_real_root_count(coeffs, count):
    assert exact.real_root_count(coeffs) == count


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
        span = _RefSpan()
        assert all(span.add(v) for basis in spaces.values() for v in basis)
        assert len(span.rows) == n
        filled += 1
    assert filled > 10


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
# (Fraction Gauss-Jordan, a Fraction incremental span, Faddeev-LeVerrier,
# Sylvester's minors and the Euclidean gcd), entry for entry on a seeded
# random set


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


def test_pivot_indices_match_fraction_span():
    rng = random.Random(103)
    for m in _random_matrices(107, 1200):
        ref = _RefSpan()
        assert pivot_indices(m.rows) == [i for i, row in enumerate(m.rows) if ref.add(row)]
        probes = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m.ncols))]
        if m.rows:  # a combination of the rows lies in the span
            coeffs = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in m.rows]
            probes.append(tuple(sum((c * row[j] for c, row in zip(coeffs, m.rows)), F(0))
                                for j in range(m.ncols)))
        for v in probes:  # v enlarges the span exactly when its residual is nonzero
            assert (m.nrows in pivot_indices(m.rows + (v,))) == any(e != 0 for e in ref.reduce(v))


def test_char_poly_and_det_match_fraction_references():
    for m in _random_matrices(109, 1000, square=True):
        assert char_poly(m) == _ref_char_poly(m.rows)
        assert det(m) == _ref_det(m.rows)


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


def _ref_squarefree(p):
    """gcd(p, p') by the Fraction Euclidean algorithm is a nonzero constant."""
    a, b = p, poly([c * i for i, c in enumerate(p)][1:])
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return len(a) == 1


def _random_polynomials(seed, count):
    """Products of seeded factors of degree 0-3 with rational coefficients,
    a third of them raised to a power, so repeated roots are common."""
    rng = random.Random(seed)
    for _ in range(count):
        p = poly([F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))])
        for _ in range(rng.randint(0, 4)):
            degree = rng.randint(1, 3)
            factor = poly([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree)]
                          + [F(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))])
            for _ in range(rng.choice((1, 1, 2, 3))):
                p = poly_mul(p, factor)
        yield p


def test_squarefree_matches_fraction_gcd():
    polys = list(_random_polynomials(163, 450))
    polys += [minimal_polynomial(m) for m in _random_matrices(167, 150, square=True)]
    verdicts = [is_squarefree(p) for p in polys]
    assert verdicts == [_ref_squarefree(p) for p in polys]
    assert verdicts.count(True) > 150 and verdicts.count(False) > 150
    assert {len(p) - 1 for p in polys} >= set(range(13))
    with pytest.raises(ValueError, match="zero polynomial"):
        is_squarefree(())


# ---------------------------------------------------------------------------
# RatMat's integer rows over one denominator, against Fraction references


def test_empty_matrices_of_different_shapes_differ():
    for a, b in [(RatMat.zeros(0, 3), RatMat.zeros(0, 5)),
                 (RatMat.zeros(3, 0), RatMat.zeros(5, 0)),
                 (RatMat.zeros(0, 0), RatMat.zeros(0, 1))]:
        assert a != b and hash(a) != hash(b)
    assert RatMat([], ncols=3) == RatMat.zeros(0, 3) == RatMat.zeros(3, 0).transpose()


def test_adding_matrices_of_different_shapes_is_a_shape_mismatch():
    a, b = RatMat([[1, 2]]), RatMat([[1, 2, 3]])
    for op in (lambda: a + b, lambda: a - b, lambda: a + a.transpose(),
               lambda: RatMat.zeros(0, 2) - RatMat.zeros(0, 3)):
        with pytest.raises(ValueError, match="shape mismatch"):
            op()


def _entrywise(f, *mats):
    return [[f(*es) for es in zip(*rs)] for rs in zip(*mats)]


def _ref_kernel(rows, nc):
    r, pivots = _ref_rref(rows, nc)
    basis = []
    for free in (c for c in range(nc) if c not in pivots):
        v = [F(0)] * nc
        v[free] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][free]
        basis.append(tuple(v))
    return basis


def _ref_solve(rows, b, nc):
    r, pivots = _ref_rref([list(row) + [bv] for row, bv in zip(rows, b)], nc + 1)
    if nc in pivots:
        return None
    x = [F(0)] * nc
    for i, p in enumerate(pivots):
        x[p] = r[i][nc]
    return tuple(x)


def _ref_inverse(rows):
    n = len(rows)
    r, pivots = _ref_rref([list(row) + [F(int(i == j)) for j in range(n)]
                           for i, row in enumerate(rows)], 2 * n)
    return None if pivots[:n] != list(range(n)) else [tuple(row[n:]) for row in r]


def _ref_poly_eval(p, x):
    return sum((c * x ** i for i, c in enumerate(p)), F(0))


def _ref_rational_roots(p):
    """Trial-division divisors and Fraction evaluation and division."""
    roots, work = {}, list(p)
    while work[0] == 0:
        work.pop(0)
        roots[F(0)] = roots.get(F(0), 0) + 1
    d = lcm(*(e.denominator for e in work))
    cands = {s * F(a, b) for a in _ref_divisors(int(work[0] * d))
             for b in _ref_divisors(int(work[-1] * d)) for s in (1, -1)}
    q = poly(work)
    for c in sorted(cands):
        while len(q) > 1 and _ref_poly_eval(q, c) == 0:
            q = _ref_divmod(q, poly([-c, 1]))[0]
            roots[c] = roots.get(c, 0) + 1
    return dict(sorted(roots.items()))


def _ref_eigen(rows):
    n = len(rows)
    mp = _ref_minimal_polynomial(rows) if n else (F(1),)
    if not _ref_squarefree(mp):
        return NotSemisimple
    spaces = {lam: tuple(_ref_kernel([[e - lam * (i == j) for j, e in enumerate(r)]
                                      for i, r in enumerate(rows)], n))
              for lam in _ref_rational_roots(mp)}
    return spaces if sum(map(len, spaces.values())) == n else IrrationalSpectrum


def _assert_canonical(m):
    assert m.den > 0 and gcd(m.den, *[e for r in m.num for e in r]) == 1
    assert len(m.num) == m.nrows and all(len(r) == m.ncols for r in m.num)
    assert all(type(e) is int for r in m.num for e in r)


def _diagonalizable(rng, n):
    """S D S^-1 with a few repeated rational eigenvalues, so eigenspaces exist."""
    pool = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(2)]
    d = [[rng.choice(pool) if i == j else F(0) for j in range(n)] for i in range(n)]
    return _conjugate(rng, RatMat(d, ncols=n))


def test_ratmat_operations_match_fraction_references():
    rng = random.Random(157)
    shapes, outcomes, square_ops, den_seen = set(), set(), 0, 0
    for k in range(1200):
        nr = rng.randint(0, 5)
        nc = nr if k % 2 else rng.randint(0, 6)
        m = (_diagonalizable(rng, nr) if k % 10 == 1 and nr
             else RatMat(_random_rows(rng, nr, nc), ncols=nc))
        rows = [list(r) for r in m.rows]
        shapes.add((nr == 0, nc == 0))
        den_seen += m.den > 1
        other = RatMat(_random_rows(rng, nr, nc), ncols=nc)
        c = F(rng.randint(-3, 3), rng.randint(1, 4))
        right = RatMat(_random_rows(rng, nc, rng.randint(0, 4)))
        right = right if right.nrows == nc else RatMat.zeros(nc, 2)
        v = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nc))
        b = m.apply(v) if rng.random() < 0.5 else tuple(
            F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nr))
        results = {
            "+": (m + other, _entrywise(lambda x, y: x + y, rows, other.rows)),
            "-": (m - other, _entrywise(lambda x, y: x - y, rows, other.rows)),
            "neg": (-m, _entrywise(lambda x: -x, rows)),
            "scale": (m.scale(c), _entrywise(lambda x: c * x, rows)),
            "@": (m @ right, _ref_matmul(rows, right.rows)
                  if nc else [[F(0)] * right.ncols for _ in rows]),
            "transpose": (m.transpose(), [list(col) for col in zip(*rows)]
                          if nr else [[] for _ in range(nc)]),
            "rref": (rref(m)[0], _ref_rref(rows, nc)[0]),
        }
        for name, (got, want) in results.items():
            _assert_canonical(got)
            assert [list(r) for r in got.rows] == [list(r) for r in want], name
        assert rref(m)[1] == _ref_rref(rows, nc)[1]
        assert m.apply(v) == tuple(sum((e * x for e, x in zip(r, v)), F(0)) for r in rows)
        assert m.is_zero() == all(e == 0 for r in rows for e in r)
        assert kernel(m) == _ref_kernel(rows, nc)
        assert solve(m, b) == _ref_solve(rows, b, nc)
        # equal matrices built by different routes are equal and hash equal
        routes = [RatMat(rows, ncols=nc), m.scale(2).scale(F(1, 2)),
                  RatMat.identity(nr) @ m, m @ RatMat.identity(nc),
                  m.transpose().transpose()]
        if c:
            routes.append(m.scale(c).scale(1 / c))
        assert all(r == m and hash(r) == hash(m) for r in routes)
        if nr != nc:
            continue
        square_ops += 1
        power = rng.randint(0, 3)
        ref_power = [[F(int(i == j)) for j in range(nr)] for i in range(nr)]
        for _ in range(power):
            ref_power = _ref_matmul(ref_power, rows)
        assert [list(r) for r in (m ** power).rows] == [list(r) for r in ref_power]
        _assert_canonical(m ** power)
        assert m.trace() == sum((rows[i][i] for i in range(nr)), F(0))
        assert det(m) == _ref_det(rows)
        assert char_poly(m) == _ref_char_poly(rows)
        assert minimal_polynomial(m) == (_ref_minimal_polynomial(rows) if nr else (F(1),))
        inverse = _ref_inverse(rows)
        if inverse is None:
            with pytest.raises(ValueError, match="singular"):
                m.inverse()
        else:
            _assert_canonical(m.inverse())
            assert list(m.inverse().rows) == inverse
            assert m.inverse().inverse() == m and hash(m.inverse().inverse()) == hash(m)
        want = _ref_eigen(rows)
        outcomes.add(want if isinstance(want, type) else len(want) > 1)
        if isinstance(want, dict):
            assert rational_eigen_decomposition(m) == want
        else:
            with pytest.raises(want):
                rational_eigen_decomposition(m)
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}
    assert square_ops >= 500 and den_seen > 300
    assert outcomes == {NotSemisimple, IrrationalSpectrum, False, True}


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
    q, rem = _ref_divmod(cp, rational_factor)
    assert rem == ()
    residual = kernel(poly_eval_matrix(q, m)) if len(q) > 1 else []
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
        if det(s) != 0:
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
# rational roots by Sturm isolation, against trial-division candidates


def _ref_divisors(n):
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def test_rational_roots_match_trial_division_divisors():
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
    polys += list(_random_polynomials(163, 150))
    assert [rational_roots(p) for p in polys] == [_ref_rational_roots(p) for p in polys]


def _linear_power(root, k):
    p = (F(1),)
    for _ in range(k):
        p = poly_mul(p, (-root, F(1)))
    return p


@pytest.mark.parametrize("p,roots", [
    # sqrt(2) lies within 1/500 of 707/500: one final interval holds both
    (poly_mul(poly([F(-707, 500), 1]), poly([-2, 0, 1])), {F(707, 500): 1}),
    (poly_mul(_linear_power(F(-3, 7), 4), _linear_power(F(2, 5), 4)),
     {F(-3, 7): 4, F(2, 5): 4}),
    (poly_mul(poly([-5, 1009 * 1013]), poly([3, 0, -1009 * 1013])), {F(5, 1009 * 1013): 1}),
    (poly_mul(_linear_power(F(1, 1009), 2), _linear_power(F(-1, 1013), 3)),
     {F(-1, 1013): 3, F(1, 1009): 2}),
    (poly([-(2 ** 89 - 1), 0, 1]), {}),
    (poly([-(2 ** 89 - 1) ** 2, 0, 1]), {F(-(2 ** 89 - 1)): 1, F(2 ** 89 - 1): 1}),
    (poly([-(2 ** 61 - 1) * (2 ** 89 - 1), 2 ** 61 - 1 + 2 ** 89 - 1, -1]),
     {F(2 ** 61 - 1): 1, F(2 ** 89 - 1): 1}),
    (poly([0, -4 * 10 ** 24, 0, 1]), {F(-2 * 10 ** 12): 1, F(0): 1, F(2 * 10 ** 12): 1}),
    (poly([-4 * (10 ** 12 + 39) ** 2, 0, 1]), {F(-2 * (10 ** 12 + 39)): 1,
                                               F(2 * (10 ** 12 + 39)): 1}),
    (poly([0, -4 * 10 ** 2000, 0, 1]), {F(-2 * 10 ** 1000): 1, F(0): 1, F(2 * 10 ** 1000): 1}),
], ids=["near-irrational", "4-fold", "lead-1009x1013",
        "lead-1009x1013-repeated", "prime-2^89-1", "prime-square", "mersenne-product",
        "2^26x5^24", "4p^2", "10^1000"])
def test_rational_roots_adversarial(p, roots):
    assert rational_roots(p) == roots
    with_zero = {**roots, F(0): roots.get(F(0), 0) + 2}
    assert rational_roots(poly_mul(p, (F(0), F(0), F(1, 3)))) == with_zero

