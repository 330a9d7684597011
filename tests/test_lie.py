"""Structure constants, Killing forms, subalgebras, radicals, unimodularity.

Expected values were worked out by hand from the 2x2 and 3x3 matrix
realizations before the implementation existed.
"""

import random
from fractions import Fraction

import pytest

import builders
from vaikit.errors import InputError, InvariantViolation
from vaikit.exact import RatMat, rat, rref, vec
from vaikit.grading import grading_of
from vaikit.lie import (
    BilinearForm,
    LieAlgebra,
    Subalgebra,
    Subspace,
    center,
    derived_subalgebra,
    is_unimodular_pair,
    radical,
)

H, E, F = 0, 1, 2  # catalog sl2 basis order


def test_sl2_structure_constants(sl2):
    h, e, f = sl2.basis_vector(H), sl2.basis_vector(E), sl2.basis_vector(F)
    assert sl2.bracket(h, e) == vec([0, 2, 0])
    assert sl2.bracket(h, f) == vec([0, 0, -2])
    assert sl2.bracket(e, f) == vec([1, 0, 0])
    assert sl2.bracket(e, e) == vec([0, 0, 0])


def test_sl2_realization_roundtrip(sl2):
    m = sl2.realize(vec([2, -3, 5]))
    assert m == RatMat([[2, -3], [5, -2]])


def test_sl2_killing_table(sl2):
    k = sl2.killing_form()
    h, e, f = (sl2.basis_vector(i) for i in (H, E, F))
    assert k.value(h, h) == 8
    assert k.value(e, f) == 4
    assert k.value(f, e) == 4
    assert k.value(h, e) == 0
    assert k.value(h, f) == 0
    assert k.value(e, e) == 0


def test_killing_invariance_random(sl3):
    k = sl3.killing_form()
    rng = random.Random(7)
    for _ in range(20):
        x, y, z = (vec([rng.randint(-3, 3) for _ in range(8)]) for _ in range(3))
        lhs = k.value(sl3.bracket(x, y), z)
        rhs = -k.value(y, sl3.bracket(x, z))
        assert lhs == rhs


def test_ad_matrix_eigenvectors(sl2):
    ad_h = sl2.ad(sl2.basis_vector(H))
    assert ad_h.apply(sl2.basis_vector(E)) == vec([0, 2, 0])
    assert ad_h.apply(sl2.basis_vector(F)) == vec([0, 0, -2])
    assert ad_h.apply(sl2.basis_vector(H)) == vec([0, 0, 0])


@pytest.mark.parametrize("x", [vec([1]), vec([1, 0, 0, 5])])
def test_bracket_and_ad_reject_wrong_length(sl2, x):
    e = sl2.basis_vector(E)
    for call in (lambda: sl2.bracket(x, e), lambda: sl2.bracket(e, x), lambda: sl2.ad(x),
                 lambda: grading_of(sl2, x)):
        with pytest.raises(InvariantViolation, match="entries in dimension 3"):
            call()


def test_validation_rejects_broken_antisymmetry():
    sc = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]  # c(x,y) = c(y,x) != 0
    with pytest.raises(InvariantViolation):
        LieAlgebra([[[rat(c) for c in r] for r in p] for p in sc])


def test_validation_rejects_broken_jacobi(sl3):
    sc = [list(map(list, plane)) for plane in sl3.sc]
    sc[0][1][5] += Fraction(1)
    sc[1][0][5] -= Fraction(1)  # keep antisymmetry, break Jacobi
    with pytest.raises(InvariantViolation):
        LieAlgebra(sc)


def test_subspace_coords_roundtrip(sl2):
    s = Subspace(sl2, [vec([1, 1, 0]), vec([0, 0, 1])])
    c = s.coords(vec([2, 2, -3]))
    assert c == (Fraction(2), Fraction(-3))
    assert s.from_coords(c) == vec([2, 2, -3])
    assert s.coords(vec([1, 0, 0])) is None


@pytest.mark.parametrize("dim", [0, 1])
def test_subspace_rejects_vectors_of_the_wrong_length(sl2, dim):
    sub = Subspace(sl2, [vec([1, 0, 0])][:dim])
    for v in [(0,) * 5, (0,) * 7, (1, 0)]:
        with pytest.raises(InvariantViolation, match="entries in dimension 3"):
            sub.contains(v)
        with pytest.raises(InvariantViolation, match="entries in dimension 3"):
            sub.coords(v)
    assert sub.contains((0, 0, 0)) and sub.coords((0, 0, 0)) == (0,) * dim


def test_subspace_rejects_dependent_basis(sl2):
    with pytest.raises(InvariantViolation):
        Subspace(sl2, [vec([1, 0, 0]), vec([2, 0, 0])])


def test_subalgebra_rejects_non_closed(sl2):
    # span(E, F) brackets to H, outside the span
    with pytest.raises(InvariantViolation):
        Subalgebra(sl2, [vec([0, 1, 0]), vec([0, 0, 1])])


def test_restriction_matrix_borel(sl2, sl2_subs):
    b = sl2_subs["borel"]
    m = b.restriction_matrix(sl2.ad(sl2.basis_vector(H)))
    # basis (H, E): ad H acts by 0 on H, 2 on E
    assert m == RatMat([[0, 0], [0, 2]])
    assert m.trace() == 2


def test_center_and_derived_of_borel(sl2, sl2_subs):
    b = sl2_subs["borel"]
    assert center(b).dim == 0
    d = derived_subalgebra(b)
    assert d.dim == 1
    assert d.contains(vec([0, 1, 0]))


def test_center_of_abelian_is_everything(sl2, sl2_subs):
    n = sl2_subs["n"]
    assert center(n).same_span(n)


def test_radical_of_borel_is_borel(sl2, sl2_subs):
    b = sl2_subs["borel"]
    assert radical(b).same_span(b)


def test_radical_of_semisimple_is_zero(sl2):
    assert radical(Subalgebra(sl2, [sl2.basis_vector(i) for i in range(sl2.dim)])).dim == 0


def test_gl2_radical_equals_center():
    g = builders.gl2()
    full = Subalgebra(g, [g.basis_vector(i) for i in range(g.dim)])
    r = radical(full)
    z = center(full)
    assert r.dim == 1
    assert r.same_span(z)
    assert r.contains(vec([0, 0, 0, 1]))  # the identity matrix direction
    assert g.is_reductive()


def test_sl2_is_reductive(sl2):
    assert sl2.is_reductive()


def _reductive_by_radical(g: LieAlgebra) -> bool:
    """Reference rule: the radical of g equals its center."""
    full = Subalgebra(g, [g.basis_vector(i) for i in range(g.dim)])
    return radical(full).same_span(center(full))


def _rref_basis(vectors, dim: int) -> list:
    """The nonzero RREF rows of the span of the vectors."""
    r, pivots = rref(RatMat(vectors, ncols=dim))
    return list(r.rows[:len(pivots)])


def _random_closed_subalgebra(g: LieAlgebra, rng: random.Random) -> Subalgebra:
    """Bracket closure of 1-3 seeded generators, each 1-2 basis vectors."""
    generators = []
    for _ in range(rng.randint(1, 3)):
        v = [0] * g.dim
        for i in rng.sample(range(g.dim), rng.randint(1, 2)):
            v[i] = rng.choice((-1, 1, 2))
        generators.append(vec(v))
    basis, grown = [], _rref_basis(generators, g.dim)
    while len(grown) > len(basis):
        basis = grown
        grown = _rref_basis(basis + [g.bracket(x, y) for i, x in enumerate(basis)
                                     for y in basis[i + 1:]], g.dim)
    return Subalgebra(g, basis)


def test_is_reductive_agrees_with_radical_rule(sl2, sl3, sl4):
    rng = random.Random(29)
    aff1 = [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]  # [x, y] = y
    heisenberg = [[[0] * 3, [0, 0, 1], [0] * 3], [[0, 0, -1], [0] * 3, [0] * 3],
                  [[0] * 3] * 3]  # [x, y] = z
    algebras = [builders.gl2(), LieAlgebra(aff1), LieAlgebra(heisenberg),
                LieAlgebra([[[0] * 2] * 2] * 2)]
    for g in (sl2, sl3, sl4):
        algebras += [_random_closed_subalgebra(g, rng).abstract() for _ in range(50)]
    verdicts = [_reductive_by_radical(a) for a in algebras]
    assert [a.is_reductive() for a in algebras] == verdicts
    assert verdicts[:4] == [True, False, False, True]
    assert 50 < sum(verdicts) < len(verdicts) - 50  # both classes well represented


def test_unimodular_pairs(sl2, sl2_subs):
    assert is_unimodular_pair(sl2, sl2_subs["n"])
    assert is_unimodular_pair(sl2, sl2_subs["so2"])
    assert is_unimodular_pair(sl2, sl2_subs["so11"])
    assert not is_unimodular_pair(sl2, sl2_subs["borel"])


def test_unimodular_requires_reductive_ambient():
    # affine line algebra: [x, y] = y is solvable, not reductive
    sc = [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]
    g = LieAlgebra([[[rat(c) for c in r] for r in p] for p in sc], name="aff1")
    with pytest.raises(InputError, match="not reductive"):
        is_unimodular_pair(g, Subalgebra(g, [g.basis_vector(i) for i in range(g.dim)]))


@pytest.mark.parametrize("algebra", ["sl3", "sl4"])
def test_subspace_contains_agrees_with_incremental_span(algebra, request):
    g = request.getfixturevalue(algebra)
    rng = random.Random(17)
    for _ in range(40):
        vectors = [vec([Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                        if rng.random() < 0.3 else 0 for _ in range(g.dim)])
                   for _ in range(rng.randint(0, g.dim))]
        basis = _rref_basis(vectors, g.dim)
        sub = Subspace(g, basis)
        inside = sub.from_coords(vec([rng.randint(-3, 3) for _ in range(sub.dim)]))
        probes = [inside, vec([rng.randint(-1, 1) for _ in range(g.dim)]),
                  g.bracket(inside, g.basis_vector(rng.randrange(g.dim)))]
        for v in probes:  # v lies in the span exactly when it adds no pivot
            assert sub.contains(v) == (len(_rref_basis(vectors + [v], g.dim)) == len(basis))
        assert sub.contains(inside)


def test_bilinear_form_positive_definite():
    zero2 = [[[rat(0), rat(0)]] * 2] * 2
    ab = LieAlgebra(zero2, name="abelian2")
    good = BilinearForm(ab, RatMat([[2, 1], [1, 2]]))
    bad = BilinearForm(ab, RatMat([[1, 2], [2, 1]]))
    assert good.is_positive_definite()
    assert not bad.is_positive_definite()


def test_so3_killing_negative_definite(sl3):
    so3 = builders.sl3_so3(sl3)
    a = so3.abstract()
    k = a.killing_form()
    neg = BilinearForm(a, -k.gram)
    assert neg.is_positive_definite()


def test_abstract_subalgebra_brackets_match(sl3):
    so3 = builders.sl3_so3(sl3)
    a = so3.abstract()
    for i in range(3):
        for j in range(3):
            inside = sl3.bracket(so3.basis[i], so3.basis[j])
            assert so3.coords(inside) == a.bracket(a.basis_vector(i), a.basis_vector(j))


def test_structure_constants_transform_random(sl3):
    # rebuild sl3 from a randomly rescaled/sheared realization basis
    rng = random.Random(11)
    mats = builders.sl_basis_matrices(3)
    mixed = []
    for i, m in enumerate(mats):
        other = mats[(i + 3) % len(mats)]
        c = rng.choice([1, 2, -1])
        mixed.append(m.scale(rat(c)) + other)
    g2 = LieAlgebra.from_realization(mixed)
    assert g2.dim == 8
    x = vec([rng.randint(-2, 2) for _ in range(8)])
    y = vec([rng.randint(-2, 2) for _ in range(8)])
    # bracket computed abstractly matches the matrix commutator
    lhs = g2.realize(g2.bracket(x, y))
    a, b = g2.realize(x), g2.realize(y)
    assert lhs == (a @ b) - (b @ a)


def test_from_realization_rejects_non_closed_span():
    # span{E} with a stray non-nilpotent partner that brackets outside
    e = RatMat([[0, 1], [0, 0]])
    p = RatMat([[1, 0], [0, 0]])  # [P, E] = E ok, but [E, F]... use pair (E, P)
    g = LieAlgebra.from_realization([e, p])
    assert g.dim == 2  # this one closes: [P, E] = E
    f = RatMat([[0, 0], [1, 0]])
    with pytest.raises(InvariantViolation):
        LieAlgebra.from_realization([e, f])  # [E, F] = H escapes the span


# ---------------------------------------------------------------------------
# differential tests: the integer structure constants against Fraction
# references (bracket from the dense tensor, Killing form as the trace of
# ad products, structure constants from Fraction commutators)


def _ref_bracket(sc, x, y):
    out = [Fraction(0)] * len(sc)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, c in enumerate(sc[i][j]):
                    out[k] += xi * yj * c
    return tuple(out)


def _ref_ad(sc, x):
    n = len(sc)
    cols = [_ref_bracket(sc, x, tuple(Fraction(int(i == j)) for i in range(n)))
            for j in range(n)]
    return [[cols[j][k] for j in range(n)] for k in range(n)]


def _ref_killing(sc):
    n = len(sc)
    ads = [_ref_ad(sc, tuple(Fraction(int(i == j)) for j in range(n))) for i in range(n)]
    return [tuple(sum((a[p][q] * b[q][p] for p in range(n) for q in range(n) if a[p][q]),
                      Fraction(0)) for b in ads) for a in ads]


def _ref_structure(mats):
    """Structure constants from Fraction commutators and Fraction solves."""
    n, d = len(mats), mats[0].nrows

    def mul(a, b):
        return [[sum((a.rows[i][k] * b.rows[k][j] for k in range(d)), Fraction(0))
                 for j in range(d)] for i in range(d)]

    # Fraction Gauss-Jordan on [B | I], B's columns the flattened basis
    rows = [[m.rows[r // d][r % d] for m in mats] + [Fraction(int(r == c)) for c in range(d * d)]
            for r in range(d * d)]
    for c in range(n):
        piv = next(r for r in range(c, d * d) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [e / rows[c][c] for e in rows[c]]
        for r in range(d * d):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [e - f * g for e, g in zip(rows[r], rows[c])]

    def coords(v):  # row k < n of the right block gives coordinate k
        out = [sum((a * b for a, b in zip(row[n:], v) if a), Fraction(0)) for row in rows]
        assert all(e == 0 for e in out[n:])
        return tuple(out[:n])

    return tuple(tuple(coords([x - y for ra, rb in zip(mul(mi, mj), mul(mj, mi))
                               for x, y in zip(ra, rb)]) for mj in mats) for mi in mats)


@pytest.fixture(scope="module")
def sheared_sl3():
    """sl3 in the basis M_i + M_{i+1}/2 + M_{i+2}/3 of its catalog matrices."""
    mats = builders.sl_basis_matrices(3)
    g = LieAlgebra.from_realization(
        [mats[i] + mats[(i + 1) % 8].scale(Fraction(1, 2))
         + mats[(i + 2) % 8].scale(Fraction(1, 3)) for i in range(8)], name="sl3-sheared")
    assert g._den > 1
    return g


@pytest.mark.parametrize("algebra", ["sl2", "sl3", "sl4", "sl5", "sheared_sl3"])
def test_integer_constants_match_fraction_references(algebra, request):
    g = request.getfixturevalue(algebra)
    assert g.sc == _ref_structure(list(g.realization))
    assert list(g.killing_form().gram.rows) == _ref_killing(g.sc)
    rng = random.Random(g.dim)
    for _ in range(10):
        x, y = (tuple(Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 7]))
                      if rng.random() < 0.6 else Fraction(0) for _ in range(g.dim))
                for _ in range(2))
        assert g.bracket(x, y) == _ref_bracket(g.sc, x, y)
        assert list(g.ad(x).rows) == [tuple(r) for r in _ref_ad(g.sc, x)]


def test_hand_entered_non_integral_tensor(sheared_sl3):
    g = LieAlgebra(sheared_sl3.sc)
    assert g._den == sheared_sl3._den > 1
    assert g.killing_form().gram == sheared_sl3.killing_form().gram
    i, j, k = next((i, j, k) for i in range(8) for j in range(i + 1, 8)
                   for k in range(8) if g.sc[i][j][k].denominator > 1)
    broken = [[list(row) for row in plane] for plane in g.sc]
    broken[i][j][k] += Fraction(1, 3)  # antisymmetry off by 1/3
    with pytest.raises(InvariantViolation, match=rf"antisymmetry fails at c\[{i}\]\[{j}\]\[{k}\]"):
        LieAlgebra(broken)
    broken[j][i][k] -= Fraction(1, 3)  # antisymmetric again, Jacobi off by 1/3
    with pytest.raises(InvariantViolation, match="Jacobi"):
        LieAlgebra(broken)
