"""Eigenspace gradings, sl2-triples, nilpotency tests.

Triple components and eigenvalue tables were solved by hand from the
matrix realizations before the implementation existed.
"""

import random
from fractions import Fraction

import pytest

import builders
from vaikit.errors import (
    InvariantViolation,
    IrrationalSpectrum,
    NotNilpotent,
    NotSemisimple,
)
from vaikit.exact import vec, vec_scale
from vaikit.grading import (
    Grading,
    SL2Triple,
    acts_nilpotently,
    grading_of,
    is_ad_nilpotent,
    jacobson_morozov,
    verify_nonnegative_grading,
)
from vaikit.lie import Subalgebra, Subspace


def test_grading_sl2_by_h(sl2, assert_bracket_compatible):
    gr = grading_of(sl2, vec([1, 0, 0]))
    assert_bracket_compatible(gr)
    assert list(gr.parts) == [-2, 0, 2]
    assert gr.parts[2].same_span(Subspace(sl2, [vec([0, 1, 0])]))
    assert gr.parts[0].same_span(Subspace(sl2, [vec([1, 0, 0])]))
    assert gr.parts[-2].same_span(Subspace(sl2, [vec([0, 0, 1])]))
    assert gr.nonnegative_part().dim == 2


def test_grading_sl3_by_block_element(sl3, assert_bracket_compatible):
    # x = diag(2, -1, -1): eigenvalue 3 on the first row, -3 on the first column
    x = vec([2, 1, 0, 0, 0, 0, 0, 0])
    gr = grading_of(sl3, x)
    assert_bracket_compatible(gr)
    assert list(gr.parts) == [-3, 0, 3]
    e12, e13 = sl3.basis_vector(2), sl3.basis_vector(3)
    assert gr.parts[3].same_span(Subspace(sl3, [e12, e13]))
    assert gr.parts[0].dim == 4
    assert gr.parts[-3].dim == 2


def test_grading_by_zero(sl2, assert_bracket_compatible):
    gr = grading_of(sl2, vec([0, 0, 0]))
    assert_bracket_compatible(gr)
    assert list(gr.parts) == [0]
    assert gr.parts[0].dim == 3


def test_grading_rejects_nilpotent(sl2):
    with pytest.raises(NotSemisimple):
        grading_of(sl2, vec([0, 1, 0]))


def test_grading_rejects_irrational_spectrum(sl2):
    # E + 2F realizes [[0,1],[2,0]]: eigenvalues are square roots of 2
    with pytest.raises(IrrationalSpectrum):
        grading_of(sl2, vec([0, 1, 2]))


def test_grading_validates_labels(sl2):
    parts = {
        Fraction(1): Subspace(sl2, [vec([0, 1, 0])]),
        Fraction(0): Subspace(sl2, [vec([1, 0, 0])]),
        Fraction(-1): Subspace(sl2, [vec([0, 0, 1])]),
    }
    # true eigenvalues of ad H are (2, 0, -2), not (1, 0, -1)
    with pytest.raises(InvariantViolation):
        Grading(sl2, vec([1, 0, 0]), parts)


def test_components_of(sl2, assert_bracket_compatible):
    gr = grading_of(sl2, vec([1, 0, 0]))
    assert_bracket_compatible(gr)
    comps = gr.components_of(vec([5, -1, 7]))
    assert comps[Fraction(0)] == vec([5, 0, 0])
    assert comps[Fraction(2)] == vec([0, -1, 0])
    assert comps[Fraction(-2)] == vec([0, 0, 7])
    assert sorted(gr.components_of(vec([0, 3, 0]))) == [Fraction(2)]


def test_jacobson_morozov_sl2_standard(sl2):
    t = jacobson_morozov(sl2, vec([0, 1, 0]))
    assert t.x == vec([1, 0, 0])
    assert t.v == vec([0, 0, 1])


def test_jacobson_morozov_sl3_e12(sl3):
    t = jacobson_morozov(sl3, sl3.basis_vector(2))
    # x = diag(1, -1, 0), v = the transposed elementary matrix
    assert t.x == sl3.basis_vector(0)
    assert t.v == sl3.basis_vector(5)


def test_jacobson_morozov_sl5_principal(sl5):
    h = builders.sl5_nilpotent_pair(sl5)
    t = jacobson_morozov(sl5, h.basis[0])
    # x = diag(4, 2, 0, -2, -4), written in the Cartan coordinates
    expected = [4, 6, 6, 4] + [0] * 20
    assert t.x == vec(expected)
    assert sl5.realize(t.x).rows[0][0] == 4
    assert sl5.realize(t.x).rows[4][4] == -4


def test_jacobson_morozov_x_depends_on_line_only(sl3):
    u = sl3.basis_vector(2)
    base = jacobson_morozov(sl3, u).x
    for c in (Fraction(2), Fraction(-1), Fraction(1, 3)):
        assert jacobson_morozov(sl3, vec_scale(c, u)).x == base


def test_jacobson_morozov_rejects_non_nilpotent(sl2):
    with pytest.raises(NotNilpotent):
        jacobson_morozov(sl2, vec([1, 0, 0]))
    with pytest.raises(NotNilpotent):
        jacobson_morozov(sl2, vec([0, 0, 0]))


def test_sl2_triple_validation(sl2):
    with pytest.raises(InvariantViolation):
        SL2Triple(sl2, vec([-1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1]))
    # the standard one passes
    SL2Triple(sl2, vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1]))


def test_is_ad_nilpotent(sl2):
    assert is_ad_nilpotent(sl2, vec([0, 1, 0]))
    assert is_ad_nilpotent(sl2, vec([0, 0, 0]))
    assert not is_ad_nilpotent(sl2, vec([1, 0, 0]))
    assert not is_ad_nilpotent(sl2, vec([0, 1, -1]))


def test_acts_nilpotently(sl2, sl2_subs, sl5):
    assert acts_nilpotently(sl2, sl2_subs["n"])
    assert not acts_nilpotently(sl2, sl2_subs["so11"])
    assert not acts_nilpotently(sl2, sl2_subs["borel"])
    assert acts_nilpotently(sl5, builders.sl5_nilpotent_pair(sl5))


def test_verify_nonnegative_grading_sl2(sl2, sl2_subs):
    t = jacobson_morozov(sl2, vec([0, 1, 0]))
    assert verify_nonnegative_grading(sl2, sl2_subs["n"], t)


def test_verify_nonnegative_grading_sl5(sl5, assert_bracket_compatible):
    h = builders.sl5_nilpotent_pair(sl5)
    t = jacobson_morozov(sl5, h.basis[0])
    assert verify_nonnegative_grading(sl5, h, t)
    gr = grading_of(sl5, t.x)
    assert_bracket_compatible(gr)
    comps = gr.components_of(h.basis[1])
    assert sorted(comps) == [4, 6]
    assert sorted(gr.components_of(h.basis[0])) == [2]


def test_verify_rejects_foreign_triple(sl3):
    # a valid triple through a different nilpotent certifies nothing
    n13 = Subalgebra(sl3, [sl3.basis_vector(3)], name="span(E13)")
    t12 = jacobson_morozov(sl3, sl3.basis_vector(2))
    assert not verify_nonnegative_grading(sl3, n13, t12)


def test_triple_scaling_property_random(sl4):
    rng = random.Random(23)
    uppers = [sl4.basis_vector(i) for i in range(3, 9)]  # strictly upper part
    for _ in range(10):
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in uppers]
        u = vec([sum(c * b[i] for c, b in zip(coeffs, uppers)) for i in range(15)])
        if not any(u):
            continue
        t = jacobson_morozov(sl4, u)
        c = Fraction(rng.randint(1, 4))
        assert jacobson_morozov(sl4, vec_scale(c, u)).x == t.x
