"""Eigenspace gradings, sl2-triples, nilpotency tests.

Triple components and eigenvalue tables were solved by hand from the
matrix realizations before the implementation existed.
"""

from fractions import Fraction

import pytest

import builders
from vaikit import catalog
from vaikit.errors import (
    InvariantViolation,
    IrrationalSpectrum,
    NotNilpotent,
    NotSemisimple,
)
from vaikit.exact import kernel, vec
from vaikit.grading import (
    Grading,
    acts_nilpotently,
    grading_of,
    is_ad_nilpotent,
    jacobson_morozov,
    verify_nonnegative_grading,
)
from vaikit.lie import Subalgebra, Subspace, center


def test_grading_sl2_by_h(sl2, assert_bracket_compatible):
    gr = grading_of(sl2, vec([1, 0, 0]))
    assert_bracket_compatible(gr)
    assert list(gr.parts) == [-2, 0, 2]
    assert gr.parts[2].same_span(Subspace(sl2, [vec([0, 1, 0])]))
    assert gr.parts[0].same_span(Subspace(sl2, [vec([1, 0, 0])]))
    assert gr.parts[-2].same_span(Subspace(sl2, [vec([0, 0, 1])]))
    assert gr.at_least(0).dim == 2


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


@pytest.mark.parametrize("algebra,parabolics,nilpotents", [
    ("sl2", ["sl2-borel-parabolic"], ["sl2-n"]),
    ("sl3", ["sl3-flag-parabolic"], ["sl3-e12"]),
    ("sl4", [], []),
    ("sl5", [], ["sl5-nilpair"]),
])
def test_grading_of_catalog_elements_passes_the_checks(algebra, parabolics, nilpotents,
                                                       assert_checked_grading):
    # the catalog's grading elements: its semisimple basis vectors, its
    # parabolics' x, and the triple x through each nilpotent subalgebra's center
    g = catalog.load_algebra_file(catalog.data_path(f"{algebra}.json"))
    elements = [x for x in map(g.basis_vector, range(g.dim)) if not is_ad_nilpotent(g, x)]
    assert len(elements) == int(algebra[2:]) - 1  # the diagonal basis vectors
    for name in parabolics:
        elements.append(catalog.parse_parabolic(
            catalog.load_json(catalog.data_path(f"{name}.json")), g)["x"])
    for name in nilpotents:
        h = catalog.load_subalgebra_file(catalog.data_path(f"{name}.json"), g)
        elements.append(jacobson_morozov(g, center(h).basis[0]).x)
    for x in elements:
        assert_checked_grading(grading_of(g, x), x)


def test_at_least_sums_the_upper_parts(sl2, assert_bracket_compatible):
    gr = grading_of(sl2, vec([1, 0, 0]))
    assert_bracket_compatible(gr)
    assert gr.at_least(Fraction(3)).dim == 0
    assert gr.at_least(Fraction(2)).same_span(gr.parts[2])
    assert gr.at_least(Fraction(1, 2)).same_span(gr.parts[2])
    assert gr.at_least(Fraction(0)).same_span(Subspace(sl2, [vec([5, -1, 0]), vec([0, 1, 0])]))
    assert gr.at_least(Fraction(-2)).dim == 3
    assert not gr.at_least(Fraction(0)).contains(vec([5, -1, 7]))


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
        assert jacobson_morozov(sl3, tuple(c * e for e in u)).x == base


def test_jacobson_morozov_rejects_non_nilpotent(sl2):
    with pytest.raises(NotNilpotent):
        jacobson_morozov(sl2, vec([1, 0, 0]))
    with pytest.raises(NotNilpotent):
        jacobson_morozov(sl2, vec([0, 0, 0]))


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
    # h.basis[1] = U^2 + U^3 has components in g^4 and g^6, U lies in g^2
    assert gr.at_least(Fraction(4)).contains(h.basis[1])
    assert not gr.at_least(Fraction(6)).contains(h.basis[1])
    assert not gr.parts[4].contains(h.basis[1])
    assert gr.parts[2].contains(h.basis[0])


def test_verify_rejects_foreign_triple(sl3):
    # a valid triple through a different nilpotent certifies nothing
    n13 = Subalgebra(sl3, [sl3.basis_vector(3)], name="span(E13)")
    t12 = jacobson_morozov(sl3, sl3.basis_vector(2))
    assert not verify_nonnegative_grading(sl3, n13, t12)


def test_triple_scaling_property_random(sl4):
    for u, c in builders.seeded_nilpotents(sl4, 4):
        t = jacobson_morozov(sl4, u)
        assert jacobson_morozov(sl4, tuple(c * e for e in u)).x == t.x


@pytest.mark.parametrize("n", [3, 4])
def test_seeded_triples_and_their_nilpotent_algebras(request, n, assert_sl2_triple):
    # verify_nonnegative_grading and unipotent_witness read n in g^(>=0) off
    # ker ad u in g^(>=0), true for every sl2-triple, and unipotent_witness
    # skips center(n) != 0, true for every nonzero n acting nilpotently:
    # both are checked here on seeded input
    g = request.getfixturevalue(f"sl{n}")
    us = [u for u, _ in builders.seeded_nilpotents(g, n)]
    for u in us:
        t = jacobson_morozov(g, u)
        assert_sl2_triple(t)
        nonneg = grading_of(g, t.x).at_least(0)
        assert all(nonneg.contains(z) for z in kernel(g.ad(u)))
    for a, b in zip(us, us[1:]):
        nil = builders.generated_subalgebra(g, [a, b])
        assert acts_nilpotently(g, nil)
        assert center(nil).dim > 0


@pytest.mark.parametrize("n", [3, 4])
def test_verify_nonnegative_grading_is_the_containment(request, n):
    # the answer is read off the two u-guards; whenever they pass it must
    # be the explicit containment of n in g^(>=0) for the triple's x
    g = request.getfixturevalue(f"sl{n}")
    us = [u for u, _ in builders.seeded_nilpotents(g, n)]
    algebras = [builders.generated_subalgebra(g, [a, b]) for a, b in zip(us, us[1:])]
    triples = ([jacobson_morozov(g, u) for u in us]
               + [jacobson_morozov(g, center(nil).basis[0]) for nil in algebras])
    guarded = 0
    for t in triples:
        nonneg = grading_of(g, t.x).at_least(0)
        for nil in algebras:
            guards = nil.contains(t.u) and not any(any(g.bracket(t.u, b)) for b in nil.basis)
            result = verify_nonnegative_grading(g, nil, t)
            assert result == guards
            if guards:
                guarded += 1
                assert result == all(nonneg.contains(b) for b in nil.basis)
    assert guarded >= len(algebras)
