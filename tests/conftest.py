import os
from fractions import Fraction
from pathlib import Path

import pytest

import builders
from vaikit.errors import InvariantViolation
from vaikit.exact import rational_eigen_decomposition
from vaikit.grading import Grading, grading_of
from vaikit.lie import LieAlgebra, Subspace

# pytest puts src/ on this process's path (pyproject.toml); the tests that
# run `python -m vaikit.cli` in a subprocess need it there too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def sl2():
    return builders.sl(2)


@pytest.fixture(scope="session")
def sl3():
    return builders.sl(3)


@pytest.fixture(scope="session")
def sl4():
    return builders.sl(4)


@pytest.fixture(scope="session")
def sl5():
    return builders.sl(5)


@pytest.fixture(scope="session")
def sheared_sl3():
    """sl3 in the basis M_i + M_{i+1}/2 + M_{i+2}/3 of its catalog matrices."""
    mats = builders.sl_basis_matrices(3)
    g = LieAlgebra.from_realization(
        [mats[i] + mats[(i + 1) % 8].scale(Fraction(1, 2))
         + mats[(i + 2) % 8].scale(Fraction(1, 3)) for i in range(8)], name="sl3-sheared")
    assert g._den > 1
    return g


@pytest.fixture(scope="session")
def sl2_subs(sl2):
    return builders.sl2_subalgebras(sl2)


@pytest.fixture(scope="session")
def assert_bracket_compatible():
    """Assert [g^lambda, g^mu] in g^{lambda+mu} for a Grading.

    ``Grading`` derives this from Jacobi instead of checking it, so the
    tests check it bracket by bracket.
    """
    def check(grading):
        g = grading.algebra
        items = list(grading.parts.items())
        for i, (lam, pl) in enumerate(items):
            for mu, pm in items[i:]:
                target = grading.parts.get(lam + mu, Subspace(g, []))  # 0 when not a label
                for a in pl.basis:
                    for b in pm.basis:
                        assert target.contains(g.bracket(a, b)), (lam, mu)
    return check


@pytest.fixture(scope="session")
def assert_checked_grading():
    """Assert that a ``grading_of`` result passes the checked constructor.

    ``grading_of`` skips ``Grading``'s label and fill checks, as
    ``_eigenspaces`` proves both, so the tests run them on its output,
    together with the ascending label order.
    """
    def check(grading, x):
        assert list(grading.parts) == sorted(grading.parts)
        Grading(grading.algebra, x, grading.parts)  # raises InvariantViolation
    return check


@pytest.fixture(scope="session")
def assert_sl2_triple():
    """Assert [x, u] = 2u, [x, v] = -2v and [u, v] = x for an SL2Triple.

    ``SL2Triple`` takes the relations from ``_jacobson_morozov``
    unchecked, so the tests check them on its output.
    """
    def check(triple):
        g, x, u, v = triple.algebra, triple.x, triple.u, triple.v
        assert g.bracket(x, u) == tuple(2 * c for c in u)
        assert g.bracket(x, v) == tuple(-2 * c for c in v)
        assert g.bracket(u, v) == x
    return check


@pytest.fixture(scope="session")
def assert_decay_witness():
    """Assert n1 a proper ad-x stable subspace of n0, gamma the ad-x trace
    gap gamma = tr(ad x | n0) - tr(ad x | n1) > 0, and p0 = l1 + h + n1,
    direct, for a DecayWitness.

    ``DecayWitness`` takes all of them from ``build_n1`` unchecked, so the
    tests check them on its output.
    """
    def check(w):
        g, p = w.algebra, w.parabolic
        ad = g.ad(p.x)
        assert w.n1.dim < p.n0.dim
        assert all(p.n0.contains(b) and w.n1.contains(ad.apply(b)) for b in w.n1.basis)
        gap = p.n0.restriction_matrix(ad).trace() - w.n1.restriction_matrix(ad).trace()
        assert w.gamma == gap > 0
        parts = [*w.l1.basis, *w.h.basis, *w.n1.basis]
        # the constructor raises on a dependent basis
        assert Subspace(g, parts).dim == p.p0.dim
        assert all(p.p0.contains(b) for b in parts)
    return check


@pytest.fixture(scope="session")
def assert_lower_bound_split():
    """Assert h + vx = g, direct, with each vx vector an ad-x eigenvector.

    ``LowerBoundCert`` takes both from ``predict_lower_bound`` unchecked,
    so the tests check them on its output.
    """
    def check(cert):
        g, vx = cert.algebra, cert.vx
        assert len(cert.eigenvalues) == vx.dim
        # the constructor raises on a dependent basis
        assert Subspace(g, [*cert.h.basis, *vx.basis]).dim == g.dim
        ad = g.ad(cert.x)
        for lam, b in zip(cert.eigenvalues, vx.basis):
            assert ad.apply(b) == tuple(lam * e for e in b), lam
    return check


@pytest.fixture(scope="session")
def assert_unipotent_witness():
    """Assert n in g^(>=0) for the grading by x, and gamma, for a
    UnipotentWitness.  A direct certificate has every ad-x eigenvalue on
    n > 0 and gamma their trace; an averaged one has gamma = 2, the trace
    of ad x on n1 = span(u), and x fails to normalize n or has the
    eigenvalue 0 there.

    ``unipotent_witness`` reads n in g^(>=0) off the sl2-triple and the
    sign of the spectrum off one rank test, so the tests decompose g and
    n by ad x here.
    """
    def check(w):
        g, n, t = w.algebra, w.n, w.triple
        assert w.x == t.x
        nonneg = grading_of(g, w.x).at_least(0)
        assert all(nonneg.contains(b) for b in n.basis)
        ad = g.ad(w.x)
        try:
            spectrum = rational_eigen_decomposition(n.restriction_matrix(ad))
        except InvariantViolation:  # x does not normalize n
            spectrum = None
        if w.averaged:
            assert w.n1.same_span(Subspace(g, [t.u]))
            assert w.gamma == w.n1.restriction_matrix(ad).trace() == 2
            assert spectrum is None or 0 in spectrum
        else:
            assert w.n1 is None and all(lam > 0 for lam in spectrum)
            assert w.gamma == n.restriction_matrix(ad).trace()
    return check
