import pytest

from vaikit import catalog


@pytest.fixture(scope="session")
def sl2():
    return catalog.sl(2)


@pytest.fixture(scope="session")
def sl3():
    return catalog.sl(3)


@pytest.fixture(scope="session")
def sl4():
    return catalog.sl(4)


@pytest.fixture(scope="session")
def sl5():
    return catalog.sl(5)


@pytest.fixture(scope="session")
def sl2_subs(sl2):
    return catalog.sl2_subalgebras(sl2)


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
                target = grading.part(lam + mu)  # empty when not a label
                for a in pl.basis:
                    for b in pm.basis:
                        assert target.contains(g.bracket(a, b)), (lam, mu)
    return check
