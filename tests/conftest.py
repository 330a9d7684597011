import os
from pathlib import Path

import pytest

import builders

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
                target = grading.part(lam + mu)  # empty when not a label
                for a in pl.basis:
                    for b in pm.basis:
                        assert target.contains(g.bracket(a, b)), (lam, mu)
    return check
