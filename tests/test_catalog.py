"""Bundled data files, their loaders, and parse-error behavior."""

import json

import pytest

import builders
from vaikit import catalog
from vaikit.errors import InputError
from vaikit.exact import RatMat, vec
from vaikit.lie import LieAlgebra, negative_transpose_involution


def test_bundled_files_match_builders(tmp_path):
    regenerated = builders.write_data_files(tmp_path)
    bundled = sorted(catalog.data_path("").glob("*.json"))
    assert sorted(p.name for p in regenerated) == [p.name for p in bundled]
    for p in regenerated:
        assert catalog.data_path(p.name).read_text() == p.read_text(), p.name


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_load_sl_n(n):
    g = catalog.load_algebra_file(catalog.data_path(f"sl{n}.json"))
    assert g.dim == n * n - 1
    assert g.name == f"sl{n}"
    assert g.is_reductive()


def test_load_subalgebra(sl2):
    h = catalog.load_subalgebra_file(catalog.data_path("sl2-so2.json"), sl2)
    assert h.dim == 1
    assert h.contains(vec([0, 1, -1]))


def test_subalgebra_algebra_name_mismatch(sl3):
    with pytest.raises(InputError, match="targets algebra"):
        catalog.load_subalgebra_file(catalog.data_path("sl2-so2.json"), sl3)


def test_parse_rational_strings():
    assert catalog.str_to_rat("-3/4") == catalog.str_to_rat("-6/8")
    assert catalog.rat_to_str(catalog.str_to_rat("10/4")) == "5/2"
    with pytest.raises(InputError):
        catalog.str_to_rat("1/0")
    with pytest.raises(InputError):
        catalog.str_to_rat("x")
    with pytest.raises(InputError):
        catalog.str_to_rat(1.5)


def test_algebra_roundtrip_through_dict(sl3):
    d = builders.algebra_to_dict(sl3)
    g2 = catalog.parse_algebra(d)
    assert builders.structure(g2) == builders.structure(sl3)


def test_parse_algebra_requires_exactly_one_source():
    with pytest.raises(InputError, match="exactly one"):
        catalog.parse_algebra({"name": "x"})
    with pytest.raises(InputError, match="exactly one"):
        catalog.parse_algebra({"name": "x", "basis": [], "sc": []})


def test_parse_algebra_dim_mismatch(sl2):
    d = builders.algebra_to_dict(sl2)
    d["dim"] = 5
    with pytest.raises(InputError, match="declared dim"):
        catalog.parse_algebra(d)


# each declared dim equals the algebra's dimension in Python, but none is an
# integer; True is the 1-dimensional abelian algebra's, the others sl2's
@pytest.mark.parametrize("dim", [True, 3.0, "3"])
def test_parse_algebra_dim_must_be_an_integer(sl2, dim):
    d = {"name": "line", "sc": [[["0"]]]} if dim is True else builders.algebra_to_dict(sl2)
    d["dim"] = dim
    with pytest.raises(InputError, match=f"'dim' must be an integer, got {type(dim).__name__}"):
        catalog.parse_algebra(d)


def test_load_json_errors(tmp_path):
    with pytest.raises(InputError, match="no such file"):
        catalog.load_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError, match="invalid JSON"):
        catalog.load_json(bad)


def test_negative_transpose_matrix(sl2):
    theta = catalog.parse_theta({"kind": "negative-transpose"}, sl2)
    # H -> -H, E -> -F, F -> -E
    assert theta.apply(vec([1, 0, 0])) == vec([-1, 0, 0])
    assert theta.apply(vec([0, 1, 0])) == vec([0, 0, -1])
    assert theta.apply(vec([0, 0, 1])) == vec([0, -1, 0])
    assert theta @ theta == RatMat.identity(3)
    bare = LieAlgebra(builders.structure(sl2), name="bare")
    with pytest.raises(InputError, match="^theta: .*realization"):
        catalog.parse_theta({"kind": "negative-transpose"}, bare)


def test_theta_file_parses(sl2):
    data = catalog.load_json(catalog.data_path("theta-negative-transpose.json"))
    theta = catalog.parse_theta(data, sl2)
    assert theta == negative_transpose_involution(sl2)


def test_parse_parabolic_fields(sl3):
    data = catalog.load_json(catalog.data_path("sl3-flag-parabolic.json"))
    p = catalog.parse_parabolic(data, sl3)
    assert len(p["p0"]) == 6
    assert len(p["l0"]) == 4
    assert len(p["n0"]) == 2
    assert len(p["nbar0"]) == 2
    assert p["x"] == vec([2, 1, 0, 0, 0, 0, 0, 0])
    bad = dict(data)
    del bad["n0"]
    with pytest.raises(InputError, match="missing field"):
        catalog.parse_parabolic(bad, sl3)


def test_sl5_nilpotent_pair_closes(sl5):
    h = builders.sl5_nilpotent_pair(sl5)
    assert h.dim == 2
    u, w = h.basis
    assert sl5.bracket(u, w) == vec([0] * 24)  # abelian pair
    mu = sl5.realize(u)
    assert (mu ** 5).is_zero()
    assert not (mu ** 4).is_zero()
