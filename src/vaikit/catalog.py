"""The JSON file formats, their loaders, and the bundled example files.

The toolkit reads three kinds of JSON files, all with exact-rational
entries serialized as strings like ``"3"`` or ``"-1/2"``:

* algebra files: ``{"name", "dim", "basis"}`` where ``basis`` is a list
  of square matrices (a faithful realization), or ``{"name", "dim",
  "sc"}`` with the full structure tensor.  Exactly one of the two.
* subalgebra/subspace files: ``{"name", "basis"}`` with coordinate
  vectors in the ambient ordered basis.
* parabolic files: ``{"p0", "l0", "n0", "nbar0", "x"}`` coordinate data
  for a parabolic with chosen Levi part and grading element.

Involution files are ``{"kind": "negative-transpose"}`` (uses the
realization) or ``{"matrix": [...]}`` in basis coordinates.

The bundled ``sl(n)`` files use the basis: H_i = E_ii - E_{i+1,i+1}
for i = 1..n-1, then E_ij (i < j) in lexicographic order, then the
mirrored E_ji in the same order.  ``data_path`` names a bundled file;
the builders in ``tests/builders.py`` regenerate them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import InputError, InvariantViolation
from .exact import RatMat, Vec, rat
from .lie import LieAlgebra, Subalgebra, negative_transpose_involution

# ---------------------------------------------------------------------------
# rational-string (de)serialization


def rat_to_str(x: Fraction) -> str:
    return str(rat(x))


def str_to_rat(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise InputError(f"rational entries must be strings, got {type(s).__name__}")
    if "_" in s:  # Fraction takes Python's digit grouping; the format has none
        raise InputError(f"bad rational literal {s!r}: underscores are not allowed")
    try:
        value = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {s!r}: {exc}") from None
    return value


def _vec_from_json(data, where: str) -> Vec:
    if not isinstance(data, list):
        raise InputError(f"{where}: expected a list of rationals")
    return tuple(str_to_rat(e) for e in data)


def _vecs_from_json(data, where: str) -> list[Vec]:
    if not isinstance(data, list):
        raise InputError(f"{where}: expected a list of vectors")
    return [_vec_from_json(v, f"{where}[{i}]") for i, v in enumerate(data)]


def _rows_from_json(data, where: str) -> list[list[Fraction]]:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise InputError(f"{where}: expected a matrix (list of rows)")
    if any(len(r) != len(data[0]) for r in data):
        raise InputError(f"{where}: rows have different lengths")
    return [[str_to_rat(e) for e in row] for row in data]


def _mat_from_json(data, where: str) -> RatMat:
    return RatMat(_rows_from_json(data, where))


# ---------------------------------------------------------------------------
# file formats


def _name(data: dict, where: str) -> str:
    name = data.get("name", "")
    if not isinstance(name, str):
        raise InputError(f"{where}: 'name' must be a string")
    return name


def parse_algebra(data: dict, where: str = "algebra") -> LieAlgebra:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    name = _name(data, where)
    has_basis = "basis" in data
    has_sc = "sc" in data
    if has_basis == has_sc:
        raise InputError(f"{where}: provide exactly one of 'basis' or 'sc'")
    try:
        if has_basis:
            mats = [_mat_from_json(m, f"{where}.basis[{i}]")
                    for i, m in enumerate(data["basis"])]
            alg = LieAlgebra.from_realization(mats, name=name)
        else:
            if not isinstance(data["sc"], list) or not data["sc"]:
                raise InputError(f"{where}.sc: expected a non-empty list of matrices")
            alg = LieAlgebra([_rows_from_json(plane, f"{where}.sc[{i}]")
                              for i, plane in enumerate(data["sc"])], name=name)
    except InputError:
        raise
    except Exception as exc:
        raise InputError(f"{where}: {exc}") from exc
    if "dim" in data:
        dim = data["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise InputError(f"{where}: 'dim' must be an integer, got {type(dim).__name__}")
        if dim != alg.dim:
            raise InputError(f"{where}: declared dim {dim} but basis has {alg.dim}")
    return alg


def parse_subspace(data: dict, g: LieAlgebra, where: str = "subalgebra") -> Subalgebra:
    if not isinstance(data, dict) or "basis" not in data:
        raise InputError(f"{where}: expected an object with a 'basis' field")
    if "algebra" in data and g.name and data["algebra"] != g.name:
        raise InputError(f"{where}: file targets algebra {data['algebra']!r}, "
                         f"got {g.name!r}")
    name = _name(data, where)
    basis = _vecs_from_json(data["basis"], f"{where}.basis")
    try:
        return Subalgebra(g, basis, name=name)
    except Exception as exc:
        raise InputError(f"{where}: {exc}") from exc


def parse_parabolic(data: dict, g: LieAlgebra, where: str = "parabolic") -> dict:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    out = {}
    for key in ("p0", "l0", "n0", "nbar0"):
        if key not in data:
            raise InputError(f"{where}: missing field {key!r}")
        out[key] = _vecs_from_json(data[key], f"{where}.{key}")
    if "x" not in data:
        raise InputError(f"{where}: missing field 'x'")
    out["x"] = _vec_from_json(data["x"], f"{where}.x")
    return out


def parse_theta(data: dict, g: LieAlgebra, where: str = "theta") -> RatMat:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    if "matrix" in data:
        m = _mat_from_json(data["matrix"], f"{where}.matrix")
        if m.nrows != g.dim or m.ncols != g.dim:
            raise InputError(f"{where}: matrix must be {g.dim} x {g.dim}")
        return m
    if data.get("kind") == "negative-transpose":
        try:
            return negative_transpose_involution(g)
        except InvariantViolation as exc:
            raise InputError(f"{where}: {exc}") from None
    raise InputError(f"{where}: need 'matrix' or kind 'negative-transpose'")


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None


def load_algebra_file(path) -> LieAlgebra:
    return parse_algebra(load_json(path), where=str(path))


def load_subalgebra_file(path, g: LieAlgebra) -> Subalgebra:
    return parse_subspace(load_json(path), g, where=str(path))


# ---------------------------------------------------------------------------
# bundled data files


def data_path(filename: str) -> Path:
    """Filesystem path of a bundled data file."""
    return Path(__file__).parent / "data" / filename

