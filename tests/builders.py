"""Builders of the bundled catalog, and the writer that regenerates it.

The files under ``vaikit/data/`` are written by ``write_data_files``;
``tests/test_catalog.py`` checks that they match byte for byte.  To
regenerate them after changing a builder::

    PYTHONPATH=src python tests/builders.py

``sl(n)`` algebras use the basis H_i = E_ii - E_{i+1,i+1} for
i = 1..n-1, then E_ij (i < j) in lexicographic order, then the mirrored
E_ji in the same order.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from vaikit.catalog import data_path, rat_to_str
from vaikit.exact import RatMat, rref, vec
from vaikit.lie import LieAlgebra, Subalgebra


def _vec_to_json(v) -> list[str]:
    return [rat_to_str(e) for e in v]


def _mat_to_json(m: RatMat) -> list[list[str]]:
    return [[rat_to_str(e) for e in row] for row in m.rows]


def structure(alg: LieAlgebra) -> tuple:
    """The structure tensor c[i][j] = [e_i, e_j] of alg, as Fraction vectors."""
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    return tuple(tuple(alg.bracket(a, b) for b in basis) for a in basis)


def algebra_to_dict(alg: LieAlgebra) -> dict:
    out = {"name": alg.name, "dim": alg.dim}
    if alg.realization is not None:
        out["basis"] = [_mat_to_json(m) for m in alg.realization]
    else:
        out["sc"] = [[[rat_to_str(c) for c in row] for row in plane] for plane in structure(alg)]
    return out


def subspace_to_dict(h) -> dict:
    out = {"name": h.name, "basis": [_vec_to_json(b) for b in h.basis]}
    if h.algebra.name:
        out["algebra"] = h.algebra.name
    return out



def _elementary(n: int, i: int, j: int) -> list[list[int]]:
    return [[1 if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)]


def _diag(entries) -> list[list]:
    n = len(entries)
    return [[entries[a] if a == b else 0 for b in range(n)] for a in range(n)]


def sl_basis_matrices(n: int) -> list[RatMat]:
    mats = []
    for i in range(n - 1):
        d = [0] * n
        d[i], d[i + 1] = 1, -1
        mats.append(RatMat(_diag(d)))
    uppers = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in uppers:
        mats.append(RatMat(_elementary(n, i, j)))
    for i, j in uppers:
        mats.append(RatMat(_elementary(n, j, i)))
    return mats


def sl(n: int) -> LieAlgebra:
    return LieAlgebra.from_realization(sl_basis_matrices(n), name=f"sl{n}")


def gl2() -> LieAlgebra:
    mats = sl_basis_matrices(2) + [RatMat([[1, 0], [0, 1]])]
    return LieAlgebra.from_realization(mats, name="gl2")


def gl2_units() -> LieAlgebra:
    """gl2 in the basis E11, E12, E21, E22, in which span(I, E12) has the
    first center vector I, central in gl2."""
    units = [RatMat(_elementary(2, i, j)) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))]
    return LieAlgebra.from_realization(units, name="gl2")


def _upper_index(n: int, i: int, j: int) -> int:
    """Index of E_ij (i < j, zero-based) in the sl(n) catalog basis."""
    uppers = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return (n - 1) + uppers.index((i, j))


def _lower_index(n: int, i: int, j: int) -> int:
    uppers = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return (n - 1) + len(uppers) + uppers.index((i, j))


def sl2_subalgebras(g: LieAlgebra) -> dict[str, Subalgebra]:
    h, e, f = g.basis_vector(0), g.basis_vector(1), g.basis_vector(2)
    e_minus_f = tuple(a - b for a, b in zip(e, f))
    return {
        "so2": Subalgebra(g, [e_minus_f], name="so(2)"),
        "so11": Subalgebra(g, [h], name="so(1,1)"),
        "borel": Subalgebra(g, [h, e], name="borel"),
        "n": Subalgebra(g, [e], name="span(E)"),
    }


def sl3_so3(g: LieAlgebra) -> Subalgebra:
    """Antisymmetric 3x3 matrices inside the sl3 catalog basis."""
    n = 3
    basis = []
    for i, j in ((1, 2), (0, 2), (0, 1)):
        v = [Fraction(0)] * g.dim
        v[_upper_index(n, i, j)] = Fraction(-1)
        v[_lower_index(n, i, j)] = Fraction(1)
        basis.append(tuple(v))
    return Subalgebra(g, basis, name="so(3)")


def sl3_e12(g: LieAlgebra) -> Subalgebra:
    return Subalgebra(g, [g.basis_vector(_upper_index(3, 0, 1))], name="span(E12)")


def sl2_parabolic() -> dict:
    return {
        "p0": [vec([1, 0, 0]), vec([0, 1, 0])],
        "l0": [vec([1, 0, 0])],
        "n0": [vec([0, 1, 0])],
        "nbar0": [vec([0, 0, 1])],
        "x": vec([1, 0, 0]),
    }


def sl3_flag_parabolic() -> dict:
    """Stabilizer of the coordinate line in the catalog sl3 basis.

    Levi part is the (1, 2) block pair, the grading element is
    diag(2, -1, -1), central in the Levi part with eigenvalue 3 on the
    nilradical.
    """
    n = 3
    e12, e13, e23 = (_upper_index(n, 0, 1), _upper_index(n, 0, 2), _upper_index(n, 1, 2))
    f21, f31, f32 = (_lower_index(n, 0, 1), _lower_index(n, 0, 2), _lower_index(n, 1, 2))
    dim = 8
    unit = lambda i: tuple(Fraction(1) if j == i else Fraction(0) for j in range(dim))
    x = [Fraction(0)] * dim
    x[0], x[1] = Fraction(2), Fraction(1)  # 2 H1 + H2 = diag(2, -1, -1)
    return {
        "p0": [unit(0), unit(1), unit(e12), unit(e13), unit(e23), unit(f32)],
        "l0": [tuple(x), unit(1), unit(e23), unit(f32)],
        "n0": [unit(e12), unit(e13)],
        "nbar0": [unit(f21), unit(f31)],
        "x": tuple(x),
    }


def sl5_nilpotent_pair(g: LieAlgebra) -> Subalgebra:
    """span{U, U^2 + U^3} for the principal nilpotent U in sl5.

    A two-dimensional abelian algebra of nilpotent matrices that no
    semisimple element normalizes; the standard hard case for
    normalizer-based decay certificates.
    """
    n = 5
    u = [Fraction(0)] * g.dim
    for i in range(4):
        u[_upper_index(n, i, i + 1)] = Fraction(1)
    w = [Fraction(0)] * g.dim
    for i in range(3):
        w[_upper_index(n, i, i + 2)] = Fraction(1)
    for i in range(2):
        w[_upper_index(n, i, i + 3)] = Fraction(1)
    return Subalgebra(g, [tuple(u), tuple(w)], name="span{U, U^2+U^3}")


def positive_root_vectors(g: LieAlgebra, n: int) -> list[tuple]:
    """The E_ij with i < j of sl(n), in the catalog basis order."""
    return [g.basis_vector(i) for i in range(n - 1, n - 1 + n * (n - 1) // 2)]


def seeded_nilpotents(g: LieAlgebra, n: int) -> list[tuple]:
    """(u, c) for ten seeded draws of u in the strictly upper triangular
    part of sl(n), each nonzero u with a scale c in 1..4."""
    rng = random.Random(23)
    uppers = positive_root_vectors(g, n)
    draws = []
    for _ in range(10):
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in uppers]
        u = vec([sum(c * b[i] for c, b in zip(coeffs, uppers)) for i in range(g.dim)])
        if any(u):
            draws.append((u, Fraction(rng.randint(1, 4))))
    return draws


def generated_subalgebra(g: LieAlgebra, gens) -> Subalgebra:
    """The span of gens closed under brackets."""
    basis, vectors = [], list(gens)
    while True:
        r, pivots = rref(RatMat(vectors))
        if len(pivots) == len(basis):
            return Subalgebra(g, basis)
        basis = list(r.rows[:len(pivots)])
        vectors = basis + [g.bracket(a, b) for a in basis for b in basis]


def write_data_files(directory) -> list[Path]:
    """Write the catalog's JSON files into directory.  Returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    out = []

    def dump(filename, payload):
        p = directory / filename
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        out.append(p)

    algebras = {}
    for n in (2, 3, 4, 5):
        algebras[n] = sl(n)
        dump(f"sl{n}.json", algebra_to_dict(algebras[n]))
    for key, h in sl2_subalgebras(algebras[2]).items():
        dump(f"sl2-{key}.json", subspace_to_dict(h))
    dump("sl3-so3.json", subspace_to_dict(sl3_so3(algebras[3])))
    dump("sl3-e12.json", subspace_to_dict(sl3_e12(algebras[3])))
    dump("sl5-nilpair.json", subspace_to_dict(sl5_nilpotent_pair(algebras[5])))

    def parabolic_payload(p, alg_name):
        return {
            "algebra": alg_name,
            "p0": [_vec_to_json(v) for v in p["p0"]],
            "l0": [_vec_to_json(v) for v in p["l0"]],
            "n0": [_vec_to_json(v) for v in p["n0"]],
            "nbar0": [_vec_to_json(v) for v in p["nbar0"]],
            "x": _vec_to_json(p["x"]),
        }

    dump("sl2-borel-parabolic.json", parabolic_payload(sl2_parabolic(), "sl2"))
    dump("sl3-flag-parabolic.json", parabolic_payload(sl3_flag_parabolic(), "sl3"))
    dump("theta-negative-transpose.json", {"kind": "negative-transpose"})
    return out


if __name__ == "__main__":
    write_data_files(data_path(""))
