"""Command line interface: ``check``, ``witness``, ``estimate``.

Every run prints exactly one JSON report to stdout.  The report
carries the command name, an echo of the arguments, a sha256 content
hash per input file (bytes only, so file metadata never changes a
hash), the package version, and the result payload.  Rationals are
printed as canonical ``p/q`` strings and floats in shortest
round-trip decimal, so parsing a report back recovers the in-memory
values exactly.

Exit codes are a fixed function of the outcome:

====  =========================================================
code  meaning
====  =========================================================
0     check: verdict ``holds``; witness: certificate built and
      bounded; estimate: series produced (fit MATCH if requested)
1     estimate ``--fit`` verdict MISMATCH
2     input or usage error
3     check: verdict ``fails``; witness: obstruction or unbounded
      projection, with the obstruction payload in the report
4     check: verdict ``no-invariant-measure``
5     internal error: an unexpected exception, reported as one
      ``error: <Type>: <message>`` line on stderr
====  =========================================================
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .catalog import (
    data_path,
    load_algebra_file,
    load_json,
    load_subalgebra_file,
    parse_parabolic,
    parse_theta,
    rat_to_str,
)
from .errors import GammaNotPositive, InputError, NoNormalizer, NotNilpotent, VaikitError
from .exact import vec
from .lie import Subspace
from .reductivity import (
    VAI_FAILS,
    VAI_HOLDS,
    VAI_NO_MEASURE,
    CartanData,
    default_cartan,
    vai_verdict,
)
from .witness import (
    ParabolicData,
    build_n1,
    check_mt_bounded,
    predict_lower_bound,
    predict_symmetric_exponent,
    unipotent_witness,
)

# exit code per verdict; total on the three-valued enum
CHECK_EXIT = {VAI_HOLDS: 0, VAI_FAILS: 3, VAI_NO_MEASURE: 4}

FIT_TOLERANCE = 0.2
MAX_GRID = 100_000


# ---------------------------------------------------------------------------
# report plumbing


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _jsonify(value):
    """Exact JSON image: Fractions to 'p/q' strings, spans to bases."""
    if isinstance(value, Fraction):
        return rat_to_str(value)
    if isinstance(value, Subspace):
        return [_jsonify(b) for b in value.basis]
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


def _report(command: str, args, inputs: dict, result: dict) -> dict:
    return {
        "command": command,
        "argv": list(args._argv),
        "inputs": inputs,
        "version": __version__,
        "result": _jsonify(result),
    }


def _input_entry(path) -> dict:
    return {"path": str(path), "sha256": _sha256(path)}


def _load_pair(args):
    """The algebra and subalgebra files of ``check``/``witness``."""
    g = load_algebra_file(args.algebra)
    h = load_subalgebra_file(args.subalgebra, g)
    inputs = {
        "algebra": _input_entry(args.algebra),
        "subalgebra": _input_entry(args.subalgebra),
    }
    return g, h, inputs


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> tuple[dict, int]:
    g, h, inputs = _load_pair(args)
    cartan = None
    if args.theta is not None:
        theta = parse_theta(load_json(args.theta), g)
        cartan = CartanData(g, theta)
        inputs["theta"] = _input_entry(args.theta)
    verdict = vai_verdict(g, h, cartan)
    result = {
        "type": "reductivity",
        "algebra": verdict.algebra,
        "subalgebra": verdict.subalgebra,
        "unimodular": verdict.unimodular,
        "reductive_in_g": verdict.reductive_in_g,
        "vai": verdict.vai,
        "symmetric_pair": verdict.symmetric_pair,
        "certificate": verdict.certificate,
        "trace_witness": verdict.trace_witness,
    }
    return _report("check", args, inputs, result), CHECK_EXIT[verdict.vai]


# ---------------------------------------------------------------------------
# witness


def cmd_witness(args) -> tuple[dict, int]:
    g, h, inputs = _load_pair(args)
    verdict = vai_verdict(g, h)
    if verdict.vai != VAI_FAILS:
        raise InputError(
            f"decay witnesses exist only when the verdict is '{VAI_FAILS}'; "
            f"this pair is '{verdict.vai}'")

    if args.parabolic is not None:
        inputs["parabolic"] = _input_entry(args.parabolic)
        fields = parse_parabolic(load_json(args.parabolic), g)
        parabolic = ParabolicData(g, fields["p0"], fields["l0"],
                                  fields["n0"], fields["nbar0"], fields["x"])
        try:
            witness = build_n1(g, h, parabolic)
        except GammaNotPositive as exc:
            result = {
                "type": "error",
                "error": "GammaNotPositive",
                "message": str(exc),
                "payload": exc.payload,
            }
            return _report("witness", args, inputs, result), 3
        bounded = bool(check_mt_bounded(witness))
        result = {
            "type": "decay-witness",
            "path": "parabolic",
            "algebra": g.name,
            "subalgebra": h.name,
            "gamma": witness.gamma,
            "x": parabolic.x,
            "p0": parabolic.p0,
            "l0": parabolic.l0,
            "n0": parabolic.n0,
            "nbar0": parabolic.nbar0,
            "n1": witness.n1,
            "l1": witness.l1,
            "v": witness.v,
            "mt_bounded": bounded,
            "assumptions": witness.assumptions,
        }
        return _report("witness", args, inputs, result), 0 if bounded else 3

    try:
        witness = unipotent_witness(g, h)
    except NotNilpotent:
        raise InputError(
            "subalgebra does not act nilpotently; supply --parabolic "
            "with a compatible p0 = l0 + n0 and grading element x") from None
    except NoNormalizer as exc:
        result = {
            "type": "error",
            "error": "NoNormalizer",
            "message": str(exc),
            "payload": None,
        }
        return _report("witness", args, inputs, result), 3
    result = {
        "type": "decay-witness",
        "path": "unipotent",
        "algebra": g.name,
        "subalgebra": h.name,
        "gamma": witness.gamma,
        "x": witness.x,
        "averaged": witness.averaged,
        "n1": witness.n1,
        "triple": None if witness.triple is None else {
            "x": witness.triple.x, "u": witness.triple.u, "v": witness.triple.v},
        "assumptions": witness.assumptions,
    }
    return _report("witness", args, inputs, result), 0


# ---------------------------------------------------------------------------
# estimate


def _parse_t_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError("--t-range must look like A:B:STEP")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"--t-range: {exc}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise InputError("--t-range values must be finite")
    if start == stop:
        return [start]
    if step == 0:
        raise InputError("--t-range step must be nonzero when A != B")
    if (stop - start) * step < 0:
        raise InputError("--t-range step never reaches B from A")
    steps = (stop - start) / step + 1e-9  # inf where B - A or the ratio overflows
    count = math.floor(steps) + 1 if math.isfinite(steps) else steps
    if count > MAX_GRID:
        raise InputError(f"--t-range has {count} points; limit is {MAX_GRID}")
    return [start + k * step for k in range(count)]


def _fit_prediction(space: str):
    """Certified exponent for a space model's standard curve.

    Returns (predicted, kind, catalog inputs, extra payload).  The
    decay-rate and symmetric-exponent kinds are two-sided targets for
    the measured slope; the lower-bound kind certifies no decay at
    all, so the slope check is one-sided and a minimum-volume check
    applies.
    """
    g = load_algebra_file(data_path("sl2.json"))
    inputs = {"exponent-algebra": _input_entry(data_path("sl2.json"))}
    if space in ("sl2-mod-n", "sl2-orbit-cone"):
        sub_path = data_path("sl2-n.json")
        sub = load_subalgebra_file(sub_path, g)
        witness = unipotent_witness(g, sub)
        inputs["exponent-subalgebra"] = _input_entry(sub_path)
        extra = {"averaged": witness.averaged}
        return witness.gamma, "decay-rate", inputs, extra
    if space == "spd2":
        sub_path = data_path("sl2-so2.json")
        sub = load_subalgebra_file(sub_path, g)
        raising = Subspace(g, [g.basis_vector(1)], name="u")
        exponent = predict_symmetric_exponent(g, sub, raising, g.basis_vector(0))
        inputs["exponent-subalgebra"] = _input_entry(sub_path)
        return exponent, "symmetric-exponent", inputs, {}
    if space == "sl2-orbit-hyperboloid":
        sub_path = data_path("sl2-so11.json")
        sub = load_subalgebra_file(sub_path, g)
        cartan = default_cartan(g)
        cert = predict_lower_bound(g, sub, cartan, vec([0, 1, 1]))
        inputs["exponent-subalgebra"] = _input_entry(sub_path)
        extra = {
            "cosh_exponent": cert.cosh_exponent,
            "eigenvalues": cert.eigenvalues,
        }
        return Fraction(0), "lower-bound", inputs, extra
    raise InputError(f"no certified exponent for space '{space}'")


def _min_volume_check(series) -> str:
    """PASS when every estimate stays above half the value nearest t=0."""
    near0 = min(range(len(series.t_values)),
                key=lambda i: abs(series.t_values[i]))
    reference = series.estimates[near0]
    smallest = min(series.estimates)
    ok = smallest > 0 and smallest >= 0.5 * reference
    return "PASS" if ok else "FAIL"


def cmd_estimate(args) -> tuple[dict, int]:
    # imported here: numpy is the estimator's cost, and check/witness never need it
    from .volume import get_model, volume_along_curve

    model = get_model(args.space)
    grid = _parse_t_range(args.t_range)
    if args.fit and len(grid) < 4:
        raise InputError("need >= 4 grid points for --fit")

    inputs: dict = {}
    prediction = None
    if args.fit:
        prediction = _fit_prediction(args.space)
        inputs.update(prediction[2])

    series = volume_along_curve(model, t_grid=grid, radius=args.radius,
                                samples=args.samples, seed=args.seed)
    if args.out is not None:
        with open(args.out, "w", newline="") as handle:
            handle.write(series.to_csv())

    result = {
        "type": "volume-series",
        "space": series.space,
        "radius": series.radius,
        "samples": series.samples,
        "seed": series.seed,
        "t_values": series.t_values,
        "estimates": series.estimates,
        "stderrs": series.stderrs,
        "slope": series.slope,
        "intercept": series.intercept,
        "slope_half_width": series.slope_half_width,
        "csv": None if args.out is None else str(args.out),
        "fit": None,
    }
    code = 0
    if args.fit:
        predicted, kind, _, extra = prediction
        target = float(predicted)
        slope = series.slope
        if slope is None:
            slope_ok = False
        elif kind == "lower-bound":
            slope_ok = slope >= target - FIT_TOLERANCE
        else:
            slope_ok = abs(slope - target) <= FIT_TOLERANCE
        fit = {
            "predicted": predicted,
            "kind": kind,
            "slope": slope,
            "tolerance": FIT_TOLERANCE,
        }
        fit.update(extra)
        ok = slope_ok
        if args.space in ("spd2", "sl2-orbit-hyperboloid"):
            check = _min_volume_check(series)
            fit["min_volume_check"] = check
            ok = ok and check == "PASS"
        fit["verdict"] = "MATCH" if ok else "MISMATCH"
        result["fit"] = fit
        code = 0 if ok else 1
    return _report("estimate", args, inputs, result), code


# ---------------------------------------------------------------------------
# driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaikit",
        description="exact vanishing-at-infinity certificates and "
                    "Monte Carlo volume checks")
    parser.add_argument("--version", action="version",
                        version=f"vaikit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    check = sub.add_parser(
        "check", help="decide the vanishing-at-infinity verdict for a pair")
    check.add_argument("--algebra", required=True, help="algebra JSON file")
    check.add_argument("--subalgebra", required=True,
                       help="subalgebra JSON file (basis in algebra coords)")
    check.add_argument("--theta", default=None,
                       help="involution JSON file (optional)")
    check.set_defaults(func=cmd_check)

    witness = sub.add_parser(
        "witness", help="build a volume-decay certificate (verdict fails)")
    witness.add_argument("--algebra", required=True)
    witness.add_argument("--subalgebra", required=True)
    witness.add_argument("--parabolic", default=None,
                         help="parabolic JSON file with p0/l0/n0/nbar0/x")
    witness.set_defaults(func=cmd_witness)

    estimate = sub.add_parser(
        "estimate", help="Monte Carlo ball volumes along a standard curve")
    estimate.add_argument("--space", required=True,
                          help="space model name (see error for the list)")
    estimate.add_argument("--t-range", required=True, dest="t_range",
                          help="inclusive grid A:B:STEP")
    estimate.add_argument("--radius", type=float, default=0.3)
    estimate.add_argument("--samples", type=int, default=100_000)
    estimate.add_argument("--seed", type=int, required=True)
    estimate.add_argument("--fit", action="store_true",
                          help="compare the log-slope to the certified "
                               "exponent")
    estimate.add_argument("--out", default=None, help="write the CSV here")
    estimate.set_defaults(func=cmd_estimate)
    return parser


def _fuse_t_range(argv: list[str]) -> list[str]:
    """Join '--t-range -4:0:0.5' into one token.

    A range starting at a negative value looks like an option flag to
    the parser; the fused '--t-range=A:B:STEP' form does not.
    """
    fused: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--t-range" and i + 1 < len(argv):
            fused.append(f"--t-range={argv[i + 1]}")
            i += 2
        else:
            fused.append(argv[i])
            i += 1
    return fused


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_fuse_t_range(list(argv)))
    args._argv = list(argv)
    try:
        report, code = args.func(args)
    except (VaikitError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # the top-level boundary: never let a traceback exit 1 (MISMATCH)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
