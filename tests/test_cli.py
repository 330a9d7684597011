"""End-to-end tests for the command line interface.

Most tests drive ``main()`` in process and parse the JSON report from
captured stdout; a few spawn real subprocesses to cover the console
entry point and byte-level determinism across thread counts.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

import builders
from vaikit.catalog import data_path, parse_algebra
from vaikit.cli import _parse_t_range, main
from vaikit.volume import get_model, volume_along_curve


def _pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def d(name):
    return str(data_path(name))


class TestCheck:
    @pytest.mark.parametrize("algebra,subalgebra,expected", [
        ("sl2.json", "sl2-so2.json", 0),
        ("sl2.json", "sl2-so11.json", 0),
        ("sl3.json", "sl3-so3.json", 0),
        ("sl2.json", "sl2-n.json", 3),
        ("sl3.json", "sl3-e12.json", 3),
        ("sl5.json", "sl5-nilpair.json", 3),
        ("sl2.json", "sl2-borel.json", 4),
    ])
    def test_exit_codes(self, capsys, algebra, subalgebra, expected):
        code, out, err = run_cli(
            capsys, "check", "--algebra", d(algebra),
            "--subalgebra", d(subalgebra))
        assert code == expected
        report = json.loads(out)
        vai = report["result"]["vai"]
        assert {0: "holds", 3: "fails", 4: "no-invariant-measure"}[code] == vai

    def test_report_shape(self, capsys):
        argv = ["check", "--algebra", d("sl2.json"),
                "--subalgebra", d("sl2-so2.json")]
        code, report = run_report(capsys, *argv)
        assert report["command"] == "check"
        assert report["argv"] == argv
        assert report["version"]
        for entry in report["inputs"].values():
            assert len(entry["sha256"]) == 64
            int(entry["sha256"], 16)
        result = report["result"]
        assert result["unimodular"] is True
        assert result["reductive_in_g"] is True
        assert result["symmetric_pair"] is True
        assert result["certificate"]["kind"] == "theta-stable"

    def test_input_hash_is_content_hash(self, capsys):
        path = d("sl2.json")
        _, report = run_report(capsys, "check", "--algebra", path,
                               "--subalgebra", d("sl2-so2.json"))
        with open(path, "rb") as handle:
            expected = hashlib.sha256(handle.read()).hexdigest()
        assert report["inputs"]["algebra"]["sha256"] == expected

    def test_hash_ignores_file_age(self, capsys, tmp_path):
        # rewriting identical bytes later must not move the hash
        source = open(d("sl2.json"), "rb").read()
        copy = tmp_path / "sl2-copy.json"
        copy.write_bytes(source)
        os.utime(copy, (0, 0))
        _, first = run_report(capsys, "check", "--algebra", str(copy),
                              "--subalgebra", d("sl2-so2.json"))
        os.utime(copy, None)
        _, second = run_report(capsys, "check", "--algebra", str(copy),
                               "--subalgebra", d("sl2-so2.json"))
        assert (first["inputs"]["algebra"]["sha256"]
                == second["inputs"]["algebra"]["sha256"])

    def test_explicit_theta(self, capsys):
        code, report = run_report(
            capsys, "check", "--algebra", d("sl2.json"),
            "--subalgebra", d("sl2-so2.json"),
            "--theta", d("theta-negative-transpose.json"))
        assert code == 0
        assert "theta" in report["inputs"]
        assert report["result"]["certificate"]["kind"] == "theta-stable"

    def test_symmetric_pair_without_theta_certificate(self, capsys, tmp_path):
        # span(E - 2F) is elliptic, conjugate to so(2) over R but not
        # stable under -X^T: symmetric, with no theta-stable certificate
        sub = tmp_path / "elliptic.json"
        sub.write_text(json.dumps({"name": "span(E-2F)", "basis": [["0", "1", "-2"]]}))
        code, report = run_report(capsys, "check", "--algebra", d("sl2.json"),
                                  "--subalgebra", str(sub))
        assert code == 0
        assert report["result"]["symmetric_pair"] is True
        assert report["result"]["certificate"] is None

    def test_missing_file_is_input_error(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "--algebra", "/nonexistent/g.json",
            "--subalgebra", d("sl2-so2.json"))
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, out, err = run_cli(capsys, "check", "--algebra", str(bad),
                                 "--subalgebra", d("sl2-so2.json"))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("payload,named", [
        (b"\xff\xfe{}", "not UTF-8"),
        (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
    ], ids=["not-utf8", "deep-nesting"])
    def test_unreadable_json_is_input_error(self, capsys, tmp_path, payload, named):
        bad = tmp_path / "bad.json"
        bad.write_bytes(payload)
        code, out, err = run_cli(capsys, "check", "--algebra", str(bad),
                                 "--subalgebra", d("sl2-so2.json"))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and named in err and err.count("\n") == 1

    @pytest.mark.parametrize("flag,source", [("--algebra", "sl2.json"),
                                             ("--subalgebra", "sl2-so2.json")])
    @pytest.mark.parametrize("name", [False, 7, None, ["a", ["b"]]])
    def test_non_string_name_is_input_error(self, capsys, tmp_path, flag, source, name):
        data = json.loads(data_path(source).read_text())
        data["name"] = name
        bad = tmp_path / source
        bad.write_text(json.dumps(data))
        files = {"--algebra": d("sl2.json"), "--subalgebra": d("sl2-so2.json"), flag: str(bad)}
        code, out, err = run_cli(capsys, "check", *(a for pair in files.items() for a in pair))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "'name'" in err and err.count("\n") == 1

    @pytest.mark.parametrize("flag,payload,named", [
        # ragged rows in an explicit involution matrix
        ("--theta", {"matrix": [["-1", "0", "0"], ["0", "0"],
                                ["0", "-1", "0"]]}, "matrix: rows"),
        # JSON booleans are not rationals, though Python counts them as ints
        ("--subalgebra", {"name": "b", "basis": [[True, False, False]]},
         "got bool"),
    ], ids=["ragged-theta", "bool-entry"])
    def test_bad_json_entries_are_input_errors(self, capsys, tmp_path,
                                               flag, payload, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        # a repeated --subalgebra overrides the first one
        code, out, err = run_cli(
            capsys, "check", "--algebra", d("sl2.json"),
            "--subalgebra", d("sl2-so2.json"), flag, str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and named in err
        assert err.count("\n") == 1

    # read character by character, a string tensor was the 1-dimensional
    # abelian algebra and an empty one the 0-dimensional algebra
    @pytest.mark.parametrize("sc,named", [
        ("0", ".sc: expected a non-empty list of matrices"),
        (["0"], ".sc[0]: expected a matrix"),
        ([], ".sc: expected a non-empty list of matrices"),
    ], ids=["string", "string-plane", "empty"])
    def test_malformed_structure_tensor_is_input_error(self, capsys, tmp_path, sc, named):
        algebra, line = tmp_path / "algebra.json", tmp_path / "line.json"
        algebra.write_text(json.dumps({"name": "x", "sc": sc}))
        line.write_text(json.dumps({"name": "line", "basis": [["1"]]}))
        code, out, err = run_cli(capsys, "check", "--algebra", str(algebra),
                                 "--subalgebra", str(line))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {algebra}{named}") and err.count("\n") == 1

    def test_underscore_literal_is_input_error(self, capsys, tmp_path):
        # Fraction reads "1_0" as 10, which made this the line of H
        sub = tmp_path / "sub.json"
        sub.write_text(json.dumps({"name": "h", "basis": [["1_0", "0", "0"]]}))
        code, out, err = run_cli(capsys, "check", "--algebra", d("sl2.json"),
                                 "--subalgebra", str(sub))
        assert (code, out) == (2, "")
        assert err == "error: bad rational literal '1_0': underscores are not allowed\n"

    # Fraction would compute 10**exponent: "1e999999999" builds a 415 MB integer
    @pytest.mark.parametrize("literal, message", [
        ("1e1001", "bad rational literal '1e1001': decimal exponent beyond +-1000"),
        ("1.5E-1001", "bad rational literal '1.5E-1001': decimal exponent beyond +-1000"),
        ("1" * 1001, "rational literal of 1001 characters; limit is 1000")],
        ids=["exponent", "negative-exponent", "length"])
    def test_oversized_literal_is_input_error(self, capsys, tmp_path, literal, message):
        sub = tmp_path / "sub.json"
        sub.write_text(json.dumps({"name": "h", "basis": [[literal, "0", "0"]]}))
        code, out, err = run_cli(capsys, "check", "--algebra", d("sl2.json"),
                                 "--subalgebra", str(sub))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_report_roundtrips(self, capsys):
        _, out, _ = run_cli(capsys, "check", "--algebra", d("sl2.json"),
                            "--subalgebra", d("sl2-n.json"))
        report = json.loads(out)
        assert json.loads(json.dumps(report, indent=2)) == report
        # rational strings parse back exactly
        cert = report["result"]["certificate"]
        for row in cert["element"] if "element" in cert else []:
            Fraction(row)


class TestWitness:
    def test_nilpotent_line_auto_path(self, capsys):
        code, report = run_report(
            capsys, "witness", "--algebra", d("sl2.json"),
            "--subalgebra", d("sl2-n.json"))
        assert code == 0
        result = report["result"]
        assert result["path"] == "unipotent"
        assert result["gamma"] == "2"
        assert result["averaged"] is False
        triple = result["triple"]
        for key in ("x", "u", "v"):
            assert len(triple[key]) == 3
            for entry in triple[key]:
                Fraction(entry)

    def test_parabolic_path(self, capsys):
        code, report = run_report(
            capsys, "witness", "--algebra", d("sl3.json"),
            "--subalgebra", d("sl3-e12.json"),
            "--parabolic", d("sl3-flag-parabolic.json"))
        assert code == 0
        result = report["result"]
        assert result["path"] == "parabolic"
        assert result["gamma"] == "3"
        assert result["mt_bounded"] is True
        assert len(result["n1"]) == 1
        assert result["n1"][0] == ["0", "0", "0", "1", "0", "0", "0", "0"]
        assert len(result["l1"]) + len(result["n1"]) + 1 == len(result["p0"])

    def test_parabolic_path_with_decaying_head(self, capsys, tmp_path):
        # sl3 Borel parabolic, h = span(-E12 + 3E13 - E23): the conjugated
        # projection falls from norm 3.32 at t = 0 to sqrt(2) and stays
        sub = tmp_path / "sub.json"
        sub.write_text(json.dumps({
            "name": "span(-E12 + 3E13 - E23)",
            "basis": [["0", "0", "-1", "3", "-1", "0", "0", "0"]]}))
        unit = [["1" if i == j else "0" for i in range(8)] for j in range(8)]
        borel = tmp_path / "borel.json"
        borel.write_text(json.dumps({
            "p0": unit[:5], "l0": unit[:2], "n0": unit[2:5], "nbar0": unit[5:],
            "x": ["1", "1", "0", "0", "0", "0", "0", "0"]}))
        code, report = run_report(
            capsys, "witness", "--algebra", d("sl3.json"),
            "--subalgebra", str(sub), "--parabolic", str(borel))
        assert code == 0
        assert report["result"]["gamma"] == "1"
        assert report["result"]["mt_bounded"] is True

    def test_averaged_certificate(self, capsys):
        code, report = run_report(
            capsys, "witness", "--algebra", d("sl5.json"),
            "--subalgebra", d("sl5-nilpair.json"))
        assert code == 0
        result = report["result"]
        assert result["path"] == "unipotent"
        assert result["averaged"] is True
        assert result["gamma"] == "2"
        assert len(result["n1"]) == 1

    @pytest.mark.parametrize("length", [7, 9])
    def test_parabolic_x_of_wrong_length(self, capsys, tmp_path, length):
        fields = json.loads(data_path("sl3-flag-parabolic.json").read_text())
        fields["x"] = (fields["x"] + ["0"])[:length]
        bad = tmp_path / "parabolic.json"
        bad.write_text(json.dumps(fields))
        code, out, err = run_cli(
            capsys, "witness", "--algebra", d("sl3.json"),
            "--subalgebra", d("sl3-e12.json"), "--parabolic", str(bad))
        assert code == 2
        assert out == ""
        assert err == f"error: x has {length} entries, the algebra has dimension 8\n"

    def test_requires_fails_verdict(self, capsys):
        code, out, err = run_cli(
            capsys, "witness", "--algebra", d("sl2.json"),
            "--subalgebra", d("sl2-so2.json"))
        assert code == 2
        assert "holds" in err

    def test_borel_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "witness", "--algebra", d("sl2.json"),
            "--subalgebra", d("sl2-borel.json"))
        assert code == 2
        assert "no-invariant-measure" in err

    def test_non_nilpotent_needs_parabolic(self, capsys, tmp_path):
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps({
            "name": "span(E12, diag(1,1,-2))",
            "basis": [
                ["0", "0", "1", "0", "0", "0", "0", "0"],
                ["1", "2", "0", "0", "0", "0", "0", "0"],
            ],
        }))
        code, out, err = run_cli(
            capsys, "witness", "--algebra", d("sl3.json"),
            "--subalgebra", str(mixed))
        assert code == 2
        assert "--parabolic" in err


class TestEstimate:
    def test_plane_fit_matches(self, capsys, tmp_path):
        out_csv = tmp_path / "series.csv"
        code, report = run_report(
            capsys, "estimate", "--space", "sl2-mod-n",
            "--t-range", "-2:0:0.5", "--radius", "0.3",
            "--samples", "5000", "--seed", "7", "--fit",
            "--out", str(out_csv))
        assert code == 0
        fit = report["result"]["fit"]
        assert fit["predicted"] == "2"
        assert fit["kind"] == "decay-rate"
        assert fit["verdict"] == "MATCH"
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "t,estimate,stderr,samples,seed"
        assert len(lines) == 6

    def test_report_floats_equal_library_values(self, capsys):
        _, report = run_report(
            capsys, "estimate", "--space", "sl2-mod-n",
            "--t-range", "-1:0:0.5", "--radius", "0.3",
            "--samples", "2000", "--seed", "11")
        series = volume_along_curve(
            get_model("sl2-mod-n"), t_grid=[-1.0, -0.5, 0.0],
            radius=0.3, samples=2000, seed=11)
        assert report["result"]["estimates"] == list(series.estimates)
        assert report["result"]["stderrs"] == list(series.stderrs)

    def test_spd2_fit_has_min_volume_check(self, capsys):
        code, report = run_report(
            capsys, "estimate", "--space", "spd2",
            "--t-range", "0:1.5:0.5", "--radius", "0.3",
            "--samples", "5000", "--seed", "3", "--fit")
        assert code == 0
        fit = report["result"]["fit"]
        assert fit["kind"] == "symmetric-exponent"
        assert fit["predicted"] == "2"
        assert fit["min_volume_check"] == "PASS"

    def test_hyperboloid_fit_is_lower_bound(self, capsys):
        code, report = run_report(
            capsys, "estimate", "--space", "sl2-orbit-hyperboloid",
            "--t-range", "0:1.5:0.5", "--radius", "0.3",
            "--samples", "5000", "--seed", "3", "--fit")
        assert code == 0
        fit = report["result"]["fit"]
        assert fit["kind"] == "lower-bound"
        assert fit["predicted"] == "0"
        assert fit["cosh_exponent"] == "2"
        assert fit["min_volume_check"] == "PASS"

    def test_fit_mismatch_exits_one(self, capsys, monkeypatch):
        import vaikit.volume as volume_mod
        real = volume_mod.volume_along_curve

        def skewed(model, t_grid=(), **kw):
            series = real(model, t_grid=t_grid, **kw)
            series.slope = 5.0
            return series

        monkeypatch.setattr(volume_mod, "volume_along_curve", skewed)
        code, report = run_report(
            capsys, "estimate", "--space", "sl2-mod-n",
            "--t-range", "-2:0:0.5", "--radius", "0.3",
            "--samples", "2000", "--seed", "5", "--fit")
        assert code == 1
        assert report["result"]["fit"]["verdict"] == "MISMATCH"

    def test_degenerate_grid_rejected_for_fit(self, capsys):
        code, out, err = run_cli(
            capsys, "estimate", "--space", "sl2-mod-n",
            "--t-range", "0:0:1", "--radius", "0.3",
            "--samples", "2000", "--seed", "1", "--fit")
        assert code == 2
        assert "4 grid points" in err

    def test_single_point_without_fit_is_fine(self, capsys):
        code, report = run_report(
            capsys, "estimate", "--space", "sl2-mod-n",
            "--t-range", "0:0:1", "--radius", "0.3",
            "--samples", "2000", "--seed", "1")
        assert code == 0
        assert len(report["result"]["estimates"]) == 1
        assert report["result"]["slope"] is None
        assert report["result"]["fit"] is None

    # the last two overflow a float in B - A or in the point count
    @pytest.mark.parametrize("t_range", ["1:2", "a:b:c", "0:1:0", "0:1:-1",
                                         "0:1e308:1e-300", "-1e308:1e308:1e300"])
    def test_malformed_t_range(self, capsys, t_range):
        code, out, err = run_cli(
            capsys, "estimate", "--space", "sl2-mod-n",
            f"--t-range={t_range}", "--radius", "0.3",
            "--samples", "2000", "--seed", "1")
        assert code == 2
        assert "error:" in err

    # each model's chart box holds the ball images only inside its radius domain
    @pytest.mark.parametrize("space,radius,domain", [
        ("spd2", "1.5", "r < 1"), ("spd2", "1", "r < 1"),
        ("sl2-orbit-hyperboloid", "1.5", "r <= 1.2"),
        ("sl2-orbit-cone", "0.9", "r <= 0.5")])
    def test_malformed_radius_outside_the_domain(self, capsys, space, radius, domain):
        code, out, err = run_cli(
            capsys, "estimate", "--space", space, "--t-range", "0:1:0.5",
            "--radius", radius, "--samples", "2000", "--seed", "1")
        assert (code, out) == (2, "")
        assert err == (f"error: {space}: radius {radius} is outside the model's "
                       f"radius domain {domain}\n")

    # the second count's batch list alone does not fit in memory
    @pytest.mark.parametrize("samples", ["100000001", "99999999999999999999"])
    def test_samples_over_the_limit(self, capsys, samples):
        code, out, err = run_cli(
            capsys, "estimate", "--space", "sl2-mod-n", "--t-range", "0:1:0.5",
            "--radius", "0.3", "--samples", samples, "--seed", "1")
        assert (code, out) == (2, "")
        assert err == f"error: need at most 100000000 samples, got {samples}\n"

    def test_unknown_space(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--space", "so-what",
            "--t-range", "0:1:0.25", "--radius", "0.3",
            "--samples", "2000", "--seed", "1")
        assert code == 2
        assert "sl2-mod-n" in err

    def test_bad_radius_and_samples(self, capsys):
        plane = ("sl2-mod-n", "0:1:0.25")
        for (space, t_range), radius, samples, seed, named in [
                (plane, "-1", "2000", "1", "radius"),
                (plane, "nan", "2000", "1", "radius"),
                (plane, "inf", "2000", "1", "radius"),
                (plane, "0.3", "10", "1", "samples"),
                (plane, "0.3", "2000", "-1", "seed"),
                # far out on the curve the float models give up cleanly
                (("spd2", "100:101:1"), "0.3", "2000", "1",
                 "spd2: the base point is outside the model's float range"),
                # past t = 8.35, the range its decisions are checked on, the
                # hyperboloid refuses the point
                (("sl2-orbit-hyperboloid", "100:101:1"), "0.3", "2000", "1",
                 "sl2-orbit-hyperboloid: the point is outside the model's "
                 "float range"),
                (("sl2-orbit-hyperboloid", "10:11:1"), "0.3", "2000", "1",
                 "sl2-orbit-hyperboloid: the point is outside the model's "
                 "float range"),
                (("sl2-orbit-hyperboloid", "19:20:1"), "0.3", "2000", "1",
                 "sl2-orbit-hyperboloid: the point is outside the model's "
                 "float range"),
                # past t = 355 the curve itself overflows
                (("spd2", "400:401:1"), "0.3", "2000", "1",
                 "spd2: t = 400 is outside the model's float range"),
                (("sl2-orbit-cone", "400:401:1"), "0.3", "2000", "1",
                 "sl2-orbit-cone: t = 400 is outside the model's float range"),
                (("sl2-orbit-hyperboloid", "400:401:1"), "0.3", "2000", "1",
                 "sl2-orbit-hyperboloid: t = 400 is outside"),
                (("sl2-mod-n", "710:711:1"), "0.3", "2000", "1",
                 "sl2-mod-n: t = 710 is outside"),
                # past |z| = 1e38 / (1 + 4 r), or below 1e-38, the plane and
                # the cone refuse the point: there every sample read as a miss
                (("sl2-mod-n", "400:401:1"), "0.3", "2000", "1",
                 "sl2-mod-n: the point is outside the model's float range"),
                (("sl2-mod-n", "200:201:1"), "0.3", "2000", "1",
                 "sl2-mod-n: the point is outside the model's float range"),
                (("sl2-mod-n", "-201:-200:1"), "0.3", "2000", "1",
                 "sl2-mod-n: the point is outside the model's float range"),
                (("sl2-orbit-cone", "200:201:1"), "0.3", "2000", "1",
                 "sl2-orbit-cone: the point is outside the model's float range"),
                (("sl2-orbit-cone", "-201:-200:1"), "0.3", "2000", "1",
                 "sl2-orbit-cone: the point is outside the model's float range")]:
            # a numpy warning would turn into an exception and exit 5
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(
                    capsys, "estimate", "--space", space,
                    "--t-range", t_range, "--radius", radius,
                    "--samples", samples, "--seed", seed)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and named in err
            assert err.count("\n") == 1

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["estimate", "--space", "sl2-mod-n",
                  "--t-range", "0:1:0.25", "--radius", "0.3",
                  "--samples", "2000"])
        assert info.value.code == 2

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        argv = ["estimate", "--space", "sl2-mod-n",
                "--t-range", "-1:0:0.25", "--radius", "0.3",
                "--samples", "3000", "--seed", "9"]
        first = run_cli(capsys, *argv, "--out", str(tmp_path / "a.csv"))
        second = run_cli(capsys, *argv, "--out", str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == \
               (tmp_path / "b.csv").read_bytes()
        # stdout reports agree except for the csv path echo
        first_rep = json.loads(first[1])
        second_rep = json.loads(second[1])
        first_rep["result"]["csv"] = second_rep["result"]["csv"] = None
        first_rep["argv"] = second_rep["argv"] = None
        assert first_rep == second_rep


def test_unexpected_error_exits_five(capsys, monkeypatch):
    import vaikit.cli as cli_mod

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_mod, "cmd_check", broken)
    code, out, err = run_cli(capsys, "check", "--algebra", d("sl2.json"),
                             "--subalgebra", d("sl2-so2.json"))
    assert code == 5
    assert out == ""
    assert err == "error: RuntimeError: boom\n"


# sha256 of each catalog report's canonical ``result`` payload; reports
# must stay byte-identical across refactors of the exact layer
GOLDEN_RESULTS = {
    "check sl2 sl2-so2": "fd228759a9a365b38bbec0fd5ed4a3ad618b90bff911fb65bc8374e24887f9ba",
    "check sl2 sl2-so11": "824615814acc5d362ef462e1d8701d5198b84fa31dfd69dff477bdbe79d9583b",
    "check sl2 sl2-n": "e54ba20900654a237865e29dd89dd7a48e68b1885475d7763041393557f75e8f",
    "check sl2 sl2-borel": "3d31ed7704ec8d714462bc7ba19319bdac8dab27cb3082dcb0c83adb1cabe8ed",
    "check sl3 sl3-so3": "68c15084884be17884fa910c405424860e6bed747e34133078e1e7e8833db723",
    "check sl3 sl3-e12": "d3e982ef65cc13909cf9d1096633f5168f71de1e88518db27e71b5c459a4e066",
    "check sl5 sl5-nilpair": "554feecb90e214061b90c2102df1b8e2cb42040a25dd0128944db966e7bb7da0",
    "check sl3 sl3-so3 --theta theta-negative-transpose": "68c15084884be17884fa910c405424860e6bed747e34133078e1e7e8833db723",
    "witness sl2 sl2-n": "90ad7ef969c88600b8e6f35cd5827cef78e18f42ff74fecbd7f2261291b2ee8b",
    "witness sl2 sl2-n --parabolic sl2-borel-parabolic": "4a9a37486f8f02a3d157c651e40ebadfe1580b8864ac3a246892e3ab442a0502",
    "witness sl3 sl3-e12": "c2404c497007f8a038933f911a35186843f5bcfdf68b595e26995e7c20a06695",
    "witness sl3 sl3-e12 --parabolic sl3-flag-parabolic": "112908d3aa45c92bc0dd17c3ec233f2c2cb1680be4fac0fe00591bd03da0d3f3",
    "witness sl5 sl5-nilpair": "647b203547d3e26f7d7571eaab485933d2707a7312b88188e08740733889be1a",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_RESULTS))
def test_golden_report(capsys, command):
    kind, algebra, subalgebra, *option = command.split()
    argv = [kind, "--algebra", d(f"{algebra}.json"),
            "--subalgebra", d(f"{subalgebra}.json")]
    if option:
        argv += [option[0], d(f"{option[1]}.json")]
    _, report = run_report(capsys, *argv)
    canonical = json.dumps(report["result"], sort_keys=True,
                           separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    assert digest == GOLDEN_RESULTS[command]


# sl2 given by ``sc`` in the basis H, E, F/2, so [E, F/2] = H/2 puts
# constants +-1/2 in the tensor; the catalog realizations are all integral
SL2_HALF_SC = [
    [["0", "0", "0"], ["0", "2", "0"], ["0", "0", "-2"]],
    [["0", "-2", "0"], ["0", "0", "0"], ["1/2", "0", "0"]],
    [["0", "0", "2"], ["-1/2", "0", "0"], ["0", "0", "0"]],
]

# (argv after the algebra, exit code, sha256 of the canonical ``result``);
# span(H) is so(1,1), a symmetric pair the Killing form finds without an
# involution (``sc`` gives no realization, so no theta certificate)
GOLDEN_HALF = {
    "check span(H)": (
        ["check", "--subalgebra", "h.json"], 0,
        "2daa14f29598af56f50da571e86e9e3528cee39b3190187ca0f6b5e940cdce6a"),
    "check span(E)": (
        ["check", "--subalgebra", "e.json"], 3,
        "e54ba20900654a237865e29dd89dd7a48e68b1885475d7763041393557f75e8f"),
    "witness span(E)": (
        ["witness", "--subalgebra", "e.json"], 0,
        "8cae0df2e50f1a74ad91923a9d4fe0463a7768f73a02a4b8b481ce16c3de7e30"),
    "witness span(E) --parabolic": (
        ["witness", "--subalgebra", "e.json", "--parabolic", "borel.json"], 0,
        "4a9a37486f8f02a3d157c651e40ebadfe1580b8864ac3a246892e3ab442a0502"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_HALF))
def test_golden_report_non_integral_constants(capsys, tmp_path, case):
    files = {
        "sl2-half.json": {"name": "sl2", "dim": 3, "sc": SL2_HALF_SC},
        "h.json": {"name": "span(H)", "basis": [["1", "0", "0"]]},
        "e.json": {"name": "span(E)", "basis": [["0", "1", "0"]]},
        "borel.json": {"p0": [["1", "0", "0"], ["0", "1", "0"]],
                       "l0": [["1", "0", "0"]], "n0": [["0", "1", "0"]],
                       "nbar0": [["0", "0", "1"]], "x": ["1", "0", "0"]},
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    argv, expected_code, expected_digest = GOLDEN_HALF[case]
    argv = [a if not a.endswith(".json") else str(tmp_path / a) for a in argv]
    code, report = run_report(capsys, argv[0], "--algebra",
                              str(tmp_path / "sl2-half.json"), *argv[1:])
    assert code == expected_code
    if case == "check span(H)":
        assert report["result"]["symmetric_pair"] is True
        assert report["result"]["certificate"] is None
    canonical = json.dumps(report["result"], sort_keys=True,
                           separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == expected_digest


@pytest.mark.parametrize("x,gamma", [
    ("1000000000000", "2000000000000"),  # ad x has char poly l^3 - 4 10^24 l
    ("1000000000039", "2000000000078"),  # a prime grading entry
    # a product of two Mersenne primes, and 10^40 + 1: large prime factors
    (str((2 ** 61 - 1) * (2 ** 89 - 1)), str(2 * (2 ** 61 - 1) * (2 ** 89 - 1))),
    (str(10 ** 40 + 1), str(2 * (10 ** 40 + 1))),
])
def test_parabolic_with_large_grading_element(capsys, tmp_path, x, gamma):
    fields = json.loads(data_path("sl2-borel-parabolic.json").read_text())
    fields["x"] = [x, "0", "0"]
    path = tmp_path / "parabolic.json"
    path.write_text(json.dumps(fields))
    code, report = run_report(
        capsys, "witness", "--algebra", d("sl2.json"),
        "--subalgebra", d("sl2-n.json"), "--parabolic", str(path))
    assert code == 0
    assert report["result"]["gamma"] == gamma


class TestTRangeParsing:
    def test_negative_start(self):
        grid = _parse_t_range("-4:0:0.5")
        assert len(grid) == 9
        assert grid[0] == -4.0
        assert grid[-1] == 0.0

    def test_single_point(self):
        assert _parse_t_range("0:0:1") == [0.0]

    def test_descending(self):
        grid = _parse_t_range("0:-2:-1")
        assert grid == [0.0, -1.0, -2.0]


class TestConsoleEntryPoint:
    def test_subprocess_check(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "vaikit.cli", "check",
             "--algebra", d("sl2.json"), "--subalgebra", d("sl2-n.json")],
            capture_output=True, text=True)
        assert proc.returncode == 3
        report = json.loads(proc.stdout)
        assert report["result"]["vai"] == "fails"

    def test_check_never_loads_numpy(self):
        script = (
            "import contextlib, io, sys\n"
            "import vaikit.cli\n"
            "assert 'numpy' not in sys.modules, 'import vaikit.cli'\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = vaikit.cli.main(['check', '--algebra', {d('sl5.json')!r},\n"
            f"                            '--subalgebra', {d('sl5-nilpair.json')!r}])\n"
            "assert code == 3\n"
            "assert 'numpy' not in sys.modules, 'check sl5'\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = vaikit.cli.main(['witness', '--algebra', {d('sl3.json')!r},\n"
            f"                            '--subalgebra', {d('sl3-e12.json')!r},\n"
            f"                            '--parabolic', {d('sl3-flag-parabolic.json')!r}])\n"
            "assert code == 0\n"
            "assert 'numpy' not in sys.modules, 'witness --parabolic sl3'\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    # two batches per grid point, so the workers share one model; the
    # child runs once pinned to one CPU (one worker) and once unpinned
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    @pytest.mark.parametrize("space", ["spd2", "sl2-orbit-hyperboloid"])
    def test_thread_env_does_not_change_bytes(self, tmp_path, space):
        outputs = []
        for pinned in (True, False):
            csv_path = tmp_path / f"pinned-{pinned}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "vaikit.cli", "estimate",
                 "--space", space, "--t-range", "0:1:0.25",
                 "--radius", "0.3", "--samples", "20000", "--seed", "2",
                 "--out", str(csv_path)],
                capture_output=True, text=True, preexec_fn=_pin_to_one_cpu if pinned else None)
            assert proc.returncode == 0
            outputs.append((csv_path.read_bytes(), json.loads(proc.stdout)))
        assert outputs[0][0] == outputs[1][0]
        # reports agree except for the differing --out path echo
        for report in (outputs[0][1], outputs[1][1]):
            report["result"]["csv"] = None
            report["argv"] = None
        assert outputs[0][1] == outputs[1][1]


# the CLI contract under malformed input: every run prints one report and
# exits 0/3/4, or prints one stderr line and exits 2; none reaches exit 5.
# A huge exponent in a matrix entry and an algebra rewritten in "sc" form
# with a broken shape always exit 2
MUTATIONS = ("drop-key", "bool", "nested-list", "non-rational", "huge-integer",
             "truncated", "swapped", "name", "scalar", "huge-exponent", "sc-shape")
ALWAYS_REFUSED = {"huge-exponent", "sc-shape"}


def _json_slots(node):
    """(container, key, value) for every value below the root of a JSON tree."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield node, key, child
        yield from _json_slots(child)


def _broken_sc(rng, text):
    """The algebra of `text` written with its structure tensor "sc", in a
    shape that is not dim x dim x dim lists."""
    alg = parse_algebra(json.loads(text))
    data = builders.algebra_to_dict(type(alg)(alg.sc, name=alg.name))
    sc = data["sc"]
    i, j = rng.randrange(len(sc)), rng.randrange(len(sc[0]))
    kind = rng.randrange(6)
    if kind == 0:
        del sc[i]
    elif kind == 1:
        del sc[i][j]
    elif kind == 2:
        del sc[i][j][rng.randrange(len(sc[i][j]))]
    elif kind == 3:
        sc[i] = sc[i][j]  # a plane that is one row
    elif kind == 4:
        sc[i][j] = [sc[i][j]]  # a row one level deeper
    else:
        data["sc"] = rng.choice((sc[i], sc[i][j], sc[i][j][0], {}, []))
    return json.dumps(data)


def _mutated_text(rng, kind, text, catalog_files):
    if kind == "truncated":
        return text[:rng.randrange(len(text))]
    if kind == "swapped":
        return data_path(rng.choice(catalog_files)).read_text()
    if kind == "sc-shape":
        return _broken_sc(rng, text)
    data = json.loads(text)
    if kind == "name":
        data["name"] = rng.choice((False, 7, None, ["a", ["b"]]))
        return json.dumps(data)
    container, key = rng.choice([
        (c, k) for c, k, v in _json_slots(data)
        if (isinstance(c, dict) if kind == "drop-key" else
            isinstance(v, list) if kind == "scalar" else
            isinstance(c, list) and not isinstance(v, list) if kind == "huge-exponent" else
            not isinstance(v, (dict, list)))])
    if kind == "drop-key":
        del container[key]
    else:
        leaf = container[key]
        container[key] = {
            "bool": rng.choice((True, False)),
            "nested-list": [leaf, [leaf]],
            "non-rational": rng.choice(("x", "1/0", "nan", "", "1.5e", "0x10", "1//2")),
            "huge-integer": rng.choice((str(10 ** 40 + 1), "-" + "9" * 60, "1" + "0" * 5000,
                                        10 ** 30, "1e400")),
            "huge-exponent": rng.choice(("1e1001", "-1e-99999", "1.5E+100000")),
            "scalar": 5,
        }[kind]
    return json.dumps(data)


def test_mutated_catalog_inputs_keep_the_exit_contract(capsys, tmp_path):
    rng = random.Random(2024)
    commands = [c.split() for c in sorted(GOLDEN_RESULTS) if "sl5" not in c]
    catalog_files = sorted({f"{name}.json" for c in commands for name in c[1:] if name[0] != "-"})
    outcomes = {}
    for run in range(300):
        kind, algebra, subalgebra, *option = rng.choice(commands)
        files = {"--algebra": f"{algebra}.json", "--subalgebra": f"{subalgebra}.json"}
        if option:
            files[option[0]] = f"{option[1]}.json"
        mutation = MUTATIONS[run % len(MUTATIONS)]
        # scalar and huge-exponent mutate a list, which the theta file has none of
        needs_list = mutation in ("scalar", "huge-exponent")
        flag = "--algebra" if mutation == "sc-shape" else rng.choice(
            [f for f in sorted(files) if not needs_list or "[" in data_path(files[f]).read_text()])
        target = tmp_path / f"{run}.json"
        target.write_text(_mutated_text(rng, mutation, data_path(files[flag]).read_text(),
                                        catalog_files))
        argv = [kind] + [a for f, name in files.items()
                         for a in (f, str(target) if f == flag else d(name))]
        code, out, err = run_cli(capsys, *argv)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.endswith("\n"), argv
            assert err.count("\n") == 1, argv
        else:
            assert code in (0, 3, 4) and err == "", (argv, err)
            assert json.loads(out)["command"] == kind
        assert code == 2 or mutation not in ALWAYS_REFUSED, argv
        outcomes[mutation, code] = outcomes.get((mutation, code), 0) + 1
    assert {m for m, code in outcomes if code == 2} == set(MUTATIONS)
    assert sum(n for (_, code), n in outcomes.items() if code != 2) > 30
