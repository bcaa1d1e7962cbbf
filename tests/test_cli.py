import argparse
import ast
import csv
import inspect
import json
import math
import re
import shlex
import textwrap
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from starsections.bodies import (
    FORMAT_VERSION,
    ArcsBase,
    GridProfile,
    StarBody,
    body_from_json_dict,
    cap_base,
    make_bumpy_ball,
    make_cone,
    make_ball,
    make_ellipsoid,
    make_lune,
    make_perturbed_ball,
    make_symmetric_polygon_body,
)
from starsections import cli, spaces
from starsections.cli import build_parser, main
from starsections.functionals import busemann_functional_with_error
from starsections.quadrature import build_sphere_rule
from starsections.spaces import SpaceSpec
from starsections.verify import perturbation_sign_experiment, run_theorem_suite, suite_bodies


@pytest.fixture(scope="module")
def schema():
    path = resources.files("starsections") / "schemas" / "report.schema.json"
    return json.loads(path.read_text())


def run_cli(*argv):
    return main(list(argv))


NAN = float("nan")
_CAP_CONE = make_cone(SpaceSpec(1, 3), cap_base(np.eye(3)[0], 0.3))


def _arcs_cone_document(arcs):
    """The document of a cone over arcs of the circle, with its arcs replaced."""
    doc = make_cone(SpaceSpec(1, 2), ArcsBase(((0.0, 3.0),))).to_json_dict()
    doc["profile"]["base"]["arcs"] = arcs
    return doc


class TestFunctionalCommand:
    def test_hemisphere_ball(self, tmp_path, schema, capsys):
        out = tmp_path / "report.json"
        code = run_cli("functional", "--space", "s+:2", "--body", "ball:r=0.7",
                       "--sections", "3", "--out", str(out))
        assert code == 0
        printed = capsys.readouterr().out
        assert "functional" in printed
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, schema)
        assert doc["volume"] == pytest.approx(2 * math.pi * (1 - math.cos(0.7)), rel=1e-10)
        assert doc["functional"] == pytest.approx(8 * math.pi * 0.49, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_section_directions_are_nodes_of_the_degree_11_rule(self, n, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("functional", "--space", f"s+:{n}", "--body", "ball:r=0.5",
                       "--sections", "5", "--out", str(out)) == 0
        nodes = build_sphere_rule(n - 1, 11).nodes
        idx = np.linspace(0, len(nodes) - 1, 5).astype(int)
        directions = np.array([row["direction"] for row in json.loads(out.read_text())["sections"]])
        assert directions.tobytes() == nodes[idx].tobytes()

    def test_sections_past_the_rule_cap(self, tmp_path, capsys):
        # the rule on S^9 would need 20,155,392 nodes: the command built all of
        # it to read three, and exited 3 past the cap
        out = tmp_path / "report.json"
        assert run_cli("functional", "--space", "s+:10", "--body", "ball:r=0.5",
                       "--sections", "3", "--out", str(out)) == 0
        sections = json.loads(out.read_text())["sections"]
        assert len(sections) == 3
        assert all(np.linalg.norm(row["direction"]) == pytest.approx(1.0, abs=1e-14) for row in sections)
        assert capsys.readouterr().out.count("] -> ") == 3

    def test_sections_past_the_cap_are_refused_before_any_is_built(self, capsys, monkeypatch):
        # 10^9 sections on s+:9 printed 126,663 of 3,359,232 in 10 s; on s+:12
        # their index would have been 725,594,112 floats
        def fail(*args, **kwargs):
            raise AssertionError("built before the refusal")

        for name in ("section_volume", "sphere_rule_node", "rule_size", "volume", "parse_body"):
            monkeypatch.setattr(cli, name, fail)
        monkeypatch.setattr(cli.np, "linspace", fail)
        assert run_cli("functional", "--space", "s+:12", "--body", "ball:r=0.5",
                       "--sections", "1000000000") == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == f"error: --sections: at most {cli.SECTIONS_CAP} sections, got 1000000000\n"

    def test_sections_at_the_cap_run(self, capsys):
        # the degree-11 rule on S^1 has 12 nodes, so the cap's request prints 12
        assert run_cli("functional", "--space", "s+:2", "--body", "ball:r=0.5",
                       "--sections", str(cli.SECTIONS_CAP)) == 0
        assert capsys.readouterr().out.count("] -> ") == 12
        assert run_cli("functional", "--space", "s+:2", "--body", "ball:r=0.5",
                       "--sections", str(cli.SECTIONS_CAP + 1)) == 2

    def test_hyperbolic_ball_matches_radial_primitive(self, tmp_path, schema):
        out = tmp_path / "report.json"
        code = run_cli("functional", "--space", "h:3", "--body", "ball:r=1", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, schema)
        from starsections.spaces import SpaceSpec, phi

        expected = 4 * math.pi * phi(SpaceSpec(-1, 3), 3, 1.0)
        assert doc["volume"] == pytest.approx(expected, rel=1e-10)

    def test_malformed_body(self, capsys):
        assert run_cli("functional", "--space", "s+:2", "--body", "ball:r=x") == 2
        assert "--body" in capsys.readouterr().err

    def test_unknown_kind(self, capsys):
        assert run_cli("functional", "--space", "s+:2", "--body", "noodle:x=1") == 2

    def test_missing_parameter_named(self, capsys):
        assert run_cli("functional", "--space", "s+:2", "--body", "ball:x=1") == 2
        assert "r" in capsys.readouterr().err

    def test_body_file_roundtrip(self, tmp_path, schema):
        dumped = tmp_path / "body.json"
        assert run_cli("functional", "--space", "s+:2", "--body", "lune:w=0.3",
                       "--dump-body", str(dumped)) == 0
        doc = json.loads(dumped.read_text())
        jsonschema.validate(doc, schema)
        out = tmp_path / "rerun.json"
        assert run_cli("functional", "--body", f"@{dumped}", "--out", str(out)) == 0
        rerun = json.loads(out.read_text())
        assert rerun["volume"] == pytest.approx(1.2, abs=1e-9)

    def test_gaussian_measure(self, tmp_path):
        out = tmp_path / "g.json"
        assert run_cli("functional", "--space", "e:2", "--body", "ball:r=1",
                       "--measure", "gaussian", "--normalized", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["volume"] == pytest.approx(1 - math.exp(-0.5), rel=1e-10)


class TestFormatVersion:
    """Format 2 has no quadrature ``radial_tol``; every document carries it."""

    def test_every_document_carries_2_and_validates(self, tmp_path, schema):
        report, body, bundle = (tmp_path / name for name in ("r.json", "body.json", "b.json"))
        assert run_cli("functional", "--space", "s+:2", "--body", "ball:r=0.5", "--out", str(report),
                       "--dump-body", str(body)) == 0
        assert run_cli("verify", "--theorem", "lune-max", "--w", "0.3", "--out", str(bundle)) == 0
        docs = [json.loads(path.read_text()) for path in (report, body, bundle)]
        for doc in docs:
            jsonschema.validate(doc, schema)
        nested = [docs[2]["reports"][0], docs[0]["body"]]
        assert {doc["format_version"] for doc in docs + nested} == {"2"}
        assert docs[0]["quadrature"] == {"outer_degree": 47, "inner_degree": 23}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**docs[0], "format_version": "1"}, schema)


class TestVerifyCommand:
    def test_lune_suite(self, tmp_path, schema):
        out = tmp_path / "bundle.json"
        code = run_cli("verify", "--theorem", "lune-max", "--w", "0.3", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, schema)
        assert doc["suite_verdict"] == "pass"
        assert abs(doc["reports"][0]["rel_gap"]) <= 1e-6

    def test_min_nd_random(self, tmp_path, schema):
        out = tmp_path / "bundle.json"
        code = run_cli("verify", "--theorem", "min-nd", "--random", "5", "--dim", "3",
                       "--seed", "7", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, schema)
        assert doc["suite_verdict"] == "pass"

    def test_gaussian_ball_equality(self, tmp_path):
        out = tmp_path / "b.json"
        code = run_cli("verify", "--theorem", "gaussian", "--dim", "2",
                       "--body", "ball:r=1", "--space", "e:2", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["reports"][0]["rel_gap"]) <= 1e-6

    def test_csv_output(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli("verify", "--theorem", "cone-max", "--seed", "2", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# format_version=2"
        assert lines[1].startswith("theorem_id,")

    def test_one_degree_flag_keeps_the_suite_config(self, tmp_path):
        out = tmp_path / "h.json"
        assert run_cli("verify", "--theorem", "hyperbolic", "--outer-degree", "31",
                       "--out", str(out)) == 0
        quadrature = json.loads(out.read_text())["reports"][0]["quadrature"]
        assert (quadrature["outer_degree"], quadrature["inner_degree"]) == (31, 63)

    def test_the_inner_degree_flag_keeps_the_outer_one(self, tmp_path):
        out = tmp_path / "h.json"
        assert run_cli("verify", "--theorem", "hyperbolic", "--inner-degree", "9",
                       "--out", str(out)) == 0
        quadrature = json.loads(out.read_text())["reports"][0]["quadrature"]
        assert (quadrature["outer_degree"], quadrature["inner_degree"]) == (31, 9)

    def test_deterministic_across_runs(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            p = tmp_path / name
            assert run_cli("verify", "--theorem", "min2d", "--random", "3", "--seed", "5",
                           "--out", str(p)) == 0
            outs.append(json.loads(p.read_text()))
        assert outs[0] == outs[1]


class TestExperimentCommand:
    def test_perturbation_signs(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = run_cli("experiment", "perturbation", "--dim", "3", "--r", "0.7854",
                       "--k", "2,4", "--beta", "0.04,0.02", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# format_version=2"
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[2:]]
        signs = {int(row[2]): int(row[9]) for row in rows}
        assert signs[2] == 1 and signs[4] == -1

    def test_perturbation_dim4(self, capsys):
        assert run_cli("experiment", "perturbation", "--dim", "4", "--k", "2") == 0
        assert "(conclusive, match)" in capsys.readouterr().out

    def test_sharpness_converging_schedule_exit_zero(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli("experiment", "sharpness", "--dim", "3", "--t", "0.5",
                       "--alphas", "0.3,0.1", "--epsilons", "0.1,0.05", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("alpha,")
        assert len(lines) == 4

    def test_sharpness_exit_one_when_schedule_too_coarse(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli("experiment", "sharpness", "--dim", "3", "--t", "0.5",
                       "--alphas", "0.4", "--epsilons", "0.2", "--out", str(out))
        assert code == 1  # single coarse row stays well above the constant

    def test_search_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli("experiment", "search", "--space", "s+:2", "--class", "sym-star",
                       "--sense", "max", "--seed", "1", "--budget", "400", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# format_version=2"
        assert lines[1] == "iteration,objective,volume_drift"
        assert len(lines) > 3

    def test_numeric_failure_exit_three(self, capsys):
        # an eps below float-resolvable strip pitch aborts with a numeric error
        code = run_cli("experiment", "sharpness", "--dim", "3", "--t", "0.5",
                       "--alphas", "0.3", "--epsilons", "1e-13")
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_strip_count_over_the_cap_exit_three(self, capsys):
        # this eps asks for 6.9e10 strips; the cap refuses before allocating
        code = run_cli("experiment", "sharpness", "--dim", "4", "--alphas", "0.4",
                       "--epsilons", "1e-9")
        assert code == 3
        assert "strips, cap is" in capsys.readouterr().err

    def test_degree_past_the_gauss_jacobi_cap_exit_three(self, capsys):
        # the zonal path's polar rule would need a dense 50,001 x 50,001 matrix
        code = run_cli("functional", "--space", "s+:3", "--body", "ball:r=0.7",
                       "--outer-degree", "100000")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and err.count("\n") == 1


class TestHugeDimensions:
    """A space of a million dimensions exits 3 with one line: no n x n
    identity is built, and the first float overflow is a resource limit."""

    @pytest.mark.parametrize("argv", [
        ["functional", "--space", "s+:1000000", "--body", "ball:r=0.5"],
        ["functional", "--space", "s+:1000000", "--body", "cone:cap=0.3"],
        ["verify", "--theorem", "min-nd", "--dim", "1000000"],
    ], ids=["ball", "cap-cone", "min-nd-suite"])
    def test_a_command_exits_three(self, capsys, argv):
        # an n x n array would end in numpy's memory error, exit 1
        assert run_cli(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["functional", "--space", "s+:1000000", "--body", "cone:cap=0.3"],
        ["verify", "--theorem", "min-nd", "--dim", "1000000"],
    ], ids=["cap-cone", "min-nd-suite"])
    def test_a_cone_is_refused_before_its_height_primitive(self, capsys, monkeypatch, argv):
        # the primitive's recursion takes O(n) steps: 0.28 s at n = 10^6
        calls = []
        monkeypatch.setattr(spaces, "_sin_power_primitive", lambda m, x: calls.append(m))
        assert run_cli(*argv) == 3
        assert capsys.readouterr().err == ("numeric failure: the area of S^999998 needs "
                                           "Gamma(499999.5), which overflows a float\n")
        assert calls == []

    def test_a_grid_past_the_frames_cap_is_refused_before_any_rule(self, capsys):
        # s+:6 at the default degrees: the product grid of 248,832 normals
        # would take 231 GiB, and numpy's memory error ended in a traceback
        # (exit 1).  The frames' cap refuses it from the outer rule's node
        # count, before the volume's rule or the grid is built
        argv = ["verify", "--theorem", "min-nd", "--dim", "6", "--random", "1"]
        run_cli(*argv)      # a first run imports modules of about 0.8 MB
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = run_cli(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 1e6
        assert capsys.readouterr().err == ("numeric failure: 248832 frames in R^6 need 8957952 entries, "
                                           "cap is 4000000\n")

    def test_a_document_exits_three(self, tmp_path, capsys):
        doc = make_ball(SpaceSpec(1, 3), 0.5).to_json_dict()
        doc["space"]["dim"] = 1_000_000
        path = tmp_path / "body.json"
        path.write_text(json.dumps(doc))
        assert run_cli("functional", "--body", f"@{path}") == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and err.count("\n") == 1


class TestOneLineRefusals:
    """Inputs that printed inf and NaN, a FAIL, a traceback or Python's own
    words: each exits 2 or 3 with one stderr line, and writes no file."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (["functional", "--space", "h:3", "--body", "ball:r=300"], "the functional is inf"),
        (["functional", "--space", "h:4", "--body", "ball:r=300"], "the volume is inf"),
        (["verify", "--theorem", "hyperbolic", "--space", "h:4", "--body", "ball:r=300"],
         "the volume is inf"),
    ], ids=["functional-h3", "functional-h4", "verify-h4"])
    def test_an_overflowing_left_side_exits_three(self, argv, message, tmp_path, capsys):
        # numpy's overflow warning, as an error here, would end in a traceback
        out = tmp_path / "report.json"
        assert run_cli(*argv, "--out", str(out)) == 3
        captured = capsys.readouterr()
        assert captured.err == f"numeric failure: {message}, not a finite float\n"
        assert not out.exists()

    def test_lune_max_on_a_bow_tie_cone_is_inapplicable(self, capsys):
        assert run_cli("verify", "--theorem", "lune-max", "--space", "s+:2", "--body",
                       "cone:arcs=0.2:1.1;3.3415926535897931:4.2415926535897931") == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == ("inapplicable: theorem 'lune-max' needs a convex body: "
                                "a ball, lune or polygon\n")

    @pytest.mark.parametrize("body_class", ["convex", "sym-convex"])
    def test_no_convex_search_class(self, body_class, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run_cli("experiment", "search", "--class", body_class, "--out", str(out)) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert not captured.out and len(errors) == 1 and "--class" in errors[0]
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("semiaxis", [1e-300, 1e-160])
    @pytest.mark.parametrize("given", ["spec", "document"])
    def test_a_semiaxis_whose_inverse_square_overflows_is_named(self, given, semiaxis, tmp_path,
                                                                capsys):
        # it printed numpy's divide-by-zero warning (1e-300), then "numeric
        # failure: x must be nonnegative", and exited 3
        body = f"ellipsoid:semiaxes=1;1;{semiaxis!r}"
        if given == "document":
            doc = make_ellipsoid([1.0, 1.0, 1.0]).to_json_dict()
            doc["profile"]["semiaxes"][-1] = semiaxis
            path = tmp_path / "body.json"
            path.write_text(json.dumps(doc))
            body = f"@{path}"
        assert run_cli("functional", "--space", "e:3", "--body", body) == 2
        captured = capsys.readouterr()
        assert not captured.out and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: --body {'@' if given == 'document' else 'ellipsoid'}")
        assert "semiaxes" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["--body", "ellipsoid:semiaxes="], "--body ellipsoid: semiaxes='' is not numbers separated by ';'"),
        (["--space", "s+:2", "--body", "cone:arcs=0:1:2"],
         "--body cone: arcs='0:1:2' is not arcs a:b separated by ';'"),
        (["--space", "s+:3", "--body", "perturbed:r=0.7,beta=0.01,k=2.5"],
         "--body perturbed: k='2.5' is not an integer"),
        # these three ran: the full cone, the ball r=0.5, and the arcs cone
        (["--space", "s+:2", "--body", "cone:full=0"], "--body cone: full='0' is not 1"),
        (["--space", "s+:2", "--body", "ball:r=0.5,zzz=3"], "--body ball: unused parameter zzz='3'"),
        (["--space", "s+:2", "--body", "cone:cap=0.3,arcs=0:1"],
         "--body cone: unused parameter cap='0.3'"),
        (["--space", "s+:2", "--body", "ball:r"], "--body: expected key=val, got 'r'"),
        (["--body", "ball:r=0.5"], "--body ball requires --space"),
        (["--space", "s+:3", "--body", "cone:"], "--body cone needs arcs=, cap=, equality= or full=1"),
    ], ids=["semiaxes", "arcs", "degree", "full-not-one", "unknown-key", "two-cone-bases",
            "no-equals", "no-space", "no-base"])
    def test_a_body_parameter_is_named(self, argv, message, capsys):
        assert run_cli("functional", *argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("space, hemisphere", [("s+:2", 2 * math.pi), ("s+:3", math.pi ** 2)])
    def test_the_full_cone_runs(self, space, hemisphere, tmp_path):
        # the cone over the whole sphere is the hemisphere
        out = tmp_path / "full.json"
        assert run_cli("functional", "--space", space, "--body", "cone:full=1", "--out", str(out)) == 0
        assert json.loads(out.read_text())["volume"] == pytest.approx(hemisphere, rel=1e-12)


class TestOutSuffix:
    """An --out path that the command has no form for exits 2 in one line
    before the command runs: ``functional`` writes .json, ``verify`` .json or
    .csv, and each experiment mode .csv."""

    @pytest.mark.parametrize("argv, message", [
        (["functional", "--space", "s+:2", "--body", "ball:r=0.5", "--out", "f.csv"],
         "--out: no CSV form for this command"),
        (["functional", "--space", "s+:2", "--body", "ball:r=0.5", "--out", "f.txt"],
         "--out: path must end in .json or .csv"),
        (["verify", "--theorem", "cone-max", "--out", "v.txt"], "--out: path must end in .json or .csv"),
        (["experiment", "sharpness", "--out", "s.json"], "--out: no JSON form for this command"),
        (["experiment", "perturbation", "--out", "p.json"], "--out: no JSON form for this command"),
        (["experiment", "search", "--out", "t.txt"], "--out: path must end in .json or .csv"),
    ], ids=["functional-csv", "functional-txt", "verify-txt", "sharpness-json", "perturbation-json",
            "search-txt"])
    def test_a_wrong_suffix_exits_two_before_any_work(self, argv, message, tmp_path, capsys,
                                                       monkeypatch):
        def never(args):
            raise AssertionError("the command ran")

        for name in ("cmd_functional", "cmd_verify", "cmd_experiment"):
            monkeypatch.setattr(cli, name, never)
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []


# a value of every experiment flag, and the flags each mode reads
_EXPERIMENT_FLAGS = {"--dim": "3", "--r": "0.7", "--k": "4", "--beta": "0.04", "--t": "0.5",
                     "--alphas": "0.4", "--epsilons": "0.2", "--space": "h:7", "--class": "star",
                     "--sense": "min", "--volume": "1.0", "--budget": "3", "--seed": "1"}
_MODE_FLAGS = {"perturbation": ("--dim", "--r", "--k", "--beta"),
               "sharpness": ("--dim", "--t", "--alphas", "--epsilons"),
               "search": ("--space", "--class", "--sense", "--volume", "--budget", "--seed")}
_FOREIGN_FLAGS = [(mode, flag) for mode, own in _MODE_FLAGS.items()
                  for flag in _EXPERIMENT_FLAGS if flag not in own]


class TestExperimentModeFlags:
    """Each experiment mode takes its own flags and refuses the others', which
    it would ignore."""

    def test_there_are_25_foreign_pairs(self):
        assert len(_FOREIGN_FLAGS) == 25

    @pytest.mark.parametrize("mode, flag", _FOREIGN_FLAGS, ids="-".join)
    def test_a_foreign_flag_exits_two(self, mode, flag, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run_cli("experiment", mode, flag, _EXPERIMENT_FLAGS[flag], "--out", str(out)) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert not captured.out and len(errors) == 1 and flag in errors[0]
        assert not out.exists()

    def test_ignored_flags_of_a_sharpness_run_exit_two(self, capsys):
        # it ran, and ignored --k, --space and --budget
        assert run_cli("experiment", "sharpness", "--dim", "3", "--t", "0.5", "--k", "4",
                       "--space", "h:7", "--budget", "3", "--alphas", "0.4", "--epsilons", "0.2") == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert not captured.out and len(errors) == 1


def _leaf_parsers(parser, path=()):
    """(command words, parser) of every parser that runs a command."""
    subs = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*path, name))


def _args_read(fn) -> set:
    """The attributes of ``args`` that a command function reads."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}


class TestNoDeadFlags:
    """A flag that no command reads changes nothing; so is every command in
    the README a command the parser takes."""

    LEAVES = dict(_leaf_parsers(build_parser()))

    @pytest.mark.parametrize("words", list(LEAVES))
    def test_the_command_reads_every_flag_it_defines(self, words):
        parser = self.LEAVES[words]
        functions = [parser.get_default(key) for key in ("fn", "run")]
        read = set().union(*(_args_read(fn) for fn in functions if fn is not None))
        dests = {action.dest for action in parser._actions if action.dest != "help"}
        assert functions[0] is not None and dests <= read, sorted(dests - read)

    def test_every_readme_command_parses(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
        commands = [line for block in blocks for line in block.splitlines()
                    if line.startswith("starsections ")]
        assert len(commands) >= 7
        for line in commands:
            # as a shell splits it: an unquoted ';' ends the command
            lexer = shlex.shlex(line, posix=True, punctuation_chars=";&|")
            lexer.whitespace_split = True
            build_parser().parse_args(list(lexer)[1:])


class TestUsage:
    @pytest.mark.parametrize("argv, message", [
        (["--volume", "0"], "volume"),
        (["--volume", "-1"], "volume"),
        (["--volume", "7"], "volume"),
        (["--budget", "-5"], "budget"),
        (["--space", "h:2", "--volume", "1e30"], "volume"),
    ])
    def test_search_input_out_of_domain(self, argv, message, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run_cli("experiment", "search", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: search:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["perturbation", "--dim", "2"], "perturbation: the expansion needs n >= 3"),
        (["perturbation", "--r", "2"], "perturbation: r exceeds"),
        (["perturbation", "--k", "0"], "perturbation: the harmonic degree"),
        (["perturbation", "--beta", "-1"], "perturbation: perturbation leaves"),
        (["perturbation", "--k", "x"], "--k:"),
        (["perturbation", "--beta", "0.1,y"], "--beta:"),
        (["sharpness", "--dim", "2"], "sharpness: the sharp spherical minimum"),
        (["sharpness", "--t", "1.5"], "sharpness: the volume fraction"),
        (["sharpness", "--alphas", "0.4", "--epsilons", "0.2,0.1"], "sharpness: alpha and eps"),
        (["sharpness", "--epsilons", "z"], "--epsilons:"),
        (["perturbation", "--beta", "0.04,0"], "perturbation: beta = 0"),
    ])
    def test_experiment_input_out_of_domain(self, argv, message, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert run_cli("experiment", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["functional", "--space", "s+:3", "--body", "ball:r=nan"], "ball radius must be positive"),
        (["functional", "--body", "ellipsoid:semiaxes=nan;1"], "all semiaxes must be positive"),
        (["experiment", "sharpness", "--dim", "4", "--alphas", "0.4", "--epsilons", "nan"],
         "eps must be positive"),
    ], ids=["ball", "ellipsoid", "sharpness"])
    def test_nan_parameters_exit_two(self, argv, message, capsys):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "nan" not in captured.out

    @pytest.mark.parametrize("argv", [
        ["experiment", "perturbation", "--dim", "3", "--k", "2", "--beta", "nan"],
        ["functional", "--space", "s+:3", "--body", "perturbed:r=0.7,beta=nan,k=2"],
    ], ids=["experiment", "body"])
    def test_nan_beta_exits_two(self, argv, capsys):
        # refused as it is, not as a volume match that failed to bracket
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert "beta must be finite" in err and "bracketed" not in err

    @pytest.mark.parametrize("w", ["2", "nan", "0"])
    def test_w_out_of_domain_exits_two(self, w, capsys):
        assert run_cli("verify", "--theorem", "lune-max", "--w", w) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --w") and "lune half-width must lie in (0, pi/2)" in err

    def test_bad_space(self):
        assert run_cli("functional", "--space", "zz:9", "--body", "ball:r=1") == 2

    def test_unknown_theorem_rejected(self):
        assert run_cli("verify", "--theorem", "nonsense") == 2

    @pytest.mark.parametrize("command", [["verify", "--theorem", "hyperbolic"],
                                         ["functional", "--space", "s+:3", "--body", "ball:r=1"]])
    @pytest.mark.parametrize("flag", ["--outer-degree", "--inner-degree"])
    def test_degree_below_one_rejected(self, command, flag, capsys):
        assert run_cli(*command, flag, "0") == 2
        assert "degree must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["functional", "--space", "s+:3", "--body", "ball:r=0.7", "--sections", "-3"],
        ["verify", "--theorem", "min-nd", "--random", "-3"],
    ], ids=["sections", "random"])
    def test_negative_count_exits_two(self, argv, capsys):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert "a count must be >= 0, got -3" in captured.err and not captured.out

    @pytest.mark.parametrize("argv", [
        ["verify", "--theorem", "min-nd", "--random", "1", "--seed", "-1"],
        ["experiment", "search", "--seed", "-5", "--budget", "10"],
    ], ids=["verify", "experiment"])
    def test_negative_seed_exits_two(self, argv, capsys):
        # numpy's generator refused it with a traceback, and exit 1
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "argument --seed: a count must be >= 0" in errors[0]

    def test_dim_zero_exits_two(self, capsys):
        # it ran the default n = 3 suite and exited 0
        assert run_cli("verify", "--theorem", "min-nd", "--dim", "0") == 2
        captured = capsys.readouterr()
        assert not captured.out and "does not apply to n = 0" in captured.err

    @pytest.mark.parametrize("exponent", ["-2", "0"])
    def test_exponent_below_one_exits_two(self, exponent, capsys):
        # a cone's zero sections to a negative power gave "functional: inf"
        assert run_cli("functional", "--space", "s+:3", "--body", "cone:cap=0.3",
                       "--exponent", exponent) == 2
        captured = capsys.readouterr()
        assert not captured.out
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"a section-power exponent must be >= 1, got {exponent}" in errors[0]

    def test_experiment_takes_no_quadrature_flags(self):
        assert run_cli("experiment", "sharpness", "--dim", "3", "--outer-degree", "5") == 2

    @pytest.mark.parametrize("argv", [["--theorem", "min2d"], ["--theorem", "cone-max"],
                                      ["--theorem", "lune-max", "--body", "lune:w=0.4"]],
                             ids=["min2d", "cone-max", "with-body"])
    def test_w_outside_the_lune_suite_exits_two(self, argv, capsys):
        assert run_cli("verify", *argv, "--w", "0.3") == 2
        assert "--w" in capsys.readouterr().err

    def test_w_sets_the_lune(self, tmp_path):
        out = tmp_path / "l.json"
        assert run_cli("verify", "--theorem", "lune-max", "--w", "0.3", "--out", str(out)) == 0
        assert [r["body_kind"] for r in json.loads(out.read_text())["reports"]] == ["lune"]

    @pytest.mark.parametrize("argv", [["verify", "--theorem", "lune-max", "--w", "0.3"],
                                      ["functional", "--space", "s+:2", "--body", "ball:r=0.5"]],
                             ids=["verify", "functional"])
    def test_no_command_takes_radial_tol(self, argv, capsys):
        # functional took it, recorded it in the report, and changed no number
        assert run_cli(*argv, "--radial-tol", "1e-3") == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert not captured.out and len(errors) == 1 and "--radial-tol" in errors[0]


class TestBodyFiles:
    """A bad ``--body @file`` is a usage error, and a file's symmetry claim is
    derived or checked, never trusted."""

    @pytest.mark.parametrize("content", [None, "{not json", '{"space": {"delta": 1}}', "[1, 2]"],
                             ids=["missing", "not-json", "no-dim", "not-an-object"])
    def test_bad_file_exits_two(self, tmp_path, capsys, content):
        path = tmp_path / "body.json"
        if content is not None:
            path.write_text(content)
        assert run_cli("functional", "--body", f"@{path}") == 2
        assert "--body" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: {**doc, "profile": None}, "'profile' must be an object, got None"),
        (lambda doc: {**doc, "space": None}, "'space' must be an object, got None"),
        (lambda doc: [], "a body document must be an object, got list"),
        (lambda doc: {**doc, "profile": {**doc["profile"], "centers": 5}},
         "'centers' must be a list of lists of numbers, got 5"),
        (lambda doc: {**make_ellipsoid([1.0, 2.0]).to_json_dict(),
                      "profile": {"kind": "ellipsoid", "semiaxes": 5}},
         "'semiaxes' must be a list of numbers, got 5"),
        (lambda doc: {**doc, "profile": {"kind": "grid", "shape": 5, "values": [0.7] * 5}},
         "'shape' must be a list of integers, got 5"),
        (lambda doc: _arcs_cone_document([[0.0, 1.0, 2.0]]),
         "'arcs' must be a list of [a, b] pairs, got [[0.0, 1.0, 2.0]]"),
        (lambda doc: _arcs_cone_document([[]]), "'arcs' must be a list of [a, b] pairs, got [[]]"),
    ], ids=["profile-null", "space-null", "top-level-list", "bumpy-centers-number",
            "ellipsoid-semiaxes-number", "grid-shape-number", "arcs-triple", "arcs-empty-pair"])
    def test_a_malformed_document_names_its_field(self, tmp_path, capsys, edit, field):
        # an ellipsoid's number for its semiaxes ended in an IndexError traceback
        # (exit 1), and an arc of three numbers in Python's "too many values to unpack"
        doc = make_bumpy_ball(SpaceSpec(1, 2), 0.8, [[1.0, 0.0]], [0.2], [4.0]).to_json_dict()
        path = tmp_path / "body.json"
        path.write_text(json.dumps(edit(doc)))
        assert run_cli("functional", "--body", f"@{path}") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --body @{path}: ") and err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize("body, edit, field", [
        (make_ball(SpaceSpec(1, 3), 0.5), lambda p: p.update(r="0.5"), "'r' must be a number, got '0.5'"),
        (make_ball(SpaceSpec(1, 3), 0.5), lambda p: p.update(r=True), "'r' must be a number, got True"),
        (make_ball(SpaceSpec(1, 3), 0.5), lambda p: p.update(r=[0.5]), "'r' must be a number, got [0.5]"),
        (_CAP_CONE, lambda p: p.update(height=True), "'height' must be a number, got True"),
        (make_lune(0.5), lambda p: p.update(w="0.5", axis=["1", "0"]), "'w' must be a number, got '0.5'"),
        (make_lune(0.5), lambda p: p.update(axis=["1", "0"]), "'axis' must be a list of numbers"),
        (_CAP_CONE, lambda p: p["base"].update(los=[False]), "'los' must be a list of numbers"),
        (make_cone(SpaceSpec(1, 2), ArcsBase(((0.0, 3.0),))), lambda p: p["base"].update(arcs=[[0, "3"]]),
         "'arcs' must be a list of lists of numbers"),
        (make_symmetric_polygon_body([1.0, 0.8], [0.4, 1.5]),
         lambda p: p.update(normals=[[1.0, 0.0], [0.0]]), "'normals' must be a list of lists of numbers"),
        (make_bumpy_ball(SpaceSpec(1, 2), 0.8, [[1.0, 0.0]], [0.2], [4.0]), lambda p: p.update(lo="0"),
         "'lo' must be a number, got '0'"),
        (StarBody(SpaceSpec(1, 2), GridProfile(np.full(8, 0.7))), lambda p: p["values"].__setitem__(3, None),
         "'values' must be a list of numbers"),
    ], ids=["ball-r-string", "ball-r-true", "ball-r-list", "cone-height-true", "lune-strings",
            "lune-axis-strings", "band-los-false", "arc-string", "polygon-ragged-normals",
            "bumpy-lo-string", "grid-value-null"])
    def test_a_number_field_that_is_no_number_exits_two(self, tmp_path, capsys, body, edit, field):
        # the first five loaded, "0.5" and true as numbers; a list for r exited 2
        # with Python's words and no field name
        doc = body.to_json_dict()
        edit(doc["profile"])
        path = tmp_path / "body.json"
        path.write_text(json.dumps(doc))
        assert run_cli("functional", "--body", f"@{path}") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --body @{path}: the document's ") and err.count("\n") == 1
        assert field in err

    def _write(self, tmp_path, body, **changes):
        path = tmp_path / "body.json"
        path.write_text(json.dumps({**body.to_json_dict(), **changes}))
        return f"@{path}"

    def test_asymmetric_cone_claiming_symmetry_is_inapplicable(self, tmp_path, capsys):
        body = make_cone(SpaceSpec(1, 2), ArcsBase(((0.0, 3.0),)))
        spec = self._write(tmp_path, body, symmetric=True)
        assert run_cli("verify", "--theorem", "min2d", "--body", spec) == 2
        assert "inapplicable" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        make_bumpy_ball(SpaceSpec(1, 2), 0.8, [[1.0, 0.0]], [0.2], [4.0]),
        StarBody(SpaceSpec(1, 2), GridProfile(np.linspace(0.5, 1.2, 16))),
    ], ids=["bumpy", "grid"])
    def test_false_symmetry_claim_exits_two(self, tmp_path, capsys, body):
        spec = self._write(tmp_path, body, symmetric=True)
        assert run_cli("verify", "--theorem", "min2d", "--body", spec) == 2
        assert "symmetric" in capsys.readouterr().err

    # two sharpness-3000 bumps at 15 and 200 degrees: every node of the
    # degree-11 rule misses both, so a check of rho there passed a claim of
    # symmetry, and min2d reported "pass" on the functional of the pair fold
    SHARP_BUMPS = make_bumpy_ball(SpaceSpec(1, 2), 0.7,
                                  [[math.cos(t), math.sin(t)] for t in (math.radians(15), math.radians(200))],
                                  [0.3, 0.3], [3000.0, 3000.0])

    @pytest.mark.parametrize("command", [["functional"], ["verify", "--theorem", "min2d"]])
    def test_sharp_bumps_claiming_symmetry_exit_two(self, tmp_path, capsys, command):
        spec = self._write(tmp_path, self.SHARP_BUMPS, symmetric=True)
        assert run_cli(*command, "--body", spec) == 2
        captured = capsys.readouterr()
        assert "symmetric" in captured.err and "pass" not in captured.out

    def test_sharp_bumps_without_the_claim(self, tmp_path, capsys):
        spec = self._write(tmp_path, self.SHARP_BUMPS, symmetric=False)
        assert run_cli("verify", "--theorem", "min2d", "--body", spec) == 2
        assert "inapplicable" in capsys.readouterr().err
        assert run_cli("functional", "--body", spec) == 0
        assert "functional: 12.4805071208 " in capsys.readouterr().out

    @pytest.mark.parametrize("claim", ["false", 1])
    def test_a_symmetry_field_that_is_no_boolean_exits_two(self, tmp_path, capsys, claim):
        spec = self._write(tmp_path, self.SHARP_BUMPS, symmetric=claim)
        assert run_cli("functional", "--body", spec) == 2
        assert "'symmetric' must be true or false" in capsys.readouterr().err

    def test_asymmetry_past_roundoff_exits_two(self, tmp_path, capsys):
        # one mirrored amplitude off by 3e-11: inside the old 1e-10 absolute
        # tolerance, far outside roundoff
        body = make_bumpy_ball(SpaceSpec(1, 3), 0.8, [[0.0, 0.6, 0.8]], [0.2], [3.0], symmetric=True)
        doc = body.to_json_dict()
        doc["profile"]["amplitudes"][1] += 3e-11
        path = tmp_path / "body.json"
        path.write_text(json.dumps(doc))
        nodes = build_sphere_rule(2, 11).nodes
        skewed = StarBody(body.space, body_from_json_dict({**doc, "symmetric": False}).profile)
        gap = np.max(np.abs(skewed.rho(nodes) - skewed.rho(-nodes)))
        assert 1e-12 < gap < 1e-10
        assert run_cli("functional", "--body", f"@{path}") == 2
        assert "not origin-symmetric" in capsys.readouterr().err
        path.write_text(json.dumps(body.to_json_dict()))
        assert run_cli("functional", "--body", f"@{path}") == 0

    @pytest.mark.parametrize("body, changes, space, name", [
        (make_perturbed_ball(SpaceSpec(1, 3), 0.7, 0.03, 2), {"degree": 2.5}, None, "degree"),
        (make_perturbed_ball(SpaceSpec(1, 3), 0.7, 0.03, 2), {"degree": True}, None, "degree"),
        (make_ellipsoid([1.2, 0.8, 1.0]), {}, {"delta": 0, "dim": 3.5}, "dim"),
        (make_ellipsoid([1.2, 0.8, 1.0]), {}, {"delta": 0.5, "dim": 3}, "delta"),
        (StarBody(SpaceSpec(1, 2), GridProfile(np.full(8, 0.7))), {"shape": [-1]}, None, "shape"),
        (StarBody(SpaceSpec(1, 2), GridProfile(np.full(8, 0.7))), {"shape": [8.0]}, None, "shape"),
    ], ids=["degree-2.5", "degree-true", "dim-3.5", "delta-0.5", "shape-minus-1", "shape-8.0"])
    def test_an_integer_field_that_is_no_integer_exits_two(self, tmp_path, capsys, body, changes,
                                                          space, name):
        doc = body.to_json_dict()
        doc["profile"].update(changes)
        spec = self._write(tmp_path, body, profile=doc["profile"], space=space or doc["space"])
        assert run_cli("functional", "--body", spec) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --body @") and f"'{name}' must be" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", [["functional"], ["verify", "--theorem", "lune-max"]])
    @pytest.mark.parametrize("body, changes, space", [
        (make_symmetric_polygon_body([1.0, 0.8], [0.4, 1.5]), {"offsets": [-0.5, 0.8]}, None),
        (make_bumpy_ball(SpaceSpec(1, 3), 0.8, [[0.0, 0.0, 1.0]], [0.2], [3.0]),
         {"centers": [[0.0, 1.0]]}, None),
        (StarBody(SpaceSpec(1, 3), GridProfile(np.full((4, 8), 0.7))),
         {"shape": [8], "values": [0.7] * 8}, None),
        (StarBody(SpaceSpec(1, 2), GridProfile(np.full(8, 0.7))), {"shape": [0], "values": []}, None),
        (make_lune(0.4), {}, {"delta": -1, "dim": 2}),
    ], ids=["polygon-negative-offset", "bumpy-2d-centers-on-s3", "grid-shape-8-on-s3", "grid-shape-0",
            "lune-on-h2"])
    def test_document_its_builder_refuses_exits_two(self, tmp_path, capsys, command, body, changes,
                                                    space):
        doc = body.to_json_dict()
        doc["profile"].update(changes)
        spec = self._write(tmp_path, body, profile=doc["profile"], space=space or doc["space"])
        assert run_cli(*command, "--body", spec) == 2
        assert capsys.readouterr().err.startswith("error: --body @")

    @pytest.mark.parametrize("command, body, edit, space", [
        (["verify", "--theorem", "min-nd"], _CAP_CONE, lambda p: p["base"].update(axis=[NAN, 0.0, 0.0]),
         None),
        (["verify", "--theorem", "min-nd"], _CAP_CONE, lambda p: p["base"].update(los=[NAN]), None),
        (["functional"], _CAP_CONE, lambda p: p["base"].update(his=[math.inf]), None),
        (["functional"], _CAP_CONE, lambda p: p.update(height=NAN), None),
        (["functional"], _CAP_CONE, lambda p: p.update(height=7.0), None),
        (["functional"], _CAP_CONE, lambda p: p.update(height=-1.0), {"delta": -1, "dim": 3}),
        (["functional"], make_cone(SpaceSpec(1, 2), ArcsBase(((0.0, 3.0),))),
         lambda p: p["base"].update(arcs=[[NAN, 3.0]]), None),
        (["functional"], make_ellipsoid([1.0, 1.0, 1.0]), lambda p: p.update(semiaxes=[1.0, math.inf, 1.0]),
         None),
        (["functional"], make_bumpy_ball(SpaceSpec(1, 2), 0.8, [[1.0, 0.0]], [0.2], [4.0]),
         lambda p: p.update(r0=NAN), None),
        (["functional"], make_bumpy_ball(SpaceSpec(1, 2), 0.8, [[1.0, 0.0]], [0.2], [4.0]),
         lambda p: p.update(lo=NAN), None),
        (["functional"], StarBody(SpaceSpec(1, 2), GridProfile(np.full(8, 0.7))),
         lambda p: p["values"].__setitem__(7, NAN), None),
        (["functional"], make_symmetric_polygon_body([1.0, 0.8], [0.4, 1.5]),
         lambda p: p["normals"].__setitem__(0, [NAN, 0.0]), None),
        (["functional"], make_symmetric_polygon_body([1.0, 0.8], [0.4, 1.5]),
         lambda p: p["offsets"].__setitem__(1, math.inf), None),
        (["functional"], make_perturbed_ball(SpaceSpec(1, 3), 0.7, 0.03, 2), lambda p: p.update(alpha=NAN),
         None),
    ], ids=["cone-axis-nan", "band-lower-edge-nan", "band-upper-edge-inf", "cone-height-nan",
            "cone-height-past-the-rim", "cone-height-negative-on-h3", "arc-nan", "ellipsoid-semiaxis-inf",
            "bumpy-r0-nan", "bumpy-lo-nan", "grid-value-nan", "polygon-normal-nan", "polygon-offset-inf",
            "perturbed-alpha-nan"])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, command, body, edit, space):
        doc = body.to_json_dict()
        edit(doc["profile"])
        spec = self._write(tmp_path, body, profile=doc["profile"], space=space or doc["space"])
        assert run_cli(*command, "--body", spec) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --body @") and captured.err.count("\n") == 1
        assert "nan" not in captured.out and "FAIL" not in captured.out

    def test_circle_band_base_takes_the_arcs_closed_form(self, tmp_path):
        space = SpaceSpec(1, 2)
        base = cap_base(np.array([1.0, 0.0]), 0.3)
        spec = self._write(tmp_path, make_cone(space, base),
                           profile={"kind": "cone", "height": math.pi / 2, "base": base.descriptor()})
        out = tmp_path / "report.json"
        assert run_cli("functional", "--body", spec, "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        value, err = busemann_functional_with_error(make_cone(space, base))
        assert doc["functional"] == value
        assert doc["error_estimate"] == err


class TestInapplicable:
    def test_asymmetric_cone_for_min2d(self, capsys):
        assert run_cli("verify", "--theorem", "min2d", "--space", "s+:2",
                       "--body", "cone:arcs=0:3") == 2
        assert "inapplicable" in capsys.readouterr().err

    @pytest.mark.parametrize("off, code", [(0.0, 0), (5e-11, 2)])
    def test_a_mirror_arc_must_be_exact_for_min2d(self, capsys, off, code):
        a, b = 0.2, 1.1
        arcs = f"cone:arcs={a!r}:{b!r};{a + math.pi!r}:{b + math.pi + off!r}"
        assert run_cli("verify", "--theorem", "min2d", "--space", "s+:2", "--body", arcs) == code
        assert ("inapplicable" in capsys.readouterr().err) == (code == 2)

    def test_wrong_space(self, capsys):
        assert run_cli("verify", "--theorem", "min2d", "--space", "e:2", "--body", "ball:r=1") == 2
        assert "inapplicable" in capsys.readouterr().err

    def test_dim_outside_theorem(self, capsys):
        assert run_cli("verify", "--theorem", "lune-max", "--dim", "3") == 2
        assert "inapplicable" in capsys.readouterr().err


class TestSpaceBindsBodies:
    """With --space given, every --body must live on that space."""

    @pytest.mark.parametrize("argv", [
        ["functional", "--space", "s+:3", "--body", "ellipsoid:semiaxes=1;2"],
        ["functional", "--space", "h:3", "--body", "lune:w=0.4"],
        ["verify", "--theorem", "busemann-euclidean", "--space", "s+:3",
         "--body", "ellipsoid:semiaxes=1;2;1.5"],
        ["verify", "--theorem", "lune-max", "--space", "h:3", "--body", "lune:w=0.4"],
        ["verify", "--theorem", "lune-max", "--space", "s+:2", "--body", "lune:w=0.4",
         "--body", "ellipsoid:semiaxes=1;2"],
    ])
    def test_a_body_on_another_space_exits_two(self, argv, capsys):
        assert run_cli(*argv) == 2
        assert "not on --space" in capsys.readouterr().err

    def test_a_body_document_on_another_space_exits_two(self, tmp_path, capsys):
        path = tmp_path / "ball.json"
        path.write_text(json.dumps(make_lune(0.4).to_json_dict()))
        assert run_cli("functional", "--space", "s+:3", "--body", f"@{path}") == 2
        assert "not on --space" in capsys.readouterr().err
        assert run_cli("functional", "--space", "s+:2", "--body", f"@{path}") == 0

    def test_a_body_on_the_given_space_runs(self, capsys):
        assert run_cli("functional", "--space", "e:2", "--body", "ellipsoid:semiaxes=1;2") == 0
        assert "delta=0 dim=2" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--theorem", "min-nd", "--space", "h:3"],
        ["--theorem", "lune-max", "--w", "0.3", "--space", "h:3"],
    ])
    def test_verify_space_without_a_body_exits_two(self, argv, capsys):
        # the suite bodies and --w's lune have spaces of their own
        assert run_cli("verify", *argv) == 2
        assert "--space" in capsys.readouterr().err


class TestVerifySuiteFlags:
    """--random and --seed choose the random suite bodies, and --dim the suite's
    dimension; next to --body or --w they would be ignored, so they exit 2,
    except a --dim that every given body has."""

    @pytest.mark.parametrize("argv", [
        ["--theorem", "lune-max", "--body", "lune:w=0.4", "--dim", "3", "--random", "5", "--seed", "9"],
        ["--theorem", "min-nd", "--space", "s+:3", "--body", "cone:equality=0.4", "--random", "4"],
        ["--theorem", "min-nd", "--space", "s+:3", "--body", "cone:equality=0.4", "--seed", "0"],
        ["--theorem", "lune-max", "--w", "0.4", "--random", "0"],
        ["--theorem", "lune-max", "--w", "0.4", "--seed", "3"],
        ["--theorem", "lune-max", "--body", "lune:w=0.4", "--dim", "3"],
        ["--theorem", "lune-max", "--w", "0.4", "--dim", "3"],
    ])
    def test_ignored_flags_exit_two(self, argv, capsys):
        assert run_cli("verify", *argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_a_dim_every_body_has_is_accepted(self):
        assert run_cli("verify", "--theorem", "lune-max", "--w", "0.4", "--dim", "2") == 0
        assert run_cli("verify", "--theorem", "min-nd", "--space", "s+:3",
                       "--body", "cone:equality=0.4", "--dim", "3") == 0

    def test_defaults_are_no_random_bodies_and_seed_zero(self, tmp_path):
        docs = []
        for name, flags in (("a.json", []), ("b.json", ["--random", "0", "--seed", "0"])):
            path = tmp_path / name
            assert run_cli("verify", "--theorem", "min-nd", *flags, "--out", str(path)) == 0
            docs.append(json.loads(path.read_text()))
        assert docs[0] == docs[1]
        assert len(docs[0]["reports"]) == len(list(suite_bodies("min-nd")))


def _csv_records(path):
    lines = path.read_text().splitlines()
    assert lines[0] == f"# format_version={FORMAT_VERSION}"
    return list(csv.DictReader(lines[1:]))


class TestCsvRowsAreRecords:
    """Each CSV row holds its record's to_json_dict() values, column by column."""

    def test_perturbation(self, tmp_path):
        path = tmp_path / "p.csv"
        assert run_cli("experiment", "perturbation", "--dim", "3", "--r", "0.8", "--k", "2,4",
                       "--out", str(path)) == 0
        rows = _csv_records(path)
        for row, k in zip(rows, (2, 4), strict=True):
            record = perturbation_sign_experiment(3, 0.8, k).to_json_dict()
            assert {column: str(record[column]) for column in row} == row

    def test_verify(self, tmp_path):
        path = tmp_path / "v.csv"
        assert run_cli("verify", "--theorem", "min-nd", "--random", "2", "--dim", "3", "--seed", "7",
                       "--out", str(path)) == 0
        reports = run_theorem_suite("min-nd", suite_bodies("min-nd", dim=3, random_count=2, seed=7))
        for row, report in zip(_csv_records(path), reports, strict=True):
            record = report.to_json_dict()
            assert {column: str(record[column]) for column in row} == row
