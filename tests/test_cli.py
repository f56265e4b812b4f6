import argparse
import warnings

import numpy as np
import pytest

from stokeslet_surfaces import (
    ExperimentReport,
    TriMesh,
    read_mesh,
    sphere_translation_reference,
    write_mesh,
)
from stokeslet_surfaces.cli import (
    EXIT_FLOOR,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    _parser,
    main,
    parse_args,
)
from stokeslet_surfaces import cli, studies


def test_parse_args_mesh_defaults():
    config = parse_args(["mesh", "--shape", "icosphere", "--f", "8",
                         "--out", "x.mesh"])
    assert config.command == "mesh"
    assert config.f == 8 and config.a == 1.0
    assert config.out == "x.mesh"


def test_unknown_flag_is_usage_error(capsys):
    assert main(["mesh", "--nope", "--out", "x"]) == EXIT_USAGE
    assert main(["bogus-command"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_empty_grid_rejected():
    assert main(["study", "--id", "resistance-drag", "--eps", ","]) == EXIT_USAGE


def _study_params(monkeypatch, argv):
    """The params dict `study` hands to run_study for the flags in argv."""
    seen = {}

    def run_study(study_id, params):
        seen.update(params)
        return ExperimentReport(study_id)

    monkeypatch.setattr(studies, "run_study", run_study)
    assert main(["study"] + argv) == EXIT_OK
    return seen


def test_study_flags_pass_through_under_parameter_names(monkeypatch):
    params = _study_params(monkeypatch, [
        "--id", "pipe-leak", "--h-cube", "0.5", "--eps-over-h", "0.1,0.2",
        "--a", "1.2"])
    assert params == {"h_cube_values": [0.5], "eps_over_h": [0.1, 0.2], "a": 1.2}
    params = _study_params(monkeypatch, ["--id", "mrs-comparison", "--f", "2,4"])
    assert params == {"f_values": [2, 4]}
    # flags left out pass no key, so each study's own defaults apply
    assert _study_params(monkeypatch, ["--id", "squirmer"]) == {}


def test_every_study_flag_sets_a_study_keyword():
    # a flag whose dest no study function takes would be rejected by every
    # study it could be passed to
    subparsers = next(action for action in _parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    dests = {action.dest for action in subparsers.choices["study"]._actions}
    keywords = {name for study_id in studies.STUDY_IDS
                for name in studies._settings(study_id)}
    assert sorted(dests - {"help", "id", "out"} - keywords) == []


def test_study_flag_the_study_does_not_take_is_usage_error(capsys):
    assert main(["study", "--id", "squirmer", "--h-cube", "0.1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    # the flags as typed, not the study keywords they set
    assert "--h-cube" in err and "h_cube_values" not in err
    assert "--f, --eps, --a, --mu" in err


def test_mesh_roundtrip(tmp_path, capsys):
    out = tmp_path / "sphere.mesh"
    assert main(["mesh", "--shape", "icosphere", "--f", "8",
                 "--out", str(out)]) == EXIT_OK
    assert "faces=1280" in capsys.readouterr().out
    mesh = read_mesh(out)
    assert mesh.num_faces == 1280 and mesh.num_vertices == 642


def test_mesh_write_failure_is_io_error(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "m.mesh"
    assert main(["mesh", "--f", "2", "--out", str(missing)]) == EXIT_IO


def test_floor_violation_exit_code(capsys):
    code = main(["study", "--id", "forward-translate", "--eps", "1e-20",
                 "--f", "4"])
    assert code == EXIT_FLOOR
    assert "ulp" in capsys.readouterr().err


def test_eval_matches_reference_far_field(capsys, tmp_path):
    out = tmp_path / "field.csv"
    # the far-field error tracks the surface-area deficit (~h^2); f=20 meets 1e-3
    code = main(["eval", "--shape", "icosphere", "--f", "20",
                 "--traction", "translate", "--point", "10,0,0",
                 "--out", str(out)])
    assert code == EXIT_OK
    row = out.read_text().strip().split("\n")[1].split(",")
    got = np.array([float(t) for t in row[3:]])
    _, expect = sphere_translation_reference([10.0, 0, 0], 1.0, [1.0, 0, 0], 1.0)
    assert np.linalg.norm(got - expect) < 1e-3 * np.linalg.norm(expect)


def test_solve_drag_summary(capsys):
    assert main(["solve", "--problem", "drag", "--f", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    drag_x = float(out.split("(")[1].split(",")[0])
    assert drag_x == pytest.approx(-6 * np.pi, rel=2e-2)


def test_solve_squirmer_summary(capsys):
    assert main(["solve", "--problem", "squirmer", "--f", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("squirmer U = ")
    uz = float(out.split("(")[1].split(")")[0].split(",")[2])
    assert uz == pytest.approx(1.0, abs=0.03)


def test_field_csv_headers_name_their_vectors(tmp_path, capsys):
    forces, field = tmp_path / "f.csv", tmp_path / "u.csv"
    assert main(["solve", "--f", "2", "--out", str(forces)]) == EXIT_OK
    assert main(["eval", "--f", "2", "--point", "3,0,0", "--out", str(field)]) == EXIT_OK
    assert forces.read_text().split("\n")[0] == "x,y,z,fx,fy,fz"
    assert field.read_text().split("\n")[0] == "x,y,z,ux,uy,uz"


@pytest.mark.parametrize("a", ["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("argv", [
    ["eval", "--shape", "box", "--point", "1,1,1"],
    ["eval", "--shape", "box", "--traction", "rotate", "--point", "1,1,1"],
    ["solve", "--shape", "box", "--problem", "drag"],
    ["solve", "--shape", "box", "--problem", "torque"],
], ids=["eval-translate", "eval-rotate", "solve-drag", "solve-torque"])
def test_sphere_radius_that_is_not_positive_and_finite_is_usage_error(argv, a, capsys):
    # with --shape box, --a is only the radius of the reference traction
    assert main(argv + ["--grid-h", "0.25", "--a", a]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "radius" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["--shape", "box", "--half-side", "inf"],
    ["--shape", "pipe", "--length", "inf"],
    ["--shape", "pipe", "--grid-h", "inf"],
    ["--f", "2", "--a", "nan"],
    ["--f", "2", "--a", "inf"],
    ["--shape", "spheroid", "--a", "nan"],
    ["--shape", "spheroid", "--a", "2", "--grading", "nan"],
], ids=["box-half-side-inf", "pipe-length-inf", "pipe-grid-h-inf", "icosphere-a-nan",
        "icosphere-a-inf", "spheroid-a-nan", "spheroid-grading-nan"])
def test_mesh_size_that_is_not_finite_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "m.mesh"
    assert main(["mesh", "--out", str(out)] + argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "finite" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--mu", "0"], ["--a", "0.2"], ["--a", "inf"]],
                         ids=["mu-0", "duct-narrower-than-cube", "a-inf"])
def test_pipe_leak_with_a_bad_duct_is_usage_error(flags, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["study", "--id", "pipe-leak", "--h-cube", "0.25",
                     "--eps-over-h", "0.1"] + flags)
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["study", "--id", "pipe-leak"], ["eval"], ["solve"],
                                  ["mesh"]], ids=["study", "eval", "solve", "mesh"])
def test_out_into_a_missing_directory_fails_before_any_work(argv, monkeypatch,
                                                            tmp_path, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work was done")

    monkeypatch.setattr(studies, "run_study", no_work)
    monkeypatch.setattr(cli, "_build_mesh", no_work)
    out = str(tmp_path / "missing" / "report.csv")
    assert main(argv + ["--out", out]) == EXIT_IO
    captured = capsys.readouterr()
    assert out in captured.err and ".tmp" not in captured.err
    assert captured.out == ""


def test_study_writes_report(tmp_path, capsys):
    out = tmp_path / "drag.csv"
    code = main(["study", "--id", "resistance-drag", "--f", "2,3",
                 "--eps", "1e-4", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "experiment,num_faces,dof,h,eps,metric,value"
    drag_rows = [l for l in lines[1:] if "drag_x_rel_error" in l]
    assert len(drag_rows) == 2


def test_study_mesh_file_not_needed_for_eval_from_file(tmp_path):
    mesh_path = tmp_path / "m.mesh"
    assert main(["mesh", "--f", "3", "--out", str(mesh_path)]) == EXIT_OK
    assert main(["eval", "--mesh-file", str(mesh_path), "--point", "5,0,0"]) == EXIT_OK


def test_degenerate_mesh_file_is_mesh_error(tmp_path, capsys):
    # written as text: a TriMesh with a collinear face cannot be built
    mesh_path = tmp_path / "collinear.mesh"
    mesh_path.write_text("3 1\n0 0 0\n1 0 0\n2 0 0\n0 1 2\n")
    assert main(["eval", "--mesh-file", str(mesh_path), "--point", "5,0,0"]) == EXIT_IO
    assert "collinear" in capsys.readouterr().err


def test_empty_mesh_file_is_mesh_error(tmp_path, capsys):
    mesh_path = tmp_path / "empty.mesh"
    mesh_path.write_text("0 0\n")
    assert main(["solve", "--mesh-file", str(mesh_path)]) == EXIT_IO
    assert "no faces" in capsys.readouterr().err


def _tetrahedron_at_origin(tmp_path):
    mesh_path = tmp_path / "tetra.mesh"
    write_mesh(TriMesh([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]],
                       [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]), mesh_path)
    return mesh_path


def test_rotation_problems_on_a_mesh_with_a_vertex_at_the_origin(tmp_path, capsys):
    # the rotation traction is finite there; the reference field velocity,
    # which divides by |x|, is not used and must not warn
    mesh_path = _tetrahedron_at_origin(tmp_path)
    assert main(["eval", "--traction", "rotate", "--mesh-file", str(mesh_path),
                 "--point", "3,0,0"]) == EXIT_OK
    assert main(["solve", "--problem", "torque", "--mesh-file", str(mesh_path)]) == EXIT_OK


def test_squirmer_on_a_mesh_with_a_vertex_at_the_origin_is_rejected(tmp_path, capsys):
    # the squirmer's polar angle is undefined at its center
    mesh_path = _tetrahedron_at_origin(tmp_path)
    assert main(["solve", "--problem", "squirmer", "--mesh-file",
                 str(mesh_path)]) == EXIT_IO
    assert "origin" in capsys.readouterr().err
