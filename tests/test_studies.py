import numpy as np
import pytest

from stokeslet_surfaces import (
    ExperimentReport,
    FloatingFloorError,
    fit_loglog_slope,
    run_study,
    studies,
    write_field_csv,
    write_report_csv,
)
from stokeslet_surfaces.studies import (
    CSV_HEADER,
    STUDY_IDS,
    _triangle_quadrature_points,
)
from stokeslet_surfaces import triangle_frame

from oracles import triangle_param_point


def test_fit_loglog_slope_clean_power_law():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    err = 3.0 * h**2
    slope, used = fit_loglog_slope(h, err)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert used.all()


def test_fit_loglog_slope_excludes_plateau():
    h = np.array([0.4, 0.2, 0.1, 0.05, 0.025])
    err = np.array([0.16, 0.04, 0.01, 0.0099, 0.00985])  # saturates at 1e-2
    slope, used = fit_loglog_slope(h, err)
    assert not used[-1] and not used[-2]
    assert slope == pytest.approx(2.0, abs=0.05)


def test_unknown_study_rejected():
    with pytest.raises(ValueError):
        run_study("no-such-study")


@pytest.mark.parametrize("key", ["f_value", "kind", "report"])
@pytest.mark.parametrize("study_id", STUDY_IDS)
def test_unknown_setting_rejected_before_any_mesh_is_built(monkeypatch, study_id,
                                                           key):
    # a misspelt key, the paired studies' sphere kind and the report are not
    # settings: each raises instead of running the default sweep
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")

    for make_mesh in ("make_icosphere", "make_spheroid_mesh", "make_box_mesh",
                      "make_pipe_mesh"):
        monkeypatch.setattr(studies, make_mesh, no_mesh)
    with pytest.raises(ValueError, match=f"{study_id}.*{key}.*settings are .*mu"):
        run_study(study_id, {key: [2]})


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.name, which still runs."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_bad_eps_rejected_before_any_grid_point_is_solved(monkeypatch):
    assembled = _count_calls(monkeypatch, studies.solver, "assemble_resistance")
    with pytest.raises(ValueError, match="eps"):
        run_study("resistance-drag", {"f_values": [2, 3], "eps_values": [1e-4, -1.0]})
    assert assembled == []


@pytest.mark.parametrize("study_id, params", [
    ("mrs-comparison", {"f_values": [2, 3], "mrs_eps_values": [-1.0]}),
    ("mrs-comparison", {"f_values": [2, 3], "eps_values": [1e-4, -1.0]}),
    ("pipe-leak", {"h_cube_values": [0.25, 0.125], "eps_over_h": [0.1, -1.0]}),
])
def test_bad_eps_of_a_mesh_dependent_sweep_rejected_before_any_mesh_is_built(
        monkeypatch, study_id, params):
    # these two studies' eps lists depend on the mesh, so they skip _sweep
    built = [_count_calls(monkeypatch, studies, name)
             for name in ("make_icosphere", "make_box_mesh", "make_pipe_mesh")]
    evaluated = _count_calls(monkeypatch, studies.solver, "evaluate_velocity")
    with pytest.raises(ValueError, match="eps"):
        run_study(study_id, params)
    assert built == [[], [], []] and evaluated == []


def test_bad_mu_rejected_before_any_mesh_is_built(monkeypatch):
    built = _count_calls(monkeypatch, studies, "make_icosphere")
    evaluated = _count_calls(monkeypatch, studies.solver, "evaluate_velocity")
    with pytest.raises(ValueError, match="mu"):
        run_study("forward-translate", {"f_values": [2, 3], "mu": 0.0})
    assert built == [] and evaluated == []


@pytest.mark.parametrize("a", [0.25, 0.2])
def test_duct_no_wider_than_the_cube_rejected_before_any_mesh_is_built(monkeypatch,
                                                                       a):
    boxes = _count_calls(monkeypatch, studies, "make_box_mesh")
    pipes = _count_calls(monkeypatch, studies, "make_pipe_mesh")
    with pytest.raises(ValueError, match="exceed the cube's half side"):
        run_study("pipe-leak", {"a": a, "h_cube_values": [0.25]})
    assert boxes == [] and pipes == []


@pytest.mark.parametrize("study_id, params, entry, sweeps", [
    ("forward-translate", {"f_values": [2, 3], "eps_values": [1e-4, 1e-2, 1e-3]},
     "evaluate_velocity", [3, 3]),
    ("forward-spheroid", {"f_values": [2], "grading_values": [0.0, 0.5],
                          "eps_values": [1e-4, 1e-2]}, "evaluate_velocity", [2, 2]),
    ("linear-vs-constant", {"f_values": [2, 3], "eps_values": [1e-4, 1e-2]},
     "constant_evaluate_velocity", [2, 2]),
    ("mrs-comparison", {"f_values": [2, 3], "eps_values": [1e-3, 1e-5]},
     "evaluate_velocity", [2, 2]),
    # one sweep for each of the cube's two sides
    ("pipe-leak", {"h_cube_values": [0.25], "eps_over_h": [0.1, 0.5, 1.0],
                   "h_pipe": 1.0, "L": 1.0}, "evaluate_velocity", [3, 3]),
])
def test_eps_list_at_fixed_points_is_one_evaluation_per_mesh(monkeypatch, study_id,
                                                             params, entry, sweeps):
    sizes = []
    original = getattr(studies.solver, entry)

    def recorded(mesh, forces, points, params):
        sizes.append(len(params))
        return original(mesh, forces, points, params)

    monkeypatch.setattr(studies.solver, entry, recorded)
    run_study(study_id, params)
    assert sizes == sweeps


def test_report_rejects_non_finite():
    report = ExperimentReport(experiment="x")
    with pytest.raises(ValueError):
        report.add(1, 3, 0.1, 1e-4, "m", np.nan)


def test_report_csv_format(tmp_path):
    report = run_study("resistance-drag", {"f_values": [2], "eps_values": [1e-4]})
    path = tmp_path / "out.csv"
    write_report_csv(report, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    first = lines[1].split(",")
    assert first[0] == "resistance-drag"
    assert int(first[1]) == 80 and int(first[2]) == 126
    assert first[5] == "drag_x_rel_error"
    assert np.isfinite(float(first[6]))
    assert not list(tmp_path.glob("*.tmp"))  # atomic write left no temp files


def test_field_csv_format(tmp_path):
    pts = np.array([[1.0, 2.0, 3.0]])
    vel = np.array([[0.1, 0.2, 0.3]])
    path = tmp_path / "field.csv"
    write_field_csv(path, pts, vel)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y,z,ux,uy,uz"
    assert [float(t) for t in lines[1].split(",")] == [1, 2, 3, 0.1, 0.2, 0.3]


def test_triangle_quadrature_rule_exactness():
    # the 16-point product rule integrates low-order polynomials exactly
    frame = triangle_frame([0.0, 0, 0], [2.0, 0, 0], [0.3, 1.5, 0.0])
    pts, wts = _triangle_quadrature_points(frame)
    assert len(pts) == 16
    area = 0.5 * frame.BH[0]
    assert wts.sum() == pytest.approx(area, rel=1e-13)
    # integral of x over the triangle equals area times centroid x
    cx = (frame.y0[0, 0] + frame.y1[0, 0] + frame.y2[0, 0]) / 3.0
    assert np.sum(wts * pts[:, 0]) == pytest.approx(area * cx, rel=1e-12)
    got = np.sum(wts * pts[:, 0] ** 2 * pts[:, 1])
    from scipy.integrate import dblquad

    ref, _ = dblquad(
        lambda b, a: (lambda y: y[0] ** 2 * y[1])(
            triangle_param_point(frame, a, b)
        ) * frame.BH[0],
        0, 1, 0, lambda a: a, epsabs=1e-14, epsrel=1e-12,
    )
    assert got == pytest.approx(ref, rel=1e-10)


def test_forward_translate_study_converges():
    report = run_study("forward-translate",
                       {"f_values": [2, 3, 4], "eps_values": [1e-4]})
    errs = report.values("l2_error")
    assert len(errs) == 3
    assert errs[0] > errs[1] > errs[2]
    slope = report.values("fit_slope")[0]
    assert 1.5 < slope < 2.5


def test_forward_spheroid_polar_errors_dominate():
    report = run_study(
        "forward-spheroid",
        {"f_values": [5], "eps_values": [1e-4], "grading_values": [0.0, 1.0]},
    )
    uni_max = [r for r in report.rows
               if r["metric"] == "grading=0:polar_max_error"][0]["value"]
    uni_med = [r for r in report.rows
               if r["metric"] == "grading=0:equator_median_error"][0]["value"]
    graded_max = [r for r in report.rows
                  if r["metric"] == "grading=1:polar_max_error"][0]["value"]
    assert uni_max > uni_med  # polar errors dominate on the uniform mesh
    assert graded_max < uni_max  # grading reduces the polar maximum


def _surface_eps_by_faces(report):
    by_faces = {}
    for r in report.rows:
        if r["metric"] == "surfaces_l2_error":
            by_faces.setdefault(r["num_faces"], []).append(r["eps"])
    return by_faces


def test_mrs_comparison_default_eps_above_floor():
    # the floor is 1.05e-8 at f=2, so the default 1e-8 is left out there
    coarse = run_study("mrs-comparison", {"f_values": [2], "mrs_eps_values": [5e-2]})
    assert _surface_eps_by_faces(coarse) == {80: [1e-4, 1e-6]}
    assert len(coarse.values("mrs_l2_error")) == 1
    fine = run_study("mrs-comparison", {"f_values": [4], "mrs_eps_values": [5e-2]})
    assert _surface_eps_by_faces(fine) == {320: [1e-4, 1e-6, 1e-8]}
    # one sweep filters the default list by each mesh's own floor
    both = run_study("mrs-comparison", {"f_values": [2, 4], "mrs_eps_values": [5e-2]})
    assert _surface_eps_by_faces(both) == {80: [1e-4, 1e-6], 320: [1e-4, 1e-6, 1e-8]}
    assert len(both.values("mrs_l2_error")) == 2


def test_mrs_comparison_explicit_eps_below_floor_raises():
    with pytest.raises(FloatingFloorError):
        run_study("mrs-comparison", {"f_values": [2], "eps_values": [1e-4, 1e-8]})


def test_study_rows_reproducible():
    params = {"f_values": [2], "eps_values": [1e-4]}
    a = run_study("resistance-torque", params)
    b = run_study("resistance-torque", params)
    assert a.rows == b.rows
