import numpy as np
import pytest

from stokeslet_surfaces import (
    ExperimentReport,
    FloatingFloorError,
    fit_loglog_slope,
    run_study,
    write_field_csv,
    write_report_csv,
)
from stokeslet_surfaces.studies import CSV_HEADER, _triangle_quadrature_points
from stokeslet_surfaces import triangle_frame


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
            (frame.y0 - a * frame.L1 * frame.vhat - b * frame.L2 * frame.what)[0]
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


def test_mrs_comparison_default_eps_above_floor():
    # the floor is 1.05e-8 at f=2, so the default 1e-8 is left out there
    coarse = run_study("mrs-comparison", {"f": 2, "mrs_eps_values": [5e-2]})
    rows = [r for r in coarse.rows if r["metric"] == "surfaces_l2_error"]
    assert [r["eps"] for r in rows] == [1e-4, 1e-6]
    assert len(coarse.values("mrs_l2_error")) == 1
    fine = run_study("mrs-comparison", {"f": 4, "mrs_eps_values": [5e-2]})
    rows = [r for r in fine.rows if r["metric"] == "surfaces_l2_error"]
    assert [r["eps"] for r in rows] == [1e-4, 1e-6, 1e-8]


def test_mrs_comparison_explicit_eps_below_floor_raises():
    with pytest.raises(FloatingFloorError):
        run_study("mrs-comparison", {"f": 2, "eps_values": [1e-4, 1e-8]})


def test_study_rows_reproducible():
    params = {"f_values": [2], "eps_values": [1e-4]}
    a = run_study("resistance-torque", params)
    b = run_study("resistance-torque", params)
    assert a.rows == b.rows
