"""Small-grid rows of the nine studies against committed golden CSVs.

A change that reorders floating-point work must keep every study row within
1e-12 relative (the rule for reordered arithmetic); this test makes that
rule checkable without a copy of the previous tree. Two kinds of row are
checked more loosely, with the bound stated below:

- rounding noise of sums that cancel: a quantity that is exactly 0 by
  symmetry (a sphere's sideways drag or torque, a squirmer's sideways swim
  speed and rotation, the rotating spheroid's error at its poles, the only
  polar vertices at f = 2) is left as 1e-17..1e-13 of round-off, whose
  relative change under a reordering is O(1);
- rows near the eps floor: the T moments about corner 0 carry a
  cancellation of relative size h/eps at a face's own corners, so a
  reordering moves a row by up to a few ulps times (1 + h/eps).

The study grids are small (f <= 3; pipe-leak at h_cube 1/6 with a coarse
duct) and take about a second together. The linear-vs-constant condition
rows appear only at f = `studies.CONDITION_F` = 4 and are not among them.

`python tests/test_golden.py` rewrites the CSVs from the current tree. Do so
only for a change meant to move study rows, and list the rows that moved.
"""

import csv
import math
import pathlib

import numpy as np
import pytest

from stokeslet_surfaces import run_study, write_report_csv

GOLDEN = pathlib.Path(__file__).parent / "golden"

GRIDS = {
    "forward-translate": {"f_values": [2, 3]},
    "forward-rotate": {"f_values": [2, 3]},
    "resistance-drag": {"f_values": [2, 3]},
    "resistance-torque": {"f_values": [2, 3]},
    "forward-spheroid": {"f_values": [2, 3]},
    "squirmer": {"f_values": [2, 3]},
    "linear-vs-constant": {"f_values": [2, 3]},
    # the default eps list: 1e-4, 1e-6, and 1e-8 where it is above the floor
    "mrs-comparison": {"f_values": [2, 3]},
    "pipe-leak": {"h_cube_values": [1.0 / 6.0], "eps_over_h": [0.1, 0.6],
                  "h_pipe": 1.0, "L": 1.0},
}

REL = 1e-12
# a golden value below this is round-off of a cancelling sum, and is checked
# to it absolutely: every other row is 1e-3 or more, and the drag, torque,
# swim speed and velocity beside them are O(1) to O(10)
NOISE_ABS = 1e-12
ULP = np.finfo(float).eps


def _tolerance(row):
    """Relative bound on a row: 1e-12, or ulp (1 + h/eps) where that is
    larger, at eps far below h."""
    h, eps = float(row["h"]), float(row["eps"])
    near_floor = ULP * (1.0 + h / eps) if eps > 0.0 else 0.0
    return max(REL, near_floor)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _key(row):
    return tuple(row[k] for k in ("experiment", "num_faces", "dof", "h", "eps", "metric"))


@pytest.mark.parametrize("study_id", sorted(GRIDS))
def test_study_rows_match_golden(study_id, tmp_path):
    path = tmp_path / f"{study_id}.csv"
    write_report_csv(run_study(study_id, GRIDS[study_id]), path)
    got, want = _rows(path), _rows(GOLDEN / f"{study_id}.csv")
    assert [_key(r) for r in got] == [_key(r) for r in want]
    for g, w in zip(got, want):
        value, ref = float(g["value"]), float(w["value"])
        if abs(ref) < NOISE_ABS:
            assert abs(value - ref) <= NOISE_ABS, _key(g)
        else:
            assert math.isclose(value, ref, rel_tol=_tolerance(w), abs_tol=0.0), (
                _key(g), value, ref)


def test_every_study_has_a_golden_grid():
    from stokeslet_surfaces import STUDY_IDS

    assert sorted(GRIDS) == sorted(STUDY_IDS)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for study_id, grid in GRIDS.items():
        write_report_csv(run_study(study_id, grid), GOLDEN / f"{study_id}.csv")
