"""Self-test of the benchmark itself, not of the package.

    python3 bench/selftest.py

Runs one traced op per workload on each of two seeds (about 15 s) and
checks that:

* the two seeds give different inputs but identical counts
  (`geometry.*`, `kernel.pairs`, `solver.assemble_calls`,
  `solver.matrix_mb`);
* each op's span tree names every layer the workload is meant to exercise,
  and the layers it is meant to bypass record no work;
* span self times plus the untraced gap add up to the op's wall time
  within SUM_TOL_S + SUM_TOL_REL * wall;
* the tail percentile picks the sample with ten beyond it;
* `bench/run.py` exits non-zero, printing no result, in a directory that
  holds only `BENCHMARK.json` and the benchmark's own files.

Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run  # pins the BLAS before numpy is imported

import numpy as np

sys.path.insert(0, str(run.SRC))
import stokeslet_surfaces as ss  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2)
SUM_TOL_S = 1e-3
SUM_TOL_REL = 1e-3
COUNTS = ("geometry.faces", "geometry.vertices", "kernel.pairs",
          "solver.assemble_calls", "solver.matrix_mb")
# per workload: layers its span tree must name, and per-layer metrics that
# must be zero because the workload bypasses that path
EXPECT = {
    "sphere-solve": ({"geometry", "kernel", "reference", "solver"},
                     ("solver.evaluate_s", "reference.pipe_s", "studies.self_s")),
    "field-eval": ({"geometry", "kernel", "reference", "solver"},
                   ("solver.assemble_calls", "solver.dense_solve_s",
                    "solver.swimmer_rows_s", "solver.net_force_torque_s",
                    "reference.pipe_s", "studies.self_s")),
    "duct-leak": ({"geometry", "kernel", "reference", "solver", "studies"},
                  ("solver.swimmer_rows_s", "solver.net_force_torque_s")),
}


def _differs(a: dict, b: dict) -> bool:
    """True if any array-valued input differs between two set-ups."""
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, dict):
            if va != vb:
                return True
        elif isinstance(va, np.ndarray) and not np.array_equal(va, vb):
            return True
    return False


def check_workload(name, failures):
    wl = WORKLOADS[name]
    layers_expected, bypassed = EXPECT[name]
    counts, inputs = {}, {}
    for seed in SEEDS:
        tracer = tracing.Tracer(enabled=False)
        instr = tracing.Instrumentation(ss, tracer)
        rec = run.run_op(wl, ss, 1, seed, tracer, instr, traced=True)
        inputs[seed] = wl.setup(ss, np.random.default_rng([seed, 1]),
                                tracing.Tracer(enabled=False))
        if not rec["ok"]:
            failures.append(f"{name} seed {seed}: op failed its checks: {rec}")
            continue
        if instr.missing:
            failures.append(f"{name}: wrapped targets missing: {instr.missing}")
        metrics = tracing.op_layers(tracer.tree(rec["setup_root"]),
                                    tracer.tree(rec["op_root"]))
        counts[seed] = {c: metrics[c] for c in COUNTS}
        for metric in bypassed:
            if metrics[metric] != 0:
                failures.append(f"{name}: {metric} = {metrics[metric]}, expected 0")
        (tree,) = run.span_checks(tracer, [rec])
        if not layers_expected <= set(tree["layers"]):
            failures.append(f"{name}: span tree lacks layers "
                            f"{layers_expected - set(tree['layers'])}")
        wall = tree["wall_s"]
        if abs(tree["self_sum_s"] - wall) > SUM_TOL_S + SUM_TOL_REL * wall:
            failures.append(f"{name}: self times and gap sum to "
                            f"{tree['self_sum_s']} s, wall {wall} s")
        print(f"{name} seed {seed}: op {wall:.3f} s, gap {tree['gap_s']:.2e} s, "
              f"layers {tree['layers']}, counts {counts[seed]}")
    if len(counts) == len(SEEDS) and counts[SEEDS[0]] != counts[SEEDS[1]]:
        failures.append(f"{name}: counts differ between seeds: {counts}")
    if not _differs(inputs[SEEDS[0]], inputs[SEEDS[1]]):
        failures.append(f"{name}: seeds {SEEDS} gave identical inputs")
    again = wl.setup(ss, np.random.default_rng([SEEDS[0], 1]), tracing.Tracer(enabled=False))
    if _differs(inputs[SEEDS[0]], again):
        failures.append(f"{name}: the same seed gave different inputs")


def check_tail(failures):
    xs = list(range(20))
    if run.tail_percentile(xs)[0] != 9:  # 10..19 lie beyond 9
        failures.append(f"tail_percentile(0..19) = {run.tail_percentile(xs)}")
    if run.tail_percentile([3.0, 1.0, 2.0])[0] != 3.0:
        failures.append("tail_percentile of three samples is not their maximum")


def check_bare_directory(failures):
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        spec = json.loads((bare / "BENCHMARK.json").read_text())
        cmd = spec["command"] + ["--workload", "field-eval", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"bare directory: exit {proc.returncode}, "
                            f"stdout {proc.stdout[:200]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures: list[str] = []
    check_tail(failures)
    check_bare_directory(failures)
    for name in WORKLOADS:
        check_workload(name, failures)
    for f in failures:
        print("FAIL:", f)
    print("selftest passed" if not failures else f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
