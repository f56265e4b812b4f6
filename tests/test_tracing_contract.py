"""The benchmark's tracer still finds every package attribute it wraps.

`bench/tracing.py` swaps named functions, methods and properties of the
package for span wrappers. A renamed target would be skipped silently in a
benchmark run and only listed in `Instrumentation.missing`, so this test
installs the wrappers with a disabled tracer, requires that list to be
empty, and checks that `restore` puts every original attribute back.

The benchmark's residual gate on the studies' resistance solves reads the
`residual_rel` its solve wrapper records, which it can compute only when the
caller passes the assembled matrix as `matrix=`.
"""

import importlib.util
from pathlib import Path

import numpy as np

import stokeslet_surfaces as ss

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes():
    holders = [ss, ss.geometry, ss.kernel, ss.solver, ss.reference, ss.studies,
               np.linalg, ss.geometry.TriMesh, ss.kernel.KernelParams]
    return {(holder.__name__, name): value
            for holder in holders for name, value in vars(holder).items()}


def test_tracing_finds_every_target_and_restores_it():
    tracing = _load_tracing()
    before = _attributes()
    instr = tracing.Instrumentation(ss, tracing.Tracer(enabled=False))
    try:
        instr.install()
        assert instr.missing == []
        assert _attributes() != before  # the wrappers are in place
    finally:
        instr.restore()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_study_solves_report_their_residual():
    tracing = _load_tracing()
    tracer = tracing.Tracer(enabled=True)
    instr = tracing.Instrumentation(ss, tracer)
    try:
        instr.install()
        # the benchmark's duct-leak op, and a resistance study
        ss.run_study("pipe-leak", {"h_cube_values": [1.0 / 6.0], "h_pipe": 1.0,
                                   "L": 1.0, "eps_over_h": [0.1, 0.5]})
        ss.run_study("resistance-drag", {"f_values": [2]})
    finally:
        instr.restore()
    solves = [s["attrs"] for s in tracer.spans if s["name"] == tracing.SOLVE_RES]
    assert len(solves) == 3
    assert all(attrs["residual_rel"] < 1e-10 for attrs in solves)


def test_traced_sphere_solve_records_one_assembly():
    # the benchmark's sphere-solve op reuses its matrix in the swimmer solve,
    # so solver.assemble_calls and kernel.pairs count one assembly
    tracing = _load_tracing()
    tracer = tracing.Tracer(enabled=True)
    instr = tracing.Instrumentation(ss, tracer)
    mesh, kp = ss.make_icosphere(2), ss.KernelParams(eps=1e-4)
    try:
        instr.install()
        A = ss.assemble_resistance(mesh, kp)
        for bc in (np.tile([1.0, 0.0, 0.0], (mesh.num_vertices, 1)),
                   np.cross([0.0, 0.0, 1.0], mesh.vertices)):
            ss.solve_resistance(mesh, bc, kp, matrix=A)
        ss.solve_swimmer(mesh, np.cross([0.0, 0.0, 1.0], mesh.vertices), kp,
                         center=np.zeros(3))
    finally:
        instr.restore()
    names = [s["name"] for s in tracer.spans]
    assert names.count(tracing.ASSEMBLE) == 1
    swimmer = names.index(tracing.SWIMMER)
    assert tracing.ASSEMBLE not in [s["name"] for s in tracer.tree(swimmer)]
