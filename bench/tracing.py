"""In-memory span tracer and the wrappers that put it around the package.

A span records name, start, end and parent index. Spans live in a list and
are written out once, when the run ends. In a traced run the benchmark swaps
module attributes of `stokeslet_surfaces` for wrappers that open a span
around each call, and swaps them back afterwards. Because the swap happens
on module attributes, calls made from inside the package are traced too:
`solve_swimmer` -> `assemble_resistance`, `run_study` -> `evaluate_velocity`
and `pipe_reference`, and `solver`'s `np.linalg.solve`. Nothing under `src/`
is edited.

Self time of a span is its duration minus the time its children cover;
self times of a tree add up to the root's duration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

# Span names, one per wrapped boundary. The prefix before the first dot is
# the package module (layer) the span belongs to.
ASSEMBLE = "solver.assemble_resistance"
EVALUATE = "solver.evaluate_velocity"
SOLVE_RES = "solver.solve_resistance"
SWIMMER = "solver.solve_swimmer"
NET_FORCE = "solver.net_force"
NET_TORQUE = "solver.net_torque"
DENSE = "solver.dense_solve"
BLOCKS = "kernel.velocity_blocks"
FLOOR = "kernel.validate_for_mesh"
STUDY = "studies.run_study"
PIPE = "reference.pipe_reference"
REF_INPUTS = "reference.inputs"
MESH = "geometry.mesh"
FRAMES = "geometry.frames"
CHECK = "bench.check"
OP = "bench.op"
SETUP = "bench.setup"


class Tracer:
    """Collects spans; `span` is a no-op while `enabled` is false."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        idx = len(self.spans)
        rec = {
            "id": idx,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(idx)
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def tree(self, root: int) -> list[dict]:
        """The span at index `root` and all its descendants, in start order."""
        keep = {root}
        out = [self.spans[root]]
        for i in range(root + 1, len(self.spans)):
            if self.spans[i]["parent"] in keep:
                keep.add(i)
                out.append(self.spans[i])
        return out


def self_times(tree: list[dict]) -> list[float]:
    """Duration minus the time covered by child spans, for each span of `tree`.

    Children of one parent never overlap (one thread), so the time they
    cover is the sum of their durations.
    """
    local = {s["id"]: k for k, s in enumerate(tree)}
    out = [s["end"] - s["start"] for s in tree]
    for s in tree[1:]:
        k = local.get(s["parent"])
        if k is not None:
            out[k] -= s["end"] - s["start"]
    return out


def residual_rel(matrix, rhs, solution) -> float:
    """||A f - b|| / ||b|| of a dense solve."""
    b = np.asarray(rhs, dtype=float).reshape(-1)
    f = np.asarray(solution, dtype=float).reshape(-1)
    return float(np.linalg.norm(matrix @ f - b) / np.linalg.norm(b))


class Instrumentation:
    """Swaps package attributes for tracing wrappers; `restore` undoes it.

    Each target is replaced in every module of the package that holds the
    same object, so re-exports and `from .x import y` aliases are covered.
    A target that no longer exists is listed in `missing` and skipped.
    """

    def __init__(self, ss, tracer: Tracer):
        self.ss = ss
        self.tracer = tracer
        self.missing: list[str] = []
        self._undo: list[tuple] = []
        self._modules = [
            ss, ss.geometry, ss.kernel, ss.solver, ss.reference, ss.studies,
        ]

    # -- generic swapping -------------------------------------------------

    def _swap_function(self, module, attr, make_wrapper):
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = make_wrapper(orig)
        holders = [m for m in self._modules if getattr(m, attr, None) is orig]
        if module not in holders:
            holders.append(module)
        for m in holders:
            self._undo.append((m, attr, orig))
            setattr(m, attr, wrapper)

    def _swap_class_attr(self, cls, attr, new):
        orig = cls.__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, new(orig))

    def restore(self) -> None:
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()

    # -- the targets --------------------------------------------------------

    def install(self) -> "Instrumentation":
        ss, span = self.ss, self.tracer.span
        self.missing = []

        def simple(name):
            # a plain function also works as a method: `self` is args[0]
            def make(orig):
                def wrapper(*args, **kwargs):
                    with span(name):
                        return orig(*args, **kwargs)
                return wrapper
            return make

        def assemble(orig):
            def wrapper(mesh, params, *args, **kwargs):
                n = mesh.num_vertices
                with span(ASSEMBLE, pairs=mesh.num_faces * n,
                          faces=mesh.num_faces, vertices=n,
                          matrix_bytes=8 * (3 * n) ** 2):
                    return orig(mesh, params, *args, **kwargs)
            return wrapper

        def evaluate(orig):
            def wrapper(mesh, forces, points, params, *args, **kwargs):
                m = len(np.atleast_2d(points))
                with span(EVALUATE, pairs=mesh.num_faces * m,
                          faces=mesh.num_faces, vertices=mesh.num_vertices):
                    return orig(mesh, forces, points, params, *args, **kwargs)
            return wrapper

        def solve_resistance(orig):
            def wrapper(mesh, velocities, params, matrix=None, *args, **kwargs):
                with span(SOLVE_RES) as attrs:
                    forces = orig(mesh, velocities, params, matrix, *args, **kwargs)
                    if matrix is not None:
                        with span(CHECK):
                            attrs["residual_rel"] = residual_rel(matrix, velocities, forces)
                return forces
            return wrapper

        def dense(orig):
            def wrapper(a, b, *args, **kwargs):
                n = np.shape(a)[0]
                with span(DENSE, flops=2.0 / 3.0 * n**3):
                    return orig(a, b, *args, **kwargs)
            return wrapper

        def frames(prop):
            def fget(mesh):
                with span(FRAMES):
                    return prop.fget(mesh)
            return property(fget, doc=prop.__doc__)

        solver, studies, geometry = ss.solver, ss.studies, ss.geometry
        self._swap_function(solver, "assemble_resistance", assemble)
        self._swap_function(solver, "evaluate_velocity", evaluate)
        self._swap_function(solver, "solve_resistance", solve_resistance)
        self._swap_function(solver, "solve_swimmer", simple(SWIMMER))
        self._swap_function(solver, "net_force", simple(NET_FORCE))
        self._swap_function(solver, "net_torque", simple(NET_TORQUE))
        self._swap_function(solver, "_velocity_blocks", simple(BLOCKS))
        self._swap_function(np.linalg, "solve", dense)
        self._swap_function(studies, "run_study", simple(STUDY))
        self._swap_function(ss.reference, "pipe_reference", simple(PIPE))
        self._swap_function(ss.reference, "flux_without_cube", simple(REF_INPUTS))
        for make_mesh in ("make_icosphere", "make_box_mesh", "make_pipe_mesh"):
            self._swap_function(geometry, make_mesh, simple(MESH))
        self._swap_class_attr(geometry.TriMesh, "merged_with", simple(MESH))
        self._swap_class_attr(geometry.TriMesh, "transformed", simple(MESH))
        self._swap_class_attr(geometry.TriMesh, "frames", frames)
        self._swap_class_attr(ss.kernel.KernelParams, "validate_for_mesh",
                              simple(FLOOR))
        return self


def _duration(span) -> float:
    return span["end"] - span["start"]


def op_layers(setup_tree: list[dict], op_tree: list[dict]) -> dict:
    """Per-layer metrics of one op, from the span trees of its set-up and run.

    Times are inclusive span totals in seconds, except the `self` ones.
    Counts come from the inputs the wrappers saw, so they repeat exactly.
    """
    both = setup_tree + op_tree
    op_self = dict(zip(map(id, op_tree), self_times(op_tree)))

    def named(name, tree=op_tree):
        return [s for s in tree if s["name"] == name]

    def total(name, tree=op_tree):
        return sum((_duration(s) for s in named(name, tree)), 0.0)

    def attr_sum(spans, key):
        return sum(s["attrs"].get(key, 0) for s in spans)

    assembles, evaluates, dense = named(ASSEMBLE), named(EVALUATE), named(DENSE)
    assemble_s, evaluate_s, dense_s = total(ASSEMBLE), total(EVALUATE), total(DENSE)
    assemble_pairs = attr_sum(assembles, "pairs")
    evaluate_pairs = attr_sum(evaluates, "pairs")
    pairs = assemble_pairs + evaluate_pairs
    residuals = [s["attrs"]["residual_rel"] for s in named(SOLVE_RES)
                 if "residual_rel" in s["attrs"]]
    meshes = assembles + evaluates

    def per_pair_ns(seconds, n):
        return seconds / n * 1e9 if n else 0.0

    return {
        "geometry.mesh_s": total(MESH, both),
        "geometry.frames_s": total(FRAMES, both),
        "geometry.faces": max((s["attrs"]["faces"] for s in meshes), default=0),
        "geometry.vertices": max((s["attrs"]["vertices"] for s in meshes), default=0),
        "reference.inputs_s": total(REF_INPUTS, both),
        "reference.pipe_s": total(PIPE),
        "kernel.pairs": pairs,
        "kernel.pair_ns": per_pair_ns(assemble_s + evaluate_s, pairs),
        "solver.assemble_s": assemble_s,
        "solver.assemble_calls": len(assembles),
        "solver.assemble_pair_ns": per_pair_ns(assemble_s, assemble_pairs),
        "solver.evaluate_s": evaluate_s,
        "solver.evaluate_pair_ns": per_pair_ns(evaluate_s, evaluate_pairs),
        "solver.matrix_mb": max((s["attrs"]["matrix_bytes"] for s in assembles),
                                default=0) / 1e6,
        "solver.dense_solve_s": dense_s,
        "solver.dense_solve_gflops": attr_sum(dense, "flops") / dense_s / 1e9
        if dense_s else 0.0,
        "solver.swimmer_rows_s": sum((op_self[id(s)] for s in named(SWIMMER)), 0.0),
        "solver.net_force_torque_s": total(NET_FORCE) + total(NET_TORQUE),
        "solver.residual_rel": max(residuals, default=0.0),
        "studies.self_s": sum((op_self[id(s)] for s in named(STUDY)), 0.0),
    }
