"""Benchmark of the stokeslet_surfaces package: one workload, one process.

Run from the root of a checkout:

    python3 bench/run.py --workload sphere-solve --seed 1 --seconds 36 --trace 0

The client is closed-loop: it sets up one op's inputs, runs the op through
the public API, waits for the result, checks it, and only then starts the
next. The first op is a warm-up: checked, not timed. Ops then run until the
next one would end more than half an op past `--seconds`.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics. With `--trace 1` it holds the per-layer metrics of the
traced ops; ops alternate traced and untraced, which gives
`trace_overhead`, and the spans are written to `.bench_out/`. The line
before the result is a JSON record of the seed, the machine and every op.
Failed ops show in the result (`correct`, `failed`, `ok_frac`); the exit
code is 0 whenever a result is printed, and 2 if there is no package to
measure.
"""

from __future__ import annotations

import os
import sys

# Pin the BLAS to one thread before numpy is imported: the baseline is the
# plain single-threaded run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# numpy, scipy and the benchmark modules that use them are imported inside
# functions, after the timed package import in main(), so that the import
# time in setup_s includes them.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
RESIDUAL_LIMIT = 1e-10
WORKLOAD_NAMES = ("sphere-solve", "field-eval", "duct-leak")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def tail_percentile(samples):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the
    maximum is reported then, as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    # xs[n - 11] has exactly ten samples above it
    return xs[n - 11], round(100.0 * (1.0 - 10.0 / n), 3)


def run_op(wl, ss, k, seed, tracer, instr, traced):
    """Set up op number `k`, run it, check it; return its record.

    In a traced run (`instr` given) every set-up is traced; the op itself
    only if `traced`.
    """
    import numpy as np

    import tracing

    rec = {"index": k, "traced": traced}
    rng = np.random.default_rng([seed, k])
    if instr is not None:
        tracer.enabled = True
        instr.install()
    rec["setup_root"] = len(tracer.spans)
    t0 = time.perf_counter()
    with tracer.span(tracing.SETUP):
        x = wl.setup(ss, rng, tracer)
    rec["setup_s"] = time.perf_counter() - t0
    if instr is not None and not traced:
        instr.restore()
        tracer.enabled = False
    if traced:
        rec["op_root"] = len(tracer.spans)
    out = checks = None
    t0 = time.perf_counter()
    try:
        with tracer.span(tracing.OP):
            out = wl.op(ss, x)
    except Exception:  # an op that raises is a failed op; the run goes on
        rec["error"] = traceback.format_exc(limit=3)
    rec["op_s"] = time.perf_counter() - t0
    if instr is not None:
        instr.restore()
    if out is not None:
        try:
            checks = wl.check(x, out)
        except Exception:  # outputs of the wrong shape or type fail the op
            rec["error"] = traceback.format_exc(limit=3)
    if checks is None:
        rec["ok"] = False
        return rec
    if traced:
        span_res = [s["attrs"]["residual_rel"] for s in tracer.tree(rec["op_root"])
                    if "residual_rel" in s["attrs"]]
        if span_res:
            checks["residual_rel"] = max([checks["residual_rel"] or 0.0] + span_res)
    rec.update(checks)
    rec["ok"] = bool(
        checks["finite"]
        and (checks["residual_rel"] is None or checks["residual_rel"] <= RESIDUAL_LIMIT)
        and wl.ref_err_range[0] <= checks["ref_err"] <= wl.ref_err_range[1]
    )
    return rec


def layer_metrics(tracer, records):
    """Median over traced ops of each per-layer metric, plus trace_overhead."""
    import tracing

    traced = [r for r in records if "op_root" in r]
    per_op = [tracing.op_layers(tracer.tree(r["setup_root"]), tracer.tree(r["op_root"]))
              for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    untraced = [r["op_s"] for r in records[1:] if "op_root" not in r]
    metrics["trace_overhead"] = (
        statistics.median(r["op_s"] for r in traced) / statistics.median(untraced) - 1.0
        if untraced else 0.0
    )
    return metrics


def span_checks(tracer, records):
    """Per traced op: the layers its span trees name, and its span self
    times plus untraced gap (the root's self time) against its wall time."""
    import tracing

    out = []
    for r in records:
        if "op_root" not in r:
            continue
        op_tree = tracer.tree(r["op_root"])
        selfs = tracing.self_times(op_tree)
        names = {s["name"] for s in op_tree + tracer.tree(r["setup_root"])}
        out.append({
            "index": r["index"],
            "layers": sorted({n.split(".")[0] for n in names} - {"bench"}),
            "spans": sorted(names),
            "wall_s": r["op_s"],
            "gap_s": selfs[0],
            "self_sum_s": sum(selfs),
        })
    return out


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "stokeslet_surfaces" / "__init__.py").is_file():
        print(f"error: no stokeslet_surfaces package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import stokeslet_surfaces as ss
    import_s = time.perf_counter() - t0
    hugepages = _numpy_hugepages_off()

    import envinfo
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = tracing.Tracer(enabled=False)
    instr = tracing.Instrumentation(ss, tracer) if args.trace else None

    records = [run_op(wl, ss, 0, args.seed, tracer, instr, traced=False)]
    window_start = time.perf_counter()
    cycles = []
    k = 1
    while not cycles or (time.perf_counter() - window_start
                         + 0.5 * statistics.median(cycles)) < args.seconds:
        c0 = time.perf_counter()
        traced = bool(args.trace) and k % 2 == 1
        records.append(run_op(wl, ss, k, args.seed, tracer, instr, traced))
        cycles.append(time.perf_counter() - c0)
        k += 1
    window_s = time.perf_counter() - window_start

    # a failed op counts as missing every latency limit
    timed = [r["op_s"] if r["ok"] else math.inf for r in records[1:] if not r["traced"]]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    ref_errs = [r["ref_err"] for r in records if math.isfinite(r.get("ref_err", math.nan))]

    if args.trace:
        values = layer_metrics(tracer, records)
    else:
        values = {
            "op_s": statistics.median(timed),
            "op_s_tail": tail_percentile(timed)[0],
            "setup_s": import_s + statistics.median(r["setup_s"] for r in records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            # the worst op: duct-leak's error depends on each op's eps/h draw
            "ref_err": max(ref_errs) if ref_errs else None,
            "ok_frac": (attempted - failed) / attempted,
        }
    units = _units()
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}

    trace_file = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"spans": tracer.spans, "missing_targets": instr.missing}, fh)
        trace_file = str(path.relative_to(ROOT))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client, 1 process",
        "env": envinfo.environment(ROOT, BLAS_THREADS),
        "numpy_hugepage_madvise": hugepages,
        "import_s": import_s,
        "window_s": window_s,
        "ref_err_range": wl.ref_err_range,
        "op_s_samples": len(timed),
        "op_s_tail_percentile": tail_percentile(timed)[1] if timed else None,
        "ops": [{key: r.get(key) for key in
                 ("index", "traced", "setup_s", "op_s", "ok", "ref_err",
                  "residual_rel", "finite", "error")} for r in records],
        "span_checks": span_checks(tracer, records),
        "missing_targets": instr.missing if instr else [],
        "trace_file": trace_file,
    }
    print(json.dumps(_json_safe({"record": record}), allow_nan=False))
    print(json.dumps(_json_safe({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), allow_nan=False))
    return 0


def _numpy_hugepages_off():
    """Stop numpy from asking for transparent huge pages for its arrays.

    Whether the kernel grants them depends on how fragmented the host's
    memory is, which made sphere-solve's peak RSS flip between 170 and
    200 MB from run to run. Returns the new setting ("off"), or "default"
    if this numpy has no such switch.
    """
    import numpy as np

    core = getattr(np, "_core", None) or getattr(np, "core", None)
    switch = getattr(getattr(core, "multiarray", None), "_set_madvise_hugepage", None)
    if switch is None:
        return "default"
    switch(False)
    return "off"


def _json_safe(obj):
    """Replace non-finite floats (from failed ops) by null."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _units():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
