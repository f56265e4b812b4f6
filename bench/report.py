"""Run every workload once untraced and once traced, and print every metric.

    python3 bench/report.py --seed 1 --seconds 36

Each run is a separate `bench/run.py` process, as in a benchmark run. The
table lists each metric by name with its value, unit and whether lower or
higher is better. The exit code is 1 if any run failed a correctness
check, exited with an error or left a metric out, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--workload", action="append", choices=names,
                   help="workload to run (repeatable; default: all)")
    args = p.parse_args(argv)

    ok = True
    for workload in args.workload or names:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(args.seed),
                                     "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"{workload} trace={trace}: no output, exit {proc.returncode}\n"
                      f"{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"] if len(lines) > 1 else {}
            print(f"\n== {workload}  trace={trace}  seed={args.seed}  "
                  f"correct={result['correct']}  attempted={result['attempted']}  "
                  f"failed={result['failed']}  exit={proc.returncode}")
            if trace == 0 and "env" in record:
                print("   env: " + json.dumps(record["env"]))
            for m in spec[kind]:
                value = result["metrics"].get(m["name"], {}).get("value")
                if value is None:
                    ok = False
                shown = "MISSING" if value is None else f"{value:.6g}"
                print(f"   {m['name']:<28} {shown:>14} {m['unit']:<8} {m['better']} is better")
            for op in record.get("ops", []):
                if not op["ok"]:
                    print(f"   FAILED op {op['index']}: ref_err={op['ref_err']} "
                          f"residual={op['residual_rel']} finite={op['finite']} "
                          f"{op['error'] or ''}")
            ok = ok and proc.returncode == 0 and result["correct"] and result["failed"] == 0
    print("\nall checks passed" if ok else "\nSOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
