"""Run every workload untraced and traced, then print all metrics in one report.

Usage (from the repository root):

    python3 perfbench/report.py [--seed 1] [--seconds N]

For each workload of ``BENCHMARK.json`` this runs ``perfbench/run.py`` with
``--trace 0`` and ``--trace 1``, then prints every end-to-end metric with its
unit and sample count, failed/attempted operations and the output-bundle
digest, followed by the per-layer metrics of the traced runs side by side
and the check of each workload's designed layer shares. Exits non-zero if
any run failed or reported incorrect outputs.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        print(f"{workload} trace={trace}: exit code {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    path = ROOT / ".bench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    args = parser.parse_args()

    workloads = [w["name"] for w in benchmark["workloads"]]
    ok = True
    traced: dict[str, dict] = {}
    for name in workloads:
        plain = _run(name, args.seed, args.seconds, 0)
        traced_result = _run(name, args.seed, args.seconds, 1)
        if plain is None or traced_result is None:
            ok = False
            continue
        traced[name] = traced_result
        summary = plain["summary"]
        print(f"== {name} (seed {args.seed}, {args.seconds} s measured)")
        for entry in benchmark["end_to_end"]:
            metric = summary["metrics"][entry["name"]]
            print(f"  {entry['name']:<16} {_fmt(metric['value']):>14} {metric['unit']:<5}"
                  f" samples {plain['samples'][entry['name']]}")
        print(f"  {'failed_ops':<16} {summary['failed']:>14} of {summary['attempted']} ops")
        print(f"  bundle sha256    {plain['bundle_digest']}")
        for failure in plain["failures"] + traced_result["failures"]:
            print(f"  FAILED {failure}")
        ok = ok and summary["correct"] and traced_result["summary"]["correct"]
    if traced:
        env = next(iter(traced.values()))["environment"]
        print("== environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
        names = list(traced)
        print("== per-layer metrics (traced runs; samples: "
              + ", ".join(f"{n} {traced[n]['samples']['trace.wall_s']}" for n in names) + ")")
        print(f"  {'metric':<36} {'unit':<6}" + "".join(f"{n:>14}" for n in names))
        for entry in benchmark["per_layer"]:
            row = "".join(
                f"{_fmt(traced[n]['summary']['metrics'][entry['name']]['value']):>14}"
                for n in names
            )
            print(f"  {entry['name']:<36} {entry['unit']:<6}{row}")
        print("== designed layer shares (traced runs)")
        for name in names:
            for check in traced[name]["design_checks"]:
                verdict = "holds" if check["holds"] else "DOES NOT HOLD"
                print(f"  {name:<12} {check['rule']:<44} {_fmt(check['value']):>10}  {verdict}")
            residual = traced[name]["all_values"]["trace.unaccounted_s"]
            print(f"  {name:<12} {'layer self times + pipeline.self_s - wall':<44}"
                  f" {_fmt(residual):>10}  (must be ~0)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
