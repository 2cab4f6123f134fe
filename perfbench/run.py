"""rtscope benchmark: seeded synthetic workloads run through the real CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload full --seed 1 --seconds 10 --trace 0

Each operation runs ``python -m rtscope.cli <stage> --config ...`` in child
processes, one at a time (a closed loop with one client), and is timed from
outside: wall time, user+system CPU and peak RSS come from ``os.wait4``.
``--trace 1`` instead runs every stage under ``trace_boot.py``, which puts
spans around each layer's public functions, and reports the per-layer
metrics of ``BENCHMARK.json``. The program only ever sees the generated
files. Scratch files live in ``.bench_work/`` and the detailed result of
each run is kept in ``.bench_work/results/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import importlib.util
import json
import operator
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 165.0  # the whole run, set-up included, must end well within 180 s
SETUP_REPEATS = 3  # set-up runs per untraced run; setup_s is their median
SPAN_METRICS = {
    # per-layer metric -> (span name, field)
    "ingest.records.parse_s": ("ingest.records.parse", "self_s"),
    "ingest.records.parse_passes": ("ingest.records.parse", "calls"),
    "ingest.records.rss_step_mib": ("ingest.records.parse", "rss_step_mib"),
    "ingest.botscores.load_s": ("ingest.botscores.load", "self_s"),
    "ingest.botscores.fetch_into_s": ("ingest.botscores.fetch_into", "self_s"),
    "ingest.botscores.fetch_into_calls": ("ingest.botscores.fetch_into", "calls"),
    "graph.build_s": ("graph.build", "self_s"),
    "graph.to_undirected_s": ("graph.to_undirected", "self_s"),
    "graph.to_undirected.rss_step_mib": ("graph.to_undirected", "rss_step_mib"),
    "graph.degree_stats_s": ("graph.degree_stats", "self_s"),
    "graph.save_s": ("graph.save", "self_s"),
    "graph.load_s": ("graph.load", "self_s"),
    "graph.load_calls": ("graph.load", "calls"),
    "graph.link_density_s": ("graph.link_density", "self_s"),
    "graph.link_density_calls": ("graph.link_density", "calls"),
    "community.louvain_s": ("community.louvain", "self_s"),
    "community.modularity_s": ("community.modularity", "self_s"),
    "community.partition_io_s": ("community.partition_io", "self_s"),
    "metrics.user_tallies_s": ("metrics.user_tallies", "self_s"),
    "metrics.build_profiles_s": ("metrics.build_profiles", "self_s"),
    "metrics.build_url_table_s": ("metrics.build_url_table", "self_s"),
    "metrics.build_url_table_calls": ("metrics.build_url_table", "calls"),
    "stats.null_model_report_s": ("stats.null_model_report", "self_s"),
    "stats.mann_whitney_s": ("stats.mann_whitney", "self_s"),
    "stats.mann_whitney_calls": ("stats.mann_whitney", "calls"),
    "stats.success_curves_s": ("stats.success_curves", "self_s"),
}
COUNTER_METRICS = {
    "ingest.records.records": "ingest.records.parse.records",
    "graph.nodes": "graph.nodes",
    "graph.edges": "graph.edges",
    "community.n_communities": "community.n_communities",
    "metrics.urls_total": "metrics.urls_total",
    "stats.mann_whitney_values": "stats.mann_whitney_values",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (broken checkout or set-up)."""


# ---------------------------------------------------------------------------
# child processes


class Runner:
    """Starts one child at a time in the work directory and measures it."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("RTSCOPE_")}
        self.env.update(
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            TMPDIR=str(work / "tmp"),
        )
        self._proc: subprocess.Popen | None = None
        self._n = 0

    def _kill(self, *_args) -> None:
        if self._proc is not None:
            self._proc.kill()

    def run(self, args: list[str]) -> dict:
        """Run ``python3 <args>``; return wall, cpu, peak RSS, exit code and output."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError("time budget of the run exhausted")
        self._n += 1
        out_path = self.work / "tmp" / f"child{self._n}.out"
        err_path = self.work / "tmp" / f"child{self._n}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            self._proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.work, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            previous = signal.signal(signal.SIGALRM, self._kill)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(self._proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.monotonic() - start
        self._proc.returncode = os.waitstatus_to_exitcode(status)
        self._proc = None
        result = {
            "args": args,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mib": usage.ru_maxrss / 1024.0,
            "code": os.waitstatus_to_exitcode(status),
            "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
        }
        out_path.unlink()
        err_path.unlink()
        return result

    def cli(self, stage: list[str], spans: Path | None = None) -> dict:
        if spans is None:
            return self.run(["-m", "rtscope.cli", *stage])
        return self.run(
            [str(HERE / "trace_boot.py"), str(spans), repr(time.monotonic()), "--", *stage]
        )


def _child_ok(result: dict) -> str | None:
    """Why a child failed, or None."""
    command = " ".join(result["args"][-3:])
    if result["code"] != 0:
        return f"{command}: exit code {result['code']}: {result['stderr'][-400:]}"
    if "Traceback" in result["stderr"]:
        return f"{command}: traceback on stderr"
    return None


# ---------------------------------------------------------------------------
# workload


class Workload:
    def __init__(self, name: str, seed: int, runner: Runner) -> None:
        table = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
        if name not in table:
            raise BenchError(f"unknown workload {name!r}; choose from {sorted(table)}")
        self.name = name
        self.seed = seed
        self.desc = table[name]
        self.runner = runner
        self.work = runner.work
        self.out = self.work / "out"
        self.cache = self.work / "cache"
        self.spec_path = ROOT / self.desc["spec"]
        self.spec = json.loads(self.spec_path.read_text(encoding="utf-8"))
        self.setup_files: set[str] = set()
        self.truth: dict = {}
        self.n_records = 0

    # -- set-up ----------------------------------------------------------

    def _write_config(self) -> None:
        config = {
            "tweets": "inputs/tweets.jsonl",
            "unreliable_sources": "inputs/sources_unreliable.txt",
            "reliable_sources": "inputs/sources_reliable.txt",
            "out_dir": "out",
            **self.desc["config"],
        }
        lines = [f"{key} = {value}\n" for key, value in config.items()]
        (self.work / "run.cfg").write_text("".join(lines), encoding="utf-8")

    def setup(self, traced: bool = False) -> tuple[float, dict | None]:
        """Generate the inputs and run the set-up stages; return (seconds, synth spans)."""
        for sub in ("inputs", "out", "cache", "spans"):
            shutil.rmtree(self.work / sub, ignore_errors=True)
        (self.work / "spans").mkdir()
        self._write_config()
        spans_path = self.work / "spans" / "synth.json" if traced else None
        steps = [self.runner.cli(
            ["synth", "--spec", str(self.spec_path), "--seed", str(self.seed), "-o", "inputs"],
            spans_path,
        )]
        for stage in self.desc["setup"]:
            steps.append(self.runner.cli([stage, "--config", "run.cfg"]))
        if "service_endpoint" in self.desc["config"]:
            steps.append(self.runner.run([
                str(HERE / "fill_cache.py"), self.desc["config"]["service_endpoint"],
                self.desc["config"]["service_cache_dir"], "out/nodes.csv",
                "inputs/bot_scores.csv",
            ]))
        for step in steps:
            problem = _child_ok(step)
            if problem:
                raise BenchError(f"set-up failed: {problem}")
        self.out.mkdir(exist_ok=True)
        self.setup_files = {p.name for p in self.out.iterdir()}
        self.truth = json.loads((self.work / "inputs" / "ground_truth.json").read_text("utf-8"))
        with open(self.work / "inputs" / "tweets.jsonl", "rb") as fh:
            self.n_records = sum(1 for _ in fh)
        synth_spans = json.loads(spans_path.read_text("utf-8")) if traced else None
        return sum(step["wall_s"] for step in steps), synth_spans

    # -- one operation ---------------------------------------------------

    def _reset_outputs(self) -> None:
        for path in self.out.iterdir():
            if path.name not in self.setup_files:
                path.unlink()

    def _cache_files(self) -> int:
        return sum(1 for _ in self.cache.iterdir()) if self.cache.exists() else 0

    def op(self, traced: bool = False) -> dict:
        """Run the workload's stages once; return timings, checks and the bundle digest."""
        self._reset_outputs()
        cache_before = self._cache_files()
        children = []
        for i, stage in enumerate(self.desc["op"]):
            spans = self.work / "spans" / f"op{i}-{stage}.json" if traced else None
            if spans is not None and spans.exists():
                spans.unlink()
            children.append(self.runner.cli([stage, "--config", "run.cfg"], spans))
        result = {
            "wall_s": sum(c["wall_s"] for c in children),
            "cpu_s": sum(c["cpu_s"] for c in children),
            "peak_rss_mib": max(c["maxrss_mib"] for c in children),
            "children": [
                {k: c[k] for k in ("wall_s", "cpu_s", "maxrss_mib", "code")} for c in children
            ],
            "service_requests": self._cache_files() - cache_before,
        }
        result["problems"] = self._check(children, result)
        result["digest"] = self._digest()
        if traced:
            result["spans"] = [
                json.loads((self.work / "spans" / f"op{i}-{stage}.json").read_text("utf-8"))
                for i, stage in enumerate(self.desc["op"])
            ]
        return result

    def _json(self, name: str) -> dict:
        return json.loads((self.out / name).read_text(encoding="utf-8"))

    def _check(self, children: list[dict], result: dict) -> list[str]:
        """Correctness checks of one operation's outputs; an empty list means it passed."""
        problems = [p for p in map(_child_ok, children) if p]
        if problems:
            return problems
        try:
            parse = self._json("parse_report.json")
            nodes = self._json("graph_report.json")["nodes"]
            if "all" in self.desc["op"]:
                manifest = self._json("manifest.json")
                if not manifest["reconciliation"]["consistent"]:
                    problems.append("manifest reconciliation is not consistent")
            if parse["parsed"] != self.n_records or parse["malformed"] != 0:
                problems.append(
                    f"parsed {parse['parsed']} records ({parse['malformed']} malformed), "
                    f"generator wrote {self.n_records}"
                )
            if nodes != sum(self.spec["community_sizes"]):
                problems.append(f"graph has {nodes} nodes, spec has "
                                f"{sum(self.spec['community_sizes'])} users")
            problems += self._check_planted()
            if "service_endpoint" in self.desc["config"]:
                unavailable = self._json("scores_report.json")["bot_scores_unavailable"]
                if unavailable != 0:
                    problems.append(f"bot_scores_unavailable = {unavailable}")
                if result["service_requests"] != 0:
                    problems.append(
                        f"{result['service_requests']} scoring-service requests (cache was warm)"
                    )
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"missing or unreadable output: {exc!r}")
        return problems

    def _check_planted(self) -> list[str]:
        """Every unreliable breadth-1 planted URL shared often enough must be in the low class."""
        with open(self.out / "url_report.csv", newline="", encoding="utf-8") as fh:
            classes = {row["url"]: row["entropy_class"] for row in csv.DictReader(fh)}
        min_shares = int(self.desc["config"]["min_shares"])
        sizes = self.spec["community_sizes"]
        problems = []
        for url in self.truth["urls"]:
            if not url["unreliable"] or len(url["communities"]) != 1:
                continue
            n_ops = len(url["op_ids"])
            shares = n_ops + min(url["planned_retweets"], sizes[url["communities"][0]] - n_ops)
            if shares <= min_shares:
                continue
            canonical = url["url"].split("://", 1)[1]
            if classes.get(canonical) != "low":
                problems.append(f"planted URL {canonical}: entropy class "
                                f"{classes.get(canonical, 'absent')}, expected low")
        return problems

    def _digest(self) -> str:
        digest = hashlib.sha256()
        for path in sorted(self.out.iterdir()):
            digest.update(path.name.encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
        return digest.hexdigest()

    def modularity(self) -> float:
        return float(self._json("communities_report.json")["modularity"])


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(op: dict, synth: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation (all of its processes)."""
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for proc in op["spans"]:
        for name, entry in proc["spans"].items():
            agg = spans.setdefault(name, {"self_s": 0.0, "calls": 0, "rss_step_mib": 0.0})
            agg["self_s"] += entry["self_s"]
            agg["calls"] += entry["calls"]
            agg["rss_step_mib"] = max(agg["rss_step_mib"], entry["rss_step_mib"])
        for key, value in proc["counters"].items():
            summed = key.endswith(".records") or key == "stats.mann_whitney_values"
            counters[key] = counters.get(key, 0) + value if summed else max(
                counters.get(key, 0), value)
    metrics = {
        name: spans.get(span, {}).get(field, 0) for name, (span, field) in SPAN_METRICS.items()
    }
    metrics.update({name: counters.get(key, 0) for name, key in COUNTER_METRICS.items()})
    hits = sum(p["normalize"]["hits"] for p in op["spans"])
    calls = hits + sum(p["normalize"]["misses"] for p in op["spans"])
    metrics["ingest.urls.normalize_calls"] = calls
    metrics["ingest.urls.normalize_hit_ratio"] = hits / calls if calls else 0.0
    metrics["ingest.botscores.service_requests"] = op["service_requests"]
    metrics["pipeline.startup_s"] = sum(p["startup_s"] for p in op["spans"])
    for stage in ("all", "scores", "urls", "nulltest", "curves"):
        metrics[f"pipeline.stage.{stage}_s"] = sum(
            p["main_s"] for p in op["spans"] if p["command"] == stage)
    metrics["pipeline.self_s"] = op["wall_s"] - sum(p["roots_s"] for p in op["spans"])
    metrics["synth.generate_s"] = synth["spans"].get("synth.generate", {}).get("self_s", 0.0)
    metrics["trace.wall_s"] = op["wall_s"]
    # Self times telescope: their sum plus the pipeline's own time is the op's wall time.
    accounted = sum(s["self_s"] for s in spans.values()) + metrics["pipeline.self_s"]
    metrics["trace.unaccounted_s"] = op["wall_s"] - accounted
    return metrics


def _design_checks(rules: list, metrics: dict[str, float]) -> list[dict]:
    ops = {">=": operator.ge, ">": operator.gt, "<": operator.lt, "==": operator.eq}
    checks = []
    for expr, op, bound in rules:
        num, _, den = expr.partition("/")
        value = float(metrics[num]) / float(metrics[den]) if den else float(metrics[num])
        checks.append({"rule": f"{expr} {op} {bound}", "value": value,
                       "holds": ops[op](value, float(bound))})
    return checks


def _environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "orjson_importable": importlib.util.find_spec("orjson") is not None,
    }


# ---------------------------------------------------------------------------
# entry point


def measure(workload: Workload, seconds: float, trace: bool, declared: list[dict]) -> dict:
    setup_times = []
    synth_spans = None
    for _ in range(1 if trace else SETUP_REPEATS):
        elapsed, synth_spans = workload.setup(traced=trace)
        setup_times.append(elapsed)

    warm = workload.op()  # discarded: pays .pyc compilation and a cold page cache
    ops = [warm]
    timed: list[dict] = []
    traced: list[dict] = []
    begin = time.monotonic()
    while True:
        timed.append(workload.op())
        ops.append(timed[-1])
        if trace:
            traced.append(workload.op(traced=True))
            ops.append(traced[-1])
        per_round = (time.monotonic() - begin) / len(timed)
        if time.monotonic() - begin + per_round > seconds:
            break

    failures = []
    for i, op in enumerate(ops):
        if op["digest"] != warm["digest"]:
            op["problems"].append(f"bundle digest {op['digest']} differs from {warm['digest']}")
        failures += [f"op {i}: {p}" for p in op["problems"]]
    failed = sum(1 for op in ops if op["problems"])

    walls = [op["wall_s"] for op in timed]
    values: dict[str, float] = {}
    samples: dict[str, int] = {}
    design: list[dict] = []
    missing: list[str] = []
    if not trace:
        values = {
            "wall_s": statistics.median(walls),
            "records_per_s": workload.n_records / statistics.median(walls),
            "cpu_s": statistics.median(op["cpu_s"] for op in timed),
            "peak_rss_mib": statistics.median(op["peak_rss_mib"] for op in timed),
            "setup_s": statistics.median(setup_times),
            "modularity": workload.modularity(),
        }
        samples = {name: len(timed) for name in values}
        samples["setup_s"] = len(setup_times)
        samples["modularity"] = 1
    else:
        per_op = [layer_metrics(op, synth_spans) for op in traced]
        values = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
        values["trace.overhead_s"] = (
            statistics.median(op["wall_s"] for op in traced) - statistics.median(walls)
        )
        samples = {name: len(traced) for name in values}
        missing = sorted({h for op in traced for p in op["spans"] for h in p["missing_hooks"]}
                         | set(synth_spans["missing_hooks"]))
        failures += [f"missing hook: {h}" for h in missing]
        failures += [f"{p['command']}: {p['open_spans']} span(s) left open"
                     for op in traced for p in op["spans"] if p["open_spans"]]
        if any(abs(m["trace.unaccounted_s"]) > 1e-6 for m in per_op):
            failures.append("layer self times do not add up to the traced wall time")
        passes = values["ingest.records.parse_passes"]
        if values["ingest.records.records"] != passes * workload.n_records:
            failures.append(f"{passes} parse pass(es) yielded {values['ingest.records.records']}"
                            f" records; the generator wrote {workload.n_records}")
        design = _design_checks(workload.desc["design"], values)

    metrics = {}
    for entry in declared:
        if entry["name"] not in values:
            raise BenchError(f"metric {entry['name']} declared in BENCHMARK.json is not measured")
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": int(trace),
        "seconds": seconds,
        "environment": _environment(),
        "records": workload.n_records,
        "bundle_digest": warm["digest"],
        "setup_s_samples": setup_times,
        "ops": [{k: v for k, v in op.items() if k != "spans"} for op in ops],
        "samples": samples,
        "all_values": values,
        "design_checks": design,
        "missing_hooks": missing,
        "failures": failures,
        "summary": {
            "correct": not failures,
            "attempted": len(ops),
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "rtscope" / "cli.py").is_file():
        print(f"error: no rtscope sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = benchmark["per_layer" if args.trace else "end_to_end"]

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    try:
        runner = Runner(work, started + DEADLINE_S)
        workload = Workload(args.workload, args.seed, runner)
        result = measure(workload, args.seconds, bool(args.trace), declared)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result["run_s"] = time.monotonic() - started
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"bundle sha256 {result['bundle_digest']} ({args.workload}, seed {args.seed})",
          file=sys.stderr)
    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    for check in result["design_checks"]:
        print(f"design {'holds' if check['holds'] else 'DOES NOT HOLD'}: {check['rule']} "
              f"(value {check['value']:.4g})", file=sys.stderr)
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
