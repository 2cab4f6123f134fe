"""Run one rtscope CLI command with spans around the public functions of each layer.

Usage: python3 trace_boot.py SPANS_JSON SPAWNED_AT -- <rtscope arguments>

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process; the gap until ``rtscope.cli.main`` is entered is the start-up time.
Spans stay in memory and are written to SPANS_JSON when the command ends.
Every hooked function is replaced wherever a loaded ``rtscope`` module holds
it, so by-name imports (``from ... import parse_tweet_stream``) are traced
too. A hook whose target no longer exists is listed under ``missing_hooks``
instead of being silently reported as zero.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time

# (span name, module, attribute path); the span name's first dotted part(s) name the layer.
SPAN_HOOKS = [
    ("ingest.records.parse", "rtscope.ingest.records", "parse_tweet_stream"),
    ("ingest.botscores.load", "rtscope.ingest.botscores", "load_bot_scores"),
    ("ingest.botscores.fetch_into", "rtscope.ingest.botscores", "BotScoreClient.fetch_into"),
    ("graph.build", "rtscope.graph", "build_retweet_graph"),
    ("graph.to_undirected", "rtscope.graph", "to_undirected"),
    ("graph.degree_stats", "rtscope.graph", "degree_stats"),
    ("graph.save", "rtscope.graph", "save_graph"),
    ("graph.load", "rtscope.graph", "load_graph"),
    ("graph.link_density", "rtscope.graph", "internal_link_density"),
    ("community.louvain", "rtscope.community", "louvain"),
    ("community.modularity", "rtscope.community", "modularity"),
    ("community.partition_io", "rtscope.community", "save_partition"),
    ("community.partition_io", "rtscope.community", "load_partition"),
    ("metrics.user_tallies", "rtscope.metrics", "user_tallies"),
    ("metrics.build_profiles", "rtscope.metrics", "build_profiles"),
    ("metrics.build_url_table", "rtscope.metrics", "build_url_table"),
    ("stats.null_model_report", "rtscope.stats", "null_model_report"),
    ("stats.mann_whitney", "rtscope.stats", "mann_whitney"),
    ("stats.success_curves", "rtscope.stats", "success_curves"),
    ("synth.generate", "rtscope.synth", "generate_synthetic"),
]
# Read-only hooks: counters taken at exit rather than spans.
COUNTER_HOOKS = [("rtscope.ingest.urls", "normalize_url.cache_info")]


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Single-threaded span recorder: a stack of open spans and per-name totals."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # [start, time covered by children]
        self.totals: dict[str, dict[str, float]] = {}
        self.counters: dict[str, float] = {}
        self.roots_s = 0.0

    def open(self) -> list[float]:
        frame = [time.monotonic(), 0.0, _maxrss_mib()]
        self.stack.append(frame)
        return frame

    def close(self, name: str, frame: list[float]) -> None:
        end = time.monotonic()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {name} closed out of order")
        duration = end - frame[0]
        if self.stack:
            self.stack[-1][1] += duration
        else:
            self.roots_s += duration
        entry = self.totals.setdefault(
            name, {"total_s": 0.0, "self_s": 0.0, "calls": 0, "rss_step_mib": 0.0}
        )
        entry["total_s"] += duration
        entry["self_s"] += duration - frame[1]
        entry["calls"] += 1
        entry["rss_step_mib"] = max(entry["rss_step_mib"], _maxrss_mib() - frame[2])

    def count(self, key: str, value: float, reduce=lambda a, b: a + b) -> None:
        self.counters[key] = reduce(self.counters[key], value) if key in self.counters else value


def _note_result(tracer: Tracer, name: str, args: tuple, result) -> None:
    """Counters derived from a hooked call's arguments or result."""
    if name in ("graph.build", "graph.load"):
        tracer.count("graph.nodes", result.n_nodes, max)
        tracer.count("graph.edges", result.n_edges, max)
    elif name == "community.louvain" or (name == "community.partition_io" and result is not None):
        partition = result[0] if isinstance(result, tuple) else result
        tracer.count("community.n_communities", partition.n_communities, max)
    elif name == "metrics.build_url_table":
        tracer.count("metrics.urls_total", len(result), max)
    elif name == "stats.mann_whitney":
        tracer.count("stats.mann_whitney_values", len(args[0]) + len(args[1]))


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            frame = tracer.open()
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                tracer.close(name, frame)
                tracer.count(name + ".records", n)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.open()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(name, frame)
        _note_result(tracer, name, args, result)
        return result
    return wrapper


def _resolve(module: str, path: str):
    """Return (owner, attribute name, value) or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def install(tracer: Tracer) -> list[str]:
    """Patch every hook; return the hooks whose targets do not exist."""
    missing = [f"{m}:{p}" for m, p in COUNTER_HOOKS if _resolve(m, p) is None]
    targets = []
    for name, module, path in SPAN_HOOKS:
        found = _resolve(module, path)
        if found is None:
            missing.append(f"{module}:{path}")
        else:
            targets.append((name, found))
    importlib.import_module("rtscope.cli")
    importlib.import_module("rtscope.pipeline")
    modules = [m for key, m in list(sys.modules.items()) if key.startswith("rtscope") and m]
    for name, (owner, attr, original) in targets:
        wrapped = _wrap(tracer, name, original)
        setattr(owner, attr, wrapped)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return missing


def main(argv: list[str]) -> int:
    spans_path, spawned_at = argv[0], float(argv[1])
    cli_args = argv[argv.index("--") + 1:]
    tracer = Tracer()
    missing = install(tracer)
    from rtscope import cli
    from rtscope.ingest import urls

    entered = time.monotonic()
    code = 1
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        main_s = time.monotonic() - entered
        info = getattr(urls.normalize_url, "cache_info", None)
        hits, misses = (info().hits, info().misses) if info is not None else (0, 0)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "command": cli_args[0] if cli_args else "",
                    "startup_s": entered - spawned_at,
                    "main_s": main_s,
                    "roots_s": tracer.roots_s,
                    "spans": tracer.totals,
                    "counters": tracer.counters,
                    "normalize": {"hits": hits, "misses": misses},
                    "missing_hooks": missing,
                    "open_spans": len(tracer.stack),
                },
                fh,
                indent=1,
                sort_keys=True,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
