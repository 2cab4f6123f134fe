"""End-to-end batch pipeline: configuration, stages, and on-disk artifacts.

The pipeline is one ordered stage table (``STAGES``) over a ``RunContext``.
Every stage writes plot-ready CSVs plus small JSON reports into the output
directory. ``run_pipeline`` runs the whole table over one context and writes
a manifest; ``run_stage`` runs one entry over a fresh context, which loads
the tweet columns and the partition from their caches in the output
directory and computes the graph and the user profiles from them. Outputs
contain no timestamps or absolute paths, so reruns with identical inputs and
configuration are byte-identical.
"""
from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Mapping, get_args, get_type_hints

import numpy as np

from rtscope import community as community_mod
from rtscope import graph as graph_mod
from rtscope import metrics as metrics_mod
from rtscope import stats as stats_mod
from rtscope.errors import ConfigError, DomainError, InputError, ToolkitError
from rtscope.ingest.botscores import BotScoreClient, BotScoreTable, load_bot_scores
from rtscope.ingest.catalog import SourceCatalog, load_source_catalog
from rtscope.ingest.columns import TweetColumns, load_columns, read_columns, save_columns
from rtscope.ingest.records import ParseReport
from rtscope.metrics import UserProfile

log = logging.getLogger(__name__)

COLUMNS_FILE = "columns.npz"


def _key(default: Any, help_text: str) -> Any:
    """One config key: its default, and the help text of its ``--flag``."""
    return field(default=default, metadata={"help": help_text})


@dataclass
class RunConfig:
    """Every config key, declared once: name, type, default and flag help."""

    tweets: Path | None = _key(None, "line-delimited tweet record file")
    unreliable_sources: Path | None = _key(None, "blacklist of unreliable domains, one per line")
    reliable_sources: Path | None = _key(None, "whitelist of reliable domains, one per line")
    bot_scores: Path | None = _key(None, "CSV of user_id,bot_score")
    service_endpoint: str | None = _key(None, "HTTP endpoint of a bot-scoring service")
    service_token_env: str = _key(
        "RTSCOPE_SERVICE_TOKEN", "environment variable holding the service token"
    )
    service_rpm: float = _key(30.0, "scoring-service requests per minute")
    service_cache_dir: Path | None = _key(None, "on-disk cache directory for fetched scores")
    louvain_seed: int = _key(0, "seed for the community-detection sweep order")
    null_seed: int = _key(0, "seed for null-model reshuffles")
    n_reshuffles: int = _key(100, "number of pooled reshuffles in the null model")
    top_k: int = _key(5, "how many largest communities to report (RT1..RTk)")
    min_shares: int = _key(100, "keep URLs shared strictly more than this many times")
    entropy_low: float = _key(0.4, "upper bound of the low entropy class")
    entropy_high: float = _key(0.9, "upper bound of the medium entropy class")
    success_quantile: float = _key(0.75, "retweet-count quantile defining success")
    op_bs_cutoff: float = _key(0.75, "OP bot-score cutoff for the high-BS URL report")
    curve_points: int = _key(100, "number of thresholds on each success curve")
    out_dir: Path = _key(Path("rtscope-out"), "output directory for all artifacts")

    def validate(self) -> None:
        problems: list[str] = []
        if not 0.0 <= self.entropy_low < self.entropy_high:
            problems.append(
                f"entropy thresholds must satisfy 0 <= low < high, got "
                f"({self.entropy_low}, {self.entropy_high})"
            )
        if not 0.0 < self.success_quantile < 1.0:
            problems.append(f"success_quantile {self.success_quantile} outside (0, 1)")
        if not 0.0 <= self.op_bs_cutoff <= 1.0:
            problems.append(f"op_bs_cutoff {self.op_bs_cutoff} outside [0, 1]")
        if not 0.0 < self.service_rpm < math.inf:
            problems.append(f"service_rpm {self.service_rpm} must be positive and finite")
        for key in ("louvain_seed", "null_seed"):
            if getattr(self, key) < 0:
                problems.append(f"{key} must be non-negative")
        if self.n_reshuffles < 1:
            problems.append("n_reshuffles must be at least 1")
        if self.top_k < 1:
            problems.append("top_k must be at least 1")
        if self.min_shares < 0:
            problems.append("min_shares must be non-negative")
        if self.curve_points < 2:
            problems.append("curve_points must be at least 2")
        if problems:
            raise ConfigError("; ".join(problems))

    def echo(self) -> dict[str, Any]:
        """Config as JSON-able dict; out_dir is excluded so reruns stay comparable."""
        out: dict[str, Any] = {}
        for f in fields(self):
            if f.name == "out_dir":
                continue
            value = getattr(self, f.name)
            out[f.name] = str(value) if isinstance(value, Path) else value
        return out


def _parser(hint: Any) -> Callable[[str], Any]:
    """The type that parses a key's text: ``Path | None`` parses as ``Path``."""
    return next((t for t in get_args(hint) if t is not type(None)), hint)


_PARSERS = {key: _parser(hint) for key, hint in get_type_hints(RunConfig).items()}
CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def _coerce(key: str, value: str) -> Any:
    try:
        return _PARSERS[key](value)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {value!r}: {exc}") from exc


def load_config_file(path: Path | str) -> dict[str, str]:
    """Parse a flat ``key = value`` file (# comments, blank lines allowed) into raw strings."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = raw.strip()
    return values


def config_from_sources(
    file_values: Mapping[str, Any] | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> RunConfig:
    """Build a RunConfig: defaults, then config-file values, then CLI overrides."""
    merged: dict[str, Any] = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, value) if isinstance(value, str) else value
    config = RunConfig(**merged)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# helpers


def _require(config: RunConfig, key: str) -> Path:
    value = getattr(config, key)
    if value is None:
        raise ConfigError(f"config key {key!r} is required for this stage")
    path = Path(value)
    if not path.exists():
        raise InputError(f"{key} file {path} does not exist")
    return path


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(obj: Any, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_user_scores(
    path: Path,
    profiles: Mapping[int, UserProfile],
    nodes: graph_mod.NodeTable,
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["author_id", "catalog_tweets", "unreliable_tweets", "reliable_tweets",
             "unreliable_ratio", "untrustworthiness", "bot_score"]
        )
        for idx in sorted(profiles):
            p = profiles[idx]
            writer.writerow(
                [
                    nodes.name(idx),
                    p.total,
                    p.unreliable,
                    p.reliable,
                    repr(p.ratio),
                    repr(p.untrustworthiness),
                    "" if p.bot_score is None else repr(p.bot_score),
                ]
            )


# ---------------------------------------------------------------------------
# run context


class RunContext:
    """The values stages share within one process, each computed at most once.

    A stage that produces a value stores it here, so later stages of the same
    run use it in memory. A value no earlier stage produced is loaded from the
    stage cache in the output directory (``columns.npz``, ``partition.csv``).
    The graph and the user profiles are always computed from the checked
    columns (plus the catalogs and bot scores), so ``nodes.csv``,
    ``edges.csv`` and ``user_scores.csv`` are never read back. Only the
    ``ingest`` stage parses the tweet file.
    """

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self._digests: dict[str, str] = {}

    def digest(self, key: str) -> str:
        """sha256 of the input file configured under ``key``, read once per run."""
        if key not in self._digests:
            self._digests[key] = _sha256(_require(self.config, key))
        return self._digests[key]

    @cached_property
    def out(self) -> Path:
        out = Path(self.config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return out

    @cached_property
    def tweets(self) -> TweetColumns:
        """The tweet file's columns from the ingest stage's cache; a stale cache is refused."""
        tweets_path = _require(self.config, "tweets")
        path = self.out / COLUMNS_FILE
        if not path.exists():
            raise InputError(f"{COLUMNS_FILE} not found; run the 'ingest' stage first")
        columns, source_name, source_sha256 = load_columns(path)
        if source_sha256 != self.digest("tweets"):
            raise InputError(
                f"{path}: built from a tweet file {source_name!r} whose sha256 differs from "
                f"{tweets_path.name!r}; run the 'ingest' stage again"
            )
        return columns

    @cached_property
    def graph(self) -> graph_mod.RetweetGraph:
        """The retweet graph, always built from the tweet columns; it must have an edge."""
        graph = graph_mod.build_retweet_graph(self.tweets)
        if graph.n_edges == 0:
            raise DomainError("edgeless graph: no retweet records to build links from")
        return graph

    @cached_property
    def partition(self) -> community_mod.Partition:
        path = self.out / "partition.csv"
        if not path.exists():
            raise InputError("partition.csv not found; run the 'communities' stage first")
        return community_mod.load_partition(path, self.graph.nodes)

    @cached_property
    def catalog(self) -> SourceCatalog:
        """Both source lists; every stage from ``scores`` on needs them."""
        return load_source_catalog(
            _require(self.config, "unreliable_sources"), _require(self.config, "reliable_sources")
        )

    @cached_property
    def profiles(self) -> dict[int, UserProfile]:
        """Every user's scores, computed from the columns, the catalogs and the bot scores."""
        nodes = self.graph.nodes
        tallies = metrics_mod.user_tallies(self.tweets, self.catalog)
        return metrics_mod.build_profiles(tallies, nodes, self.bot_scores[0])

    @cached_property
    def bot_scores(self) -> tuple[BotScoreTable | None, int]:
        """Bot scores from the file table and/or the scoring service; None if neither.

        Also returns how many users the service could not score.
        """
        config = self.config
        table: BotScoreTable | None = None
        unavailable = 0
        if config.bot_scores is not None:
            table = load_bot_scores(_require(config, "bot_scores"))
        if config.service_endpoint:
            if table is None:
                table = BotScoreTable()
            client = BotScoreClient(
                endpoint=config.service_endpoint,
                token=os.environ.get(config.service_token_env),
                cache_dir=config.service_cache_dir,
                requests_per_minute=config.service_rpm,
            )
            unavailable = client.fetch_into(table, list(self.graph.nodes.names))
        return table, unavailable

    @cached_property
    def url_table(self) -> tuple[list[metrics_mod.UrlDiffusionRecord], dict[str, Any]]:
        """URLs above the share threshold, marked for success, and the table's counts."""
        config = self.config
        tweets = self.tweets
        nodes = self.graph.nodes
        partition = self.partition
        profiles = self.profiles
        bot_table, _ = self.bot_scores
        filtered = metrics_mod.build_url_table(
            tweets,
            partition,
            nodes,
            profiles,
            bot_table,
            entropy_low=config.entropy_low,
            entropy_high=config.entropy_high,
            min_shares=config.min_shares,
        )
        threshold = None
        if len(filtered) >= 4:
            threshold = stats_mod.success_threshold(
                [r.retweets for r in filtered], config.success_quantile
            )
            metrics_mod.mark_successful(filtered, threshold)
        else:
            log.warning(
                "only %d URL(s) above the share threshold; success marking skipped",
                len(filtered),
            )
        counts = {
            "urls_total": len(tweets.urls),
            "urls_filtered": len(filtered),
            "success_threshold": threshold,
            "urls_successful": sum(1 for r in filtered if r.successful),
        }
        return filtered, counts


# ---------------------------------------------------------------------------
# stages: each reads its inputs from the context and stores what it produces


def _ingest(ctx: RunContext) -> dict:
    path = _require(ctx.config, "tweets")
    report = ParseReport()
    columns = read_columns(path, report)
    ctx.tweets = columns
    save_columns(columns, ctx.out / COLUMNS_FILE, path.name, ctx.digest("tweets"))
    counts = report.as_dict()
    counts["retweet_records"] = int(np.count_nonzero(columns.retweeted >= 0))
    counts["original_records"] = report.parsed - counts["retweet_records"]
    _write_json(counts, ctx.out / "parse_report.json")
    return counts


def _graph(ctx: RunContext) -> dict:
    graph = ctx.graph
    graph_mod.save_graph(graph, ctx.out / "nodes.csv", ctx.out / "edges.csv")
    counts = {
        "nodes": graph.n_nodes,
        "edges": graph.n_edges,
        "total_weight": graph.total_weight,
        "self_retweets_skipped": graph.self_retweets_skipped,
        "degree_summary": graph_mod.degree_stats(graph).summary(),
    }
    _write_json(counts, ctx.out / "graph_report.json")
    return counts


def _communities(ctx: RunContext) -> dict:
    config = ctx.config
    graph = ctx.graph
    partition = community_mod.louvain(graph_mod.to_undirected(graph), config.louvain_seed)
    ctx.partition = partition
    community_mod.save_partition(partition, graph.nodes, ctx.out / "partition.csv")
    names = community_mod.community_names(partition, config.top_k)
    sizes = partition.sizes()
    density = graph_mod.internal_link_density(graph, partition.labels)
    with open(ctx.out / "communities.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["community_label", "name", "size", "internal_link_density"])
        for label in community_mod.top_community_labels(partition):
            cell = "" if np.isnan(density[label]) else repr(float(density[label]))
            writer.writerow([label, names[label], int(sizes[label]), cell])
    counts = {
        "n_communities": partition.n_communities,
        "modularity": partition.modularity,
        "louvain_seed": config.louvain_seed,
        "top_sizes": [int(sizes[label]) for label in
                      community_mod.top_community_labels(partition, config.top_k)],
    }
    _write_json(counts, ctx.out / "communities_report.json")
    return counts


def _scores(ctx: RunContext) -> dict:
    profiles = ctx.profiles
    catalog = ctx.catalog
    _, unavailable = ctx.bot_scores
    _write_user_scores(ctx.out / "user_scores.csv", profiles, ctx.graph.nodes)
    counts = {
        "scored_users": len(profiles),
        "catalog_unreliable_domains": len(catalog.unreliable),
        "catalog_reliable_domains": len(catalog.reliable),
        "bot_scores_available": sum(1 for p in profiles.values() if p.bot_score is not None),
        "bot_scores_unavailable": unavailable,
        "max_catalog_tweets": max((p.total for p in profiles.values()), default=0),
    }
    _write_json(counts, ctx.out / "scores_report.json")
    return counts


def _urls(ctx: RunContext) -> dict:
    filtered, counts = ctx.url_table
    metrics_mod.write_url_report(filtered, ctx.out / "url_report.csv")
    high_bs = [
        r
        for r in filtered
        if r.avg_bs_ops is not None and r.avg_bs_ops > ctx.config.op_bs_cutoff
    ]
    metrics_mod.write_url_report(high_bs, ctx.out / "url_report_high_bs_ops.csv")
    _write_json(counts, ctx.out / "urls_report.json")
    return counts


def _nulltest(ctx: RunContext) -> dict:
    config = ctx.config
    partition = ctx.partition
    profiles = ctx.profiles
    features = {"u": {idx: p.untrustworthiness for idx, p in profiles.items()}}
    bs_values = {
        idx: p.bot_score for idx, p in profiles.items() if p.bot_score is not None
    }
    if len(bs_values) >= 2:
        features["bs"] = bs_values
    counts = {}
    for feature, values in features.items():
        report = stats_mod.null_model_report(
            values,
            partition,
            n_reshuffles=config.n_reshuffles,
            seed=config.null_seed,
            top_k=config.top_k,
        )
        stats_mod.write_nulltest_csv(report, ctx.out / f"nulltest_{feature}.csv")
        counts[f"feature_{feature}"] = [
            {
                "community": c.name,
                "p_value": None if c.result is None else c.result.p_value,
                "skipped": c.skipped,
            }
            for c in report
        ]
    _write_json(counts, ctx.out / "nulltest_report.json")
    return counts


def _curves(ctx: RunContext) -> dict:
    config = ctx.config
    filtered, url_counts = ctx.url_table
    threshold = url_counts["success_threshold"]
    if threshold is None:
        raise DomainError(
            "success threshold unavailable (fewer than 4 URLs above the share threshold)"
        )
    curve_sets = []
    for feature in ("bs", "u"):
        curve_sets.append(
            stats_mod.success_curves(
                filtered,
                feature,
                t=threshold,
                class_thresholds=(config.entropy_low, config.entropy_high),
                n_points=config.curve_points,
            )
        )
    out = ctx.out
    stats_mod.write_curves_csv(curve_sets, out / "curves.csv", zero_fill=False)
    stats_mod.write_curves_csv(curve_sets, out / "curves_zero_filled.csv", zero_fill=True)
    with open(out / "curve_feature_hist.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "entropy_class", "bin_left", "bin_right", "count"])
        for curves in curve_sets:
            for cls in metrics_mod.EntropyClass:
                curve = curves[cls]
                if not curve.feature_values:
                    continue
                hist, edges = np.histogram(curve.feature_values, bins=20, range=(0.0, 1.0))
                for i, count in enumerate(hist.tolist()):
                    writer.writerow(
                        [curve.feature, cls.value, repr(float(edges[i])),
                         repr(float(edges[i + 1])), count]
                    )
    counts = {
        "success_threshold": threshold,
        "curve_points": config.curve_points,
        "features": ["bs", "u"],
    }
    _write_json(counts, out / "curves_report.json")
    return counts


# The pipeline in run order; `all` runs every entry over one context.
STAGES = {
    "ingest": _ingest,
    "graph": _graph,
    "communities": _communities,
    "scores": _scores,
    "urls": _urls,
    "nulltest": _nulltest,
    "curves": _curves,
}


def _run(ctx: RunContext, name: str) -> dict:
    try:
        return STAGES[name](ctx)
    except ToolkitError as exc:
        wrapped = type(exc)(f"{name}: {exc}")
        wrapped.exit_code = exc.exit_code
        raise wrapped from exc


def run_stage(config: RunConfig, name: str) -> dict:
    """Run one stage standalone; its inputs come from the stage caches in out_dir."""
    return _run(RunContext(config), name)


def stage_synth(spec_path: Path, seed: int, out_dir: Path) -> dict:
    from rtscope.synth import SyntheticSpec, generate_synthetic

    if seed < 0:
        raise ConfigError(f"seed {seed} must be non-negative")
    try:
        text = Path(spec_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read synthetic spec {spec_path}: {exc}") from exc
    try:
        spec = SyntheticSpec.from_json(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid synthetic spec {spec_path}: {exc}") from exc
    paths = generate_synthetic(spec, seed, out_dir)
    return {name: str(path) for name, path in paths.items()}


def run_pipeline(config: RunConfig) -> dict:
    """Run every stage over one in-memory context and write the manifest."""
    config.validate()
    ctx = RunContext(config)
    out = ctx.out
    manifest: dict[str, Any] = {"config": config.echo(), "stages": {}}

    inputs = {}
    for key in ("tweets", "unreliable_sources", "reliable_sources", "bot_scores"):
        value = getattr(config, key)
        if value is not None:
            path = Path(value)
            if path.exists():
                inputs[key] = {"name": path.name, "sha256": ctx.digest(key)}
    manifest["inputs"] = inputs

    for name in STAGES:
        manifest["stages"][name] = _run(ctx, name)

    # Reconciliation: accepted records = retweet edges' weight + originals + skips.
    graph = ctx.graph
    parsed = manifest["stages"]["ingest"]["parsed"]
    reconciled = (
        graph.total_weight
        + graph.self_retweets_skipped
        + manifest["stages"]["ingest"]["original_records"]
    )
    manifest["reconciliation"] = {
        "parsed_records": parsed,
        "edge_weight_plus_originals_plus_skips": reconciled,
        "consistent": reconciled == parsed,
    }
    _write_json(manifest, out / "manifest.json")
    return manifest
