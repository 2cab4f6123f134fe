"""Weighted directed retweet graph and its undirected projection.

Author ids are interned into dense integer indices at the boundary; all
adjacency work happens on integers. The directed graph counts how many
times each user retweeted each other user; the undirected projection sums
the two directions per pair.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from rtscope.errors import DomainError, InputError
from rtscope.ingest.records import TweetRecord


class NodeTable:
    """Bijection between author ids and dense node indices 0..n-1."""

    __slots__ = ("_id_of", "_names")

    def __init__(self) -> None:
        self._id_of: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> int:
        idx = self._id_of.get(name)
        if idx is None:
            idx = len(self._names)
            self._id_of[name] = idx
            self._names.append(name)
        return idx

    def index(self, name: str) -> int:
        return self._id_of[name]

    def get(self, name: str) -> int | None:
        return self._id_of.get(name)

    def name(self, idx: int) -> str:
        return self._names[idx]

    @property
    def names(self) -> Sequence[str]:
        return self._names

    def __contains__(self, name: str) -> bool:
        return name in self._id_of

    def __len__(self) -> int:
        return len(self._names)


class RetweetGraph:
    """Directed multigraph collapsed to integer edge weights; no self-loops."""

    __slots__ = ("nodes", "weights", "self_retweets_skipped")

    def __init__(
        self,
        nodes: NodeTable | None = None,
        weights: dict[tuple[int, int], int] | None = None,
        self_retweets_skipped: int = 0,
    ) -> None:
        self.nodes = nodes if nodes is not None else NodeTable()
        self.weights = weights if weights is not None else {}
        self.self_retweets_skipped = self_retweets_skipped

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> int:
        return sum(self.weights.values())


def build_retweet_graph(tweets: Iterable[TweetRecord]) -> RetweetGraph:
    """Fold tweet records into the directed retweet graph.

    Nodes are created for every author and every retweeted author, in first
    appearance order, so the result is deterministic for a given record
    order. Self-retweets are skipped and tallied.
    """
    nodes = NodeTable()
    weights: dict[tuple[int, int], int] = {}
    skipped = 0
    intern = nodes.intern
    get_weight = weights.get
    for record in tweets:
        source = intern(record.author_id)
        if record.retweeted_author_id is None:
            continue
        target = intern(record.retweeted_author_id)
        if source == target:
            skipped += 1
            continue
        key = (source, target)
        weights[key] = get_weight(key, 0) + 1
    return RetweetGraph(nodes=nodes, weights=weights, self_retweets_skipped=skipped)


class UndirectedGraph:
    """Undirected weighted projection stored as CSR plus a unique-pair edge list."""

    __slots__ = ("nodes", "indptr", "nbr", "wgt", "strength", "eu", "ev", "ew", "total_weight")

    def __init__(self, nodes: NodeTable, pair_weights: Mapping[tuple[int, int], float]) -> None:
        self.nodes = nodes
        n = len(nodes)
        # Sort pairs so downstream float accumulation never depends on dict order.
        pairs = sorted(pair_weights.items())
        n_pairs = len(pairs)
        self.eu = np.fromiter((p[0][0] for p in pairs), dtype=np.int64, count=n_pairs)
        self.ev = np.fromiter((p[0][1] for p in pairs), dtype=np.int64, count=n_pairs)
        self.ew = np.fromiter((p[1] for p in pairs), dtype=np.float64, count=n_pairs)
        src = np.concatenate([self.eu, self.ev])
        dst = np.concatenate([self.ev, self.eu])
        wgt = np.concatenate([self.ew, self.ew])
        order = np.lexsort((dst, src))
        counts = np.bincount(src, minlength=n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self.nbr = dst[order]
        self.wgt = wgt[order]
        self.strength = np.bincount(src, weights=wgt, minlength=n)
        self.total_weight = float(self.ew.sum())

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return int(self.eu.size)

    def weight(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        start, end = self.indptr[u], self.indptr[u + 1]
        pos = start + np.searchsorted(self.nbr[start:end], v)
        if pos < end and self.nbr[pos] == v:
            return float(self.wgt[pos])
        return 0.0


def to_undirected(g: RetweetGraph) -> UndirectedGraph:
    """Sum the two directed weights per unordered pair; the node table is shared."""
    pair: dict[tuple[int, int], float] = {}
    for (s, t), w in g.weights.items():
        key = (s, t) if s < t else (t, s)
        pair[key] = pair.get(key, 0.0) + w
    return UndirectedGraph(g.nodes, pair)


def internal_link_density(g: RetweetGraph, members: Iterable[int]) -> float:
    """Directed edges inside ``members`` over the |M|*(|M|-1) possible ones."""
    member_set = set(int(m) for m in members)
    size = len(member_set)
    if size < 2:
        raise DomainError("internal_link_density needs at least 2 members")
    internal = sum(1 for (s, t) in g.weights if s in member_set and t in member_set)
    return internal / (size * (size - 1))


@dataclass
class DegreeStats:
    in_degree: np.ndarray
    out_degree: np.ndarray
    in_strength: np.ndarray
    out_strength: np.ndarray

    _QUANTILES = (0, 25, 50, 75, 90, 99, 100)

    def summary(self) -> dict[str, dict[str, float]]:
        if self.in_degree.size == 0:
            return {}
        out = {}
        for label, arr in (
            ("in_degree", self.in_degree),
            ("out_degree", self.out_degree),
            ("in_strength", self.in_strength),
            ("out_strength", self.out_strength),
        ):
            quantiles = np.percentile(arr, self._QUANTILES)
            entry = {f"p{q}": float(v) for q, v in zip(self._QUANTILES, quantiles)}
            entry["mean"] = float(arr.mean())
            out[label] = entry
        return out


def degree_stats(g: RetweetGraph) -> DegreeStats:
    n = g.n_nodes
    in_deg = np.zeros(n, dtype=np.int64)
    out_deg = np.zeros(n, dtype=np.int64)
    in_str = np.zeros(n, dtype=np.int64)
    out_str = np.zeros(n, dtype=np.int64)
    for (s, t), w in g.weights.items():
        out_deg[s] += 1
        in_deg[t] += 1
        out_str[s] += w
        in_str[t] += w
    return DegreeStats(in_degree=in_deg, out_degree=out_deg, in_strength=in_str, out_strength=out_str)


def save_graph(g: RetweetGraph, nodes_path: Path | str, edges_path: Path | str) -> None:
    """Write the node table and edge list caches (stable, sorted order)."""
    with open(nodes_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "author_id"])
        for idx, name in enumerate(g.nodes.names):
            writer.writerow([idx, name])
    with open(edges_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["src_index", "dst_index", "weight"])
        for (s, t) in sorted(g.weights):
            writer.writerow([s, t, g.weights[(s, t)]])


def load_graph(nodes_path: Path | str, edges_path: Path | str) -> RetweetGraph:
    """Reload a cached graph; reproduces the saved graph exactly."""
    nodes = NodeTable()
    try:
        with open(nodes_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if header != ["index", "author_id"]:
                    raise InputError(f"{nodes_path}: bad node-table header {header}")
                for row in reader:
                    idx = nodes.intern(row[1])
                    if idx != int(row[0]):
                        raise InputError(f"{nodes_path}: node indices are not dense/in order")
            except (ValueError, IndexError) as exc:
                raise InputError(f"{nodes_path}:{reader.line_num}: malformed row: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read node table {nodes_path}: {exc}") from exc

    weights: dict[tuple[int, int], int] = {}
    try:
        with open(edges_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if header != ["src_index", "dst_index", "weight"]:
                    raise InputError(f"{edges_path}: bad edge-list header {header}")
                for row in reader:
                    s, t, w = int(row[0]), int(row[1]), int(row[2])
                    if not (0 <= s < len(nodes) and 0 <= t < len(nodes)):
                        raise InputError(f"{edges_path}: edge ({s},{t}) outside node table")
                    if s == t or w < 1:
                        raise InputError(f"{edges_path}: invalid edge ({s},{t},{w})")
                    weights[(s, t)] = w
            except (ValueError, IndexError) as exc:
                raise InputError(f"{edges_path}:{reader.line_num}: malformed row: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read edge list {edges_path}: {exc}") from exc
    return RetweetGraph(nodes=nodes, weights=weights)
