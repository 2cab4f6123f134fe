"""Weighted directed retweet graph and its undirected projection.

Author ids are interned into dense integer indices at the boundary; all
adjacency work happens on integers. The directed graph counts how many
times each user retweeted each other user; the undirected projection sums
the two directions per pair.
"""
from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from rtscope.errors import DomainError, InputError
from rtscope.ingest.columns import TweetColumns, as_columns
from rtscope.ingest.records import TweetRecord


class NodeTable:
    """Bijection between author ids and dense node indices 0..n-1."""

    __slots__ = ("_id_of", "_names")

    def __init__(self) -> None:
        self._id_of: dict[str, int] = {}
        self._names: list[str] = []

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "NodeTable":
        """A table of distinct ``names``, indexed in the given order."""
        table = cls()
        table._names = list(names)
        table._id_of = {name: idx for idx, name in enumerate(table._names)}
        return table

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
    """Directed multigraph collapsed to integer edge weights; no self-loops.

    Edges are sorted COO arrays: ``src``, ``dst`` and ``weight`` are int64,
    ordered by ``(src, dst)`` with each pair at most once.
    """

    __slots__ = ("nodes", "src", "dst", "weight", "self_retweets_skipped")

    def __init__(
        self,
        nodes: NodeTable,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray,
        self_retweets_skipped: int = 0,
    ) -> None:
        self.nodes = nodes
        self.src = src
        self.dst = dst
        self.weight = weight
        self.self_retweets_skipped = self_retweets_skipped

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return int(self.src.size)

    @property
    def total_weight(self) -> int:
        return int(self.weight.sum())


# A node pair (s, t) is keyed s << 32 | t: keys sort as the pairs do, and node
# indices stay far below 2**31.
_KEY_BITS = 32


def _split_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return keys >> _KEY_BITS, keys & ((1 << _KEY_BITS) - 1)


def build_retweet_graph(tweets: TweetColumns | Iterable[TweetRecord]) -> RetweetGraph:
    """Fold tweet columns (or records) into the directed retweet graph.

    Nodes are created for every author and every retweeted author, in first
    appearance order, so the result is deterministic for a given record
    order. Self-retweets are skipped and tallied.
    """
    columns = as_columns(tweets)
    is_retweet = columns.retweeted >= 0
    own = is_retweet & (columns.author == columns.retweeted)
    keep = is_retweet & ~own
    keys = columns.author[keep].astype(np.int64) << _KEY_BITS | columns.retweeted[keep]
    keys, weight = np.unique(keys, return_counts=True)
    src, dst = _split_keys(keys)
    return RetweetGraph(NodeTable.from_names(columns.names), src, dst,
                        weight.astype(np.int64), int(own.sum()))


def _pair_sums(
    u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``w`` per unordered pair: ``(eu, ev, ew)`` sorted by ``(eu, ev)``, ``eu <= ev``.

    Each pair's weights are added in input order.
    """
    pair_key = np.minimum(u, v) << _KEY_BITS | np.maximum(u, v)
    keys, pair_of_edge = np.unique(pair_key, return_inverse=True)
    ew = np.bincount(pair_of_edge, weights=w, minlength=keys.size)
    return *_split_keys(keys), ew


def _csr(
    n: int, eu: np.ndarray, ev: np.ndarray, ew: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, nbr, wgt)`` over both directions of every pair; rows ascend by neighbour."""
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order], np.concatenate([ew, ew])[order]


class UndirectedGraph:
    """Undirected weighted projection stored as CSR plus a unique-pair edge list.

    ``UndirectedGraph(nodes, {(u, v): w})`` builds it from a mapping of
    distinct-node pairs (a pair given in both orders is summed);
    ``to_undirected`` builds it from a directed graph.
    """

    __slots__ = ("nodes", "indptr", "nbr", "wgt", "strength", "eu", "ev", "ew", "total_weight")

    def __init__(self, nodes: NodeTable, pair_weights: Mapping[tuple[int, int], float]) -> None:
        n_pairs = len(pair_weights)
        u = np.fromiter((p[0] for p in pair_weights), dtype=np.int64, count=n_pairs)
        v = np.fromiter((p[1] for p in pair_weights), dtype=np.int64, count=n_pairs)
        if (u == v).any():
            raise ValueError("an undirected pair joins a node to itself")
        w = np.fromiter(pair_weights.values(), dtype=np.float64, count=n_pairs)
        self._set_edges(nodes, *_pair_sums(u, v, w))

    @classmethod
    def _from_edges(
        cls, nodes: NodeTable, eu: np.ndarray, ev: np.ndarray, ew: np.ndarray
    ) -> "UndirectedGraph":
        graph = cls.__new__(cls)
        graph._set_edges(nodes, eu, ev, ew)
        return graph

    def _set_edges(
        self, nodes: NodeTable, eu: np.ndarray, ev: np.ndarray, ew: np.ndarray
    ) -> None:
        self.nodes = nodes
        self.eu = eu
        self.ev = ev
        self.ew = ew
        self.indptr, self.nbr, self.wgt = _csr(len(nodes), eu, ev, ew)
        # Summed in (eu, ev) edge order, not CSR row order: Louvain's float sums rely on it.
        self.strength = np.bincount(np.concatenate([eu, ev]), weights=np.concatenate([ew, ew]),
                                    minlength=len(nodes))
        self.total_weight = float(ew.sum())

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
    return UndirectedGraph._from_edges(g.nodes, *_pair_sums(g.src, g.dst, g.weight))


def internal_link_density(g: RetweetGraph, labels: Sequence[int] | np.ndarray) -> np.ndarray:
    """Each community's directed internal edges over its |C|*(|C|-1) possible ones.

    ``labels`` gives every node's community label. The result is indexed by
    label, with NaN for a community of fewer than 2 members.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (g.n_nodes,):
        raise DomainError(f"labeling covers {labels.size} nodes, graph has {g.n_nodes}")
    n_comm = int(labels.max()) + 1 if labels.size else 0
    sizes = np.bincount(labels, minlength=n_comm)
    src_label = labels[g.src]
    internal = np.bincount(src_label[src_label == labels[g.dst]], minlength=n_comm)
    density = np.full(n_comm, np.nan)
    paired = sizes >= 2
    density[paired] = internal[paired] / (sizes[paired] * (sizes[paired] - 1))
    return density


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
    # Float bincount sums of integer weights are exact below 2**53.
    return DegreeStats(
        in_degree=np.bincount(g.dst, minlength=n),
        out_degree=np.bincount(g.src, minlength=n),
        in_strength=np.bincount(g.dst, weights=g.weight, minlength=n).astype(np.int64),
        out_strength=np.bincount(g.src, weights=g.weight, minlength=n).astype(np.int64),
    )


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
        writer.writerows(zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist()))


@contextmanager
def _cache_rows(path: Path | str, header: list[str], what: str) -> Iterator[Iterator[list[str]]]:
    """Open a stage-cache CSV, check its header, and yield its row reader.

    A row that fails to parse while the reader is consumed (ValueError,
    IndexError, OverflowError or csv.Error) becomes an InputError naming the
    file and line, as does an unreadable file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                got = next(reader, None)
                if got != header:
                    raise InputError(f"{path}: bad {what} header {got}")
                yield reader
            except (ValueError, IndexError, OverflowError, csv.Error) as exc:
                raise InputError(f"{path}:{reader.line_num}: malformed row: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def load_graph(nodes_path: Path | str, edges_path: Path | str) -> RetweetGraph:
    """Reload a cached graph; reproduces the saved graph exactly."""
    nodes = NodeTable()
    with _cache_rows(nodes_path, ["index", "author_id"], "node table") as reader:
        for row in reader:
            if nodes.intern(row[1]) != int(row[0]):
                raise InputError(f"{nodes_path}: node indices are not dense/in order")

    weights: dict[int, int] = {}
    with _cache_rows(edges_path, ["src_index", "dst_index", "weight"], "edge list") as reader:
        for row in reader:
            s, t, w = int(row[0]), int(row[1]), int(row[2])
            if not (0 <= s < len(nodes) and 0 <= t < len(nodes)):
                raise InputError(
                    f"{edges_path}:{reader.line_num}: edge ({s},{t}) outside node table"
                )
            if s == t or w < 1:
                raise InputError(f"{edges_path}:{reader.line_num}: invalid edge ({s},{t},{w})")
            key = s << _KEY_BITS | t
            if key in weights:
                raise InputError(f"{edges_path}:{reader.line_num}: duplicate edge ({s},{t})")
            weights[key] = w
    keys = np.fromiter(weights, dtype=np.int64, count=len(weights))
    order = np.argsort(keys)
    src, dst = _split_keys(keys[order])
    weight = np.fromiter(weights.values(), dtype=np.int64, count=len(weights))
    return RetweetGraph(nodes, src, dst, weight[order])
