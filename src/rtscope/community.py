"""Community detection: weighted modularity, Louvain, and label reshuffles."""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from rtscope.errors import DataIntegrityError, DomainError, InputError
from rtscope.graph import NodeTable, UndirectedGraph, _cache_rows, _csr, _pair_sums

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Partition:
    """Node-to-community labeling with dense labels 0..n_communities-1."""

    labels: np.ndarray
    n_communities: int
    modularity: float | None = None

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.size == 0:
            raise ValueError("empty partition")
        counts = np.bincount(labels, minlength=self.n_communities)
        if labels.min() < 0 or counts.size != self.n_communities or (counts == 0).any():
            raise ValueError("labels must be dense 0..n_communities-1 with every label used")

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_communities)


def modularity(g: UndirectedGraph, labels: Sequence[int] | np.ndarray) -> float:
    """Newman-Girvan weighted modularity of a labeling.

    Q = sum over communities of [S_in/(2m) - (S_tot/(2m))^2] with m the
    total undirected edge weight, S_in twice the community-internal weight
    and S_tot the summed node strengths.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size != g.n_nodes:
        raise ValueError(f"labeling covers {labels.size} nodes, graph has {g.n_nodes}")
    m = g.total_weight
    if m <= 0:
        raise DomainError("modularity is undefined for an edgeless graph")
    n_comm = int(labels.max()) + 1
    lu = labels[g.eu]
    internal = lu == labels[g.ev]
    sum_in = 2.0 * np.bincount(lu[internal], weights=g.ew[internal], minlength=n_comm)
    sum_tot = np.bincount(labels, weights=g.strength, minlength=n_comm)
    two_m = 2.0 * m
    return float(np.sum(sum_in / two_m - (sum_tot / two_m) ** 2))


def _local_move(
    indptr: list[int],
    nbr: list[int],
    wgt: list[float],
    k: list[float],
    comm: list[int],
    sum_tot: list[float],
    order: list[int],
    inv_2m: float,
    q_running: float,
    trace: list[float] | None,
) -> tuple[int, float]:
    """One Louvain local-moving phase. Mutates comm/sum_tot; returns (moves, Q).

    Nodes are swept in the given order; after the first pass only nodes whose
    neighborhood changed are re-evaluated, and convergence is confirmed by a
    final pass over every node, so the result is a full fixed point: no
    single move improves Q.
    """
    inv_m = 2.0 * inv_2m
    n = len(comm)
    dirty = bytearray(b"\x01") * n
    full_pass = True
    total_moves = 0
    while True:
        moves = 0
        for i in order:
            if not dirty[i]:
                continue
            dirty[i] = 0
            start = indptr[i]
            end = indptr[i + 1]
            if start == end:
                continue
            ci = comm[i]
            ki = k[i]
            neighbors = nbr[start:end]
            links: dict[int, float] = {}
            for j, w in zip(neighbors, wgt[start:end]):
                if j != i:
                    cj = comm[j]
                    links[cj] = links.get(cj, 0.0) + w
            sum_tot[ci] -= ki
            gain_stay = links.get(ci, 0.0) - sum_tot[ci] * ki * inv_2m
            best_c = ci
            best_gain = gain_stay
            for c, k_in in links.items():
                if c == ci:
                    continue
                gain = k_in - sum_tot[c] * ki * inv_2m
                # Ties in gain break toward the smallest community label.
                if gain > best_gain or (gain == best_gain and c < best_c):
                    best_c = c
                    best_gain = gain
            if best_c != ci and best_gain > gain_stay:
                comm[i] = best_c
                sum_tot[best_c] += ki
                moves += 1
                q_running += (best_gain - gain_stay) * inv_m
                if trace is not None:
                    trace.append(q_running)
                for j in neighbors:
                    dirty[j] = 1
            else:
                sum_tot[ci] += ki
        total_moves += moves
        if moves == 0:
            if full_pass:
                return total_moves, q_running
            # Quiet on the dirty set alone: verify against every node.
            dirty = bytearray(b"\x01") * n
            full_pass = True
        else:
            full_pass = False


def _aggregate(
    eu: np.ndarray,
    ev: np.ndarray,
    ew: np.ndarray,
    self_w: np.ndarray,
    k: np.ndarray,
    comm: list[int],
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse communities into supernodes; returns the next level's pairs and weights.

    ``(eu, ev, ew)`` is the level's pair list sorted by ``(eu, ev)`` with
    ``eu < ev``. Each supernode's self-loop weight adds its members' carried
    ``self_w`` in node order, then its internal pairs in pair order, and each
    cross pair's weight adds its pairs in pair order, so the float sums do
    not depend on how the level is stored.
    """
    uniq, new_of = np.unique(np.asarray(comm, dtype=np.int64), return_inverse=True)
    n2 = int(uniq.size)
    k2 = np.bincount(new_of, weights=k, minlength=n2)
    cu, cv = new_of[eu], new_of[ev]
    inside = cu == cv
    self2 = np.bincount(np.concatenate([new_of, cu[inside]]),
                        weights=np.concatenate([self_w, ew[inside]]), minlength=n2)
    cross = ~inside
    eu2, ev2, ew2 = _pair_sums(cu[cross], cv[cross], ew[cross])
    return n2, eu2, ev2, ew2, self2, k2, new_of


_MAX_LEVELS = 64


def _shared_list(values: np.ndarray) -> list:
    """``values.tolist()`` with one Python object per distinct value, shared by every entry.

    A level's CSR has far more arcs than nodes or distinct weights, so one
    new int or float per arc would dominate its memory. Values are told
    apart by their raw bits, so ``-0.0`` and ``0.0`` stay distinct and every
    entry equals what ``tolist`` gives. ``values`` is a 1-D 8-byte array.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = np.empty(bits.size, dtype=object)
    distinct[:] = bits.view(values.dtype).tolist()
    return distinct[inverse].tolist()


def _level_lists(
    indptr: np.ndarray, nbr: np.ndarray, wgt: np.ndarray
) -> tuple[list[int], list[int], list[float]]:
    """A level's CSR as the Python lists ``_local_move`` sweeps."""
    return indptr.tolist(), _shared_list(nbr), _shared_list(wgt)


def _first_seen_labels(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel densely: the k distinct values become 0..k-1 in order of first appearance."""
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse], int(first.size)


def louvain(
    g: UndirectedGraph,
    seed: int,
    with_trace: bool = False,
) -> Partition | tuple[Partition, list[float]]:
    """Two-phase Louvain modularity optimization.

    Local moving sweeps nodes in a seed-determined permutation, greedily
    moving each node to the neighboring community with the largest strictly
    positive modularity gain (ties break toward the smallest community
    label), until no move improves Q; communities are then aggregated into
    supernodes and the process repeats until it stops moving. The result is
    deterministic for a fixed seed. Nodes with no edges never move, so they
    end up as singleton communities.

    With ``with_trace=True`` also returns the running modularity value after
    every accepted move; the trace is strictly increasing.
    """
    if g.n_edges == 0:
        raise DomainError("edgeless graph: no communities to detect")
    rng = np.random.default_rng(seed)
    n = g.n_nodes
    m = g.total_weight
    inv_2m = 1.0 / (2.0 * m)

    eu, ev, ew = g.eu, g.ev, g.ew
    indptr, nbr, wgt = _level_lists(g.indptr, g.nbr, g.wgt)
    k = g.strength.astype(np.float64)
    self_w = np.zeros(n, dtype=np.float64)
    comm = list(range(n))
    node_map = np.arange(n, dtype=np.int64)

    trace: list[float] | None = [] if with_trace else None
    # Q of the all-singleton start (level 0 has no self-loops).
    q_running = float(-np.sum((k * inv_2m) ** 2))

    for level in range(_MAX_LEVELS):
        order = rng.permutation(n).tolist()
        sum_tot = k.tolist()
        moves, q_running = _local_move(
            indptr, nbr, wgt, k.tolist(), comm, sum_tot, order, inv_2m, q_running, trace
        )
        log.debug("louvain level %d: %d nodes, %d arcs, %d moves, Q %r",
                  level, n, len(nbr), moves, q_running)
        if moves == 0:
            break
        n, eu, ev, ew, self_w, k, new_of = _aggregate(eu, ev, ew, self_w, k, comm)
        # Free this level's lists before the next level's are built.
        del indptr, nbr, wgt
        indptr, nbr, wgt = _level_lists(*_csr(n, eu, ev, ew))
        # Route every original node through the freshly aggregated supernodes.
        node_map = new_of[node_map]
        comm = list(range(n))
    else:
        log.warning("louvain stopped after %d levels without converging", _MAX_LEVELS)

    final, n_communities = _first_seen_labels(node_map)
    q = modularity(g, final)
    partition = Partition(labels=final, n_communities=n_communities, modularity=q)
    if with_trace:
        return partition, trace if trace is not None else []
    return partition


def reshuffle_partition(p: Partition, seed: int) -> Partition:
    """Randomly permute labels across nodes; community sizes are preserved."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(p.labels.size)
    return Partition(labels=p.labels[perm], n_communities=p.n_communities, modularity=None)


def top_community_labels(p: Partition, k: int | None = None) -> list[int]:
    """Community labels by decreasing size (ties by smaller label)."""
    sizes = p.sizes()
    order = np.lexsort((np.arange(sizes.size), -sizes))
    if k is not None:
        order = order[:k]
    return [int(label) for label in order]


def community_names(p: Partition, k: int = 5) -> dict[int, str]:
    """Name the k largest communities RT1..RTk; everything else is OTHER."""
    names = {}
    for rank, label in enumerate(top_community_labels(p), start=1):
        names[label] = f"RT{rank}" if rank <= k else "OTHER"
    return names


def save_partition(p: Partition, nodes: NodeTable, path: Path | str) -> None:
    if p.labels.size != len(nodes):
        raise DataIntegrityError("partition and node table sizes differ")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["author_id", "community_label"])
        for idx in range(len(nodes)):
            writer.writerow([nodes.name(idx), int(p.labels[idx])])


def load_partition(path: Path | str, nodes: NodeTable) -> Partition:
    """Load an exported partition; labels are re-densified in first-seen order."""
    raw = np.full(len(nodes), -1, dtype=np.int64)
    seen = np.zeros(len(nodes), dtype=bool)
    with _cache_rows(path, ["author_id", "community_label"], "partition") as reader:
        for row in reader:
            idx = nodes.get(row[0])
            if idx is None:
                raise DataIntegrityError(f"{path}: author {row[0]!r} not in node table")
            if seen[idx]:
                raise InputError(f"{path}:{reader.line_num}: duplicate author {row[0]!r}")
            seen[idx] = True
            label = int(row[1])
            if label < 0:
                raise ValueError(f"negative community label {label}")
            raw[idx] = label
    if (raw < 0).any():
        missing = nodes.name(int(np.flatnonzero(raw < 0)[0]))
        raise DataIntegrityError(f"{path}: no community for author {missing!r}")
    labels, n_communities = _first_seen_labels(raw)
    return Partition(labels=labels, n_communities=n_communities, modularity=None)
