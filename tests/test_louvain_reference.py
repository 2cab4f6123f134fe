"""Louvain against the dict-and-loop level code it replaced, bit for bit.

The reference below is the earlier pure-Python code: the projection's CSR
filled from sorted pairs, strengths summed in ``(eu, ev)`` edge order, and
an ``_aggregate`` that walks each level's CSR upper triangle into a pair
dict. ``louvain`` now builds every level from ``(eu, ev, ew)`` arrays with
``graph._pair_sums`` and ``graph._csr``; it must give the same labels, the
same Q bits and the same move trace. Non-dyadic weights make any change in
the order of a float sum visible.
"""
from __future__ import annotations

import types

import numpy as np
import pytest

from rtscope.community import _aggregate, _first_seen_labels, _local_move, louvain, modularity
from rtscope.graph import (
    NodeTable,
    UndirectedGraph,
    _csr,
    build_retweet_graph,
    to_undirected,
)
from rtscope.synth import SyntheticSpec, build_synthetic

_WEIGHTS = (0.1, 0.3, 1.7, 1e-3)


def _reference_csr(n: int, pairs: list[tuple[tuple[int, int], float]]):
    """CSR of sorted ``(u < v)`` pairs by degree count, prefix sum and fill."""
    deg = [0] * n
    for (u, v), _ in pairs:
        deg[u] += 1
        deg[v] += 1
    indptr = [0] * (n + 1)
    for i in range(n):
        indptr[i + 1] = indptr[i] + deg[i]
    fill = indptr[:-1].copy()
    nbr = [0] * indptr[-1]
    wgt = [0.0] * indptr[-1]
    for (u, v), w in pairs:
        nbr[fill[u]] = v
        wgt[fill[u]] = w
        fill[u] += 1
        nbr[fill[v]] = u
        wgt[fill[v]] = w
        fill[v] += 1
    return indptr, nbr, wgt


def _reference_aggregate(n, indptr, nbr, wgt, self_w, k, comm):
    comm_arr = np.asarray(comm, dtype=np.int64)
    uniq, new_of = np.unique(comm_arr, return_inverse=True)
    n2 = int(uniq.size)
    k2 = np.bincount(new_of, weights=k, minlength=n2)
    self2 = np.bincount(new_of, weights=self_w, minlength=n2)
    acc: dict[tuple[int, int], float] = {}
    new_list = new_of.tolist()
    for i in range(n):
        ci = new_list[i]
        for idx in range(indptr[i], indptr[i + 1]):
            j = nbr[idx]
            if j <= i:
                continue
            cj = new_list[j]
            if ci == cj:
                self2[ci] += wgt[idx]
            else:
                key = (ci, cj) if ci < cj else (cj, ci)
                acc[key] = acc.get(key, 0.0) + wgt[idx]
    pairs = sorted(acc.items())
    return n2, pairs, *_reference_csr(n2, pairs), self2, k2, new_of


def _reference_louvain(n: int, pairs: dict[tuple[int, int], float], seed: int):
    """Labels, Q, trace and levels of the level loop over ``(u < v)`` pair weights.

    Each level is ``(pairs, self_w, k, comm)`` going into an aggregation and
    the aggregation's ``(n, pairs, indptr, nbr, wgt, self_w, k, new_of)``.
    """
    items = sorted(pairs.items())
    strength = [0.0] * n
    for (u, _), w in items:
        strength[u] += w
    for (_, v), w in items:
        strength[v] += w
    ew = np.array([w for _, w in items])
    graph = types.SimpleNamespace(
        n_nodes=n,
        total_weight=float(ew.sum()),
        eu=np.array([u for (u, _), _ in items], dtype=np.int64),
        ev=np.array([v for (_, v), _ in items], dtype=np.int64),
        ew=ew,
        strength=np.array(strength),
    )
    indptr, nbr, wgt = _reference_csr(n, items)

    rng = np.random.default_rng(seed)
    inv_2m = 1.0 / (2.0 * graph.total_weight)
    k = graph.strength.copy()
    self_w = np.zeros(n, dtype=np.float64)
    comm = list(range(n))
    node_map = np.arange(n, dtype=np.int64)
    trace: list[float] = []
    levels = []
    q_running = float(-np.sum((k * inv_2m) ** 2))
    for _ in range(64):
        order = rng.permutation(n).tolist()
        moves, q_running = _local_move(
            indptr, nbr, wgt, k.tolist(), comm, k.tolist(), order, inv_2m, q_running, trace
        )
        if moves == 0:
            break
        level_in = (items, self_w, k, list(comm))
        out = _reference_aggregate(n, indptr, nbr, wgt, self_w, k, comm)
        levels.append((level_in, out))
        n, items, indptr, nbr, wgt, self_w, k, new_of = out
        node_map = new_of[node_map]
        comm = list(range(n))
    labels, _ = _first_seen_labels(node_map)
    return labels.tolist(), modularity(graph, labels), trace, levels


def _random_pairs(seed: int) -> tuple[int, dict[tuple[int, int], float]]:
    """A sparse random graph; keys are ``(u < v)``, inserted in random order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(150, 400))
    pairs: dict[tuple[int, int], float] = {}
    for _ in range(int(rng.integers(2 * n, 5 * n))):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            key = (min(u, v), max(u, v))
            pairs[key] = pairs.get(key, 0.0) + _WEIGHTS[int(rng.integers(len(_WEIGHTS)))]
    return n, pairs


def _planted(seed: int):
    """A planted four-community retweet graph."""
    spec = SyntheticSpec(
        community_sizes=(40, 40, 40, 40), intra_p=0.15, inter_p=0.02, url_tweets_per_user=(0, 0)
    )
    return build_retweet_graph(build_synthetic(spec, seed).iter_records())


def _undirected_pairs(g, scale: float) -> dict[tuple[int, int], float]:
    """The directed graph's ``(u < v)`` pair sums, in edge order, times ``scale``."""
    pairs: dict[tuple[int, int], float] = {}
    for s, t, w in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist()):
        key = (min(s, t), max(s, t))
        pairs[key] = pairs.get(key, 0.0) + w * scale
    return pairs


def _case(kind: str, seed: int) -> tuple[UndirectedGraph, dict[tuple[int, int], float]]:
    if kind == "random":
        n, pairs = _random_pairs(seed)
        return UndirectedGraph(NodeTable.from_names(f"u{i}" for i in range(n)), pairs), pairs
    g = _planted(seed)
    if kind == "planted-scaled":
        # Non-dyadic weights through the pair-mapping constructor.
        pairs = _undirected_pairs(g, 0.1)
        return UndirectedGraph(g.nodes, pairs), pairs
    return to_undirected(g), _undirected_pairs(g, 1.0)


CASES = (
    [("random", seed) for seed in range(6)]
    + [("planted-scaled", seed) for seed in range(3)]
    + [("projected", seed) for seed in range(3)]
)


def _bits(values) -> list[str]:
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("kind,seed", CASES)
def test_louvain_equals_reference(kind, seed):
    g, pairs = _case(kind, seed)
    labels, q, trace, _ = _reference_louvain(g.n_nodes, pairs, seed)
    partition, got_trace = louvain(g, seed=seed, with_trace=True)
    assert partition.labels.tolist() == labels
    assert _bits([partition.modularity]) == _bits([q])
    assert _bits(got_trace) == _bits(trace)


@pytest.mark.parametrize("kind,seed", CASES)
def test_aggregate_equals_reference(kind, seed):
    """Each level's aggregation, fed the reference's level, gives the same bits."""
    g, pairs = _case(kind, seed)
    levels = _reference_louvain(g.n_nodes, pairs, seed)[3]
    assert len(levels) >= 2
    for (items, self_w, k, comm), want in levels:
        n2, want_pairs, indptr, nbr, wgt, self2, k2, new_of = want
        eu = np.array([u for (u, _), _ in items], dtype=np.int64)
        ev = np.array([v for (_, v), _ in items], dtype=np.int64)
        ew = np.array([w for _, w in items])
        got = _aggregate(eu, ev, ew, self_w, k, comm)
        got_n2, eu2, ev2, ew2, got_self2, got_k2, got_new_of = got
        assert got_n2 == n2
        assert list(zip(eu2.tolist(), ev2.tolist())) == [key for key, _ in want_pairs]
        assert _bits(ew2) == _bits(w for _, w in want_pairs)
        assert _bits(got_self2) == _bits(self2)
        assert _bits(got_k2) == _bits(k2)
        assert got_new_of.tolist() == new_of.tolist()
        got_indptr, got_nbr, got_wgt = _csr(n2, eu2, ev2, ew2)
        assert got_indptr.tolist() == indptr
        assert got_nbr.tolist() == nbr
        assert _bits(got_wgt) == _bits(wgt)
