"""The array graph kernels against networkx and against dict-based references."""
from __future__ import annotations

import random

import numpy as np
import pytest

from rtscope.graph import (
    UndirectedGraph,
    build_retweet_graph,
    degree_stats,
    internal_link_density,
    to_undirected,
)
from rtscope.ingest.records import TweetRecord

SEEDS = [1, 2, 3, 4]


def _random_graph(seed: int, n_users: int = 60, n_records: int = 600):
    """A seeded random retweet graph and the ``(src, dst) -> weight`` dict it folds."""
    rng = random.Random(seed)
    records = []
    for i in range(n_records):
        author = f"u{rng.randrange(n_users)}"
        target = f"u{rng.randrange(n_users)}" if rng.random() < 0.9 else None
        records.append(
            TweetRecord(tweet_id=f"t{i}", author_id=author, timestamp=i,
                        retweeted_author_id=target,
                        retweeted_tweet_id=None if target is None else f"o{i}")
        )
    g = build_retweet_graph(records)
    weights: dict[tuple[int, int], int] = {}
    for r in records:
        if r.retweeted_author_id is not None and r.retweeted_author_id != r.author_id:
            key = (g.nodes.index(r.author_id), g.nodes.index(r.retweeted_author_id))
            weights[key] = weights.get(key, 0) + 1
    return g, weights


def _random_labels(seed: int, n: int, n_groups: int = 6, n_singletons: int = 4) -> np.ndarray:
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_groups, size=n)
    singles = rng.choice(n, size=n_singletons, replace=False)
    labels[singles] = n_groups + np.arange(n_singletons)
    return labels


@pytest.mark.parametrize("seed", SEEDS)
def test_link_density_matches_networkx(seed):
    nx = pytest.importorskip("networkx")
    g, _ = _random_graph(seed)
    labels = _random_labels(seed, g.n_nodes)
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(g.n_nodes))
    digraph.add_edges_from(zip(g.src.tolist(), g.dst.tolist()))
    density = internal_link_density(g, labels)
    assert density.shape == (int(labels.max()) + 1,)
    for c in range(density.size):
        members = np.flatnonzero(labels == c).tolist()
        if len(members) < 2:
            assert np.isnan(density[c])
        else:
            assert density[c] == nx.density(digraph.subgraph(members))


@pytest.mark.parametrize("seed", SEEDS)
def test_degree_stats_match_dict_reference(seed):
    g, weights = _random_graph(seed)
    n = g.n_nodes
    in_deg, out_deg, in_str, out_str = ([0] * n for _ in range(4))
    for (s, t), w in weights.items():
        out_deg[s] += 1
        in_deg[t] += 1
        out_str[s] += w
        in_str[t] += w
    stats = degree_stats(g)
    for got, want in ((stats.in_degree, in_deg), (stats.out_degree, out_deg),
                      (stats.in_strength, in_str), (stats.out_strength, out_str)):
        assert got.dtype == np.int64
        assert got.tolist() == want


@pytest.mark.parametrize("seed", SEEDS)
def test_to_undirected_matches_dict_reference(seed):
    g, weights = _random_graph(seed)
    n = g.n_nodes
    pair: dict[tuple[int, int], float] = {}
    for (s, t), w in weights.items():
        key = (min(s, t), max(s, t))
        pair[key] = pair.get(key, 0.0) + w
    adjacency: list[dict[int, float]] = [{} for _ in range(n)]
    for (u, v), w in pair.items():
        adjacency[u][v] = w
        adjacency[v][u] = w
    indptr = np.cumsum([0] + [len(a) for a in adjacency])
    und = to_undirected(g)
    pairs = sorted(pair.items())
    assert und.eu.tolist() == [u for (u, _), _ in pairs]
    assert und.ev.tolist() == [v for (_, v), _ in pairs]
    assert und.ew.tolist() == [w for _, w in pairs]
    assert und.indptr.tolist() == indptr.tolist()
    assert und.nbr.tolist() == [v for a in adjacency for v in sorted(a)]
    assert und.wgt.tolist() == [a[v] for a in adjacency for v in sorted(a)]
    assert und.strength.tolist() == [sum(a.values()) for a in adjacency]
    assert und.total_weight == sum(pair.values())
    # the pair-mapping constructor builds the same projection
    adapter = UndirectedGraph(g.nodes, pair)
    for name in ("eu", "ev", "ew", "indptr", "nbr", "wgt", "strength"):
        assert np.array_equal(getattr(adapter, name), getattr(und, name))
    assert adapter.total_weight == und.total_weight
