"""The array graph kernels against networkx and against dict-based references."""
from __future__ import annotations

import random

import numpy as np
import pytest

from rtscope.graph import (
    NodeTable,
    UndirectedGraph,
    build_retweet_graph,
    degree_stats,
    internal_link_density,
    to_undirected,
)
from rtscope.ingest.columns import build_columns
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


def _reference_graph(records):
    """The record loop the column kernel replaced: nodes, sorted edges, self-retweets."""
    nodes = NodeTable()
    weights: dict[tuple[int, int], int] = {}
    skipped = 0
    for record in records:
        source = nodes.intern(record.author_id)
        if record.retweeted_author_id is None:
            continue
        target = nodes.intern(record.retweeted_author_id)
        if source == target:
            skipped += 1
            continue
        weights[(source, target)] = weights.get((source, target), 0) + 1
    edges = sorted(weights.items())
    return list(nodes.names), edges, skipped


def _mixed_records(seed: int) -> list[TweetRecord]:
    """Self-retweets, originals, and authors seen only as retweeted."""
    rng = random.Random(seed)
    records = []
    for i in range(rng.randrange(0, 400)):
        author = f"u{rng.randrange(40)}"
        roll = rng.random()
        if roll < 0.2:
            target = None
        elif roll < 0.3:
            target = author
        elif roll < 0.4:
            target = f"only-retweeted{rng.randrange(10)}"
        else:
            target = f"u{rng.randrange(40)}"
        records.append(TweetRecord(f"t{i}", author, i, target, None if target is None else "o"))
    return records


@pytest.mark.parametrize("seed", range(8))
def test_column_graph_matches_record_loop(seed):
    records = _mixed_records(seed)
    names, edges, skipped = _reference_graph(records)
    for tweets in (records, build_columns(records)):
        g = build_retweet_graph(tweets)
        assert list(g.nodes.names) == names
        assert [g.nodes.index(name) for name in names] == list(range(len(names)))
        assert list(zip(zip(g.src.tolist(), g.dst.tolist()), g.weight.tolist())) == edges
        assert g.src.dtype == g.dst.dtype == g.weight.dtype == np.int64
        assert g.self_retweets_skipped == skipped


def test_column_graph_of_no_records():
    g = build_retweet_graph([])
    assert g.n_nodes == 0 and g.n_edges == 0 and g.self_retweets_skipped == 0
    assert _reference_graph([]) == ([], [], 0)
