"""Modularity and the Mann-Whitney test against networkx and scipy."""
from __future__ import annotations

import numpy as np
import pytest

from rtscope.community import louvain, modularity
from rtscope.graph import NodeTable, UndirectedGraph, build_retweet_graph, to_undirected
from rtscope.stats import EXACT_MAX_SIZE, METHOD_EXACT, METHOD_NORMAL, mann_whitney
from rtscope.synth import SyntheticSpec, build_synthetic

ALTERNATIVES = ("two-sided", "greater", "less")


def _random_graph(seed: int) -> UndirectedGraph:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 120))
    pairs: dict[tuple[int, int], float] = {}
    for _ in range(4 * n):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            key = (min(u, v), max(u, v))
            pairs[key] = pairs.get(key, 0.0) + float(rng.choice([0.1, 0.3, 1.7, 1e-3]))
    return UndirectedGraph(NodeTable.from_names(f"u{i}" for i in range(n)), pairs)


def _planted_graph(seed: int) -> UndirectedGraph:
    spec = SyntheticSpec(
        community_sizes=(30, 30, 30), intra_p=0.2, inter_p=0.02, url_tweets_per_user=(0, 0)
    )
    return to_undirected(build_retweet_graph(build_synthetic(spec, seed).iter_records()))


def _nx_modularity(nx, g: UndirectedGraph, labels: np.ndarray) -> float:
    graph = nx.Graph()
    graph.add_nodes_from(range(g.n_nodes))
    graph.add_weighted_edges_from(zip(g.eu.tolist(), g.ev.tolist(), g.ew.tolist()))
    communities = [set(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)]
    return nx.community.modularity(graph, communities, weight="weight")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("build", [_random_graph, _planted_graph])
def test_modularity_matches_networkx(build, seed):
    nx = pytest.importorskip("networkx")
    g = build(seed)
    rng = np.random.default_rng(seed)
    labelings = [rng.integers(0, k, g.n_nodes) for k in (1, 3, 7)]
    partition = louvain(g, seed=seed)
    labelings.append(partition.labels)
    for labels in labelings:
        assert modularity(g, labels) == pytest.approx(_nx_modularity(nx, g, labels), abs=1e-12)
    assert partition.modularity == modularity(g, partition.labels)


def test_mann_whitney_normal_path_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(11)
    for _ in range(60):
        n1 = int(rng.integers(EXACT_MAX_SIZE + 1, 80))
        n2 = int(rng.integers(1, 80))
        levels = int(rng.integers(2, 12))
        # Few distinct values, so every sample has ties.
        a = rng.integers(0, levels, n1) * 0.25
        b = rng.integers(0, levels, n2) * 0.25 + rng.choice([0.0, 0.25])
        if np.unique(np.concatenate([a, b])).size < 2:
            continue
        for alternative in ALTERNATIVES:
            got = mann_whitney(a.tolist(), b.tolist(), alternative)
            want = stats.mannwhitneyu(
                a, b, alternative=alternative, method="asymptotic", use_continuity=True
            )
            assert got.method == METHOD_NORMAL
            assert got.u_statistic == want.statistic
            assert got.p_value == pytest.approx(want.pvalue, rel=1e-12)


def test_mann_whitney_exact_path_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(12)
    for _ in range(60):
        n1, n2 = (int(x) for x in rng.integers(1, 9, 2))
        # Distinct values: scipy's exact method assumes no ties.
        values = rng.permutation(100)[: n1 + n2] * 0.5
        a, b = values[:n1], values[n1:]
        for alternative in ALTERNATIVES:
            got = mann_whitney(a.tolist(), b.tolist(), alternative)
            want = stats.mannwhitneyu(a, b, alternative=alternative, method="exact")
            assert got.method == METHOD_EXACT
            assert got.u_statistic == want.statistic
            assert got.p_value == pytest.approx(want.pvalue, rel=0, abs=1e-12)
