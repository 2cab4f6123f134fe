"""Modularity, Louvain, and partition reshuffling."""
from __future__ import annotations

import itertools
import logging
import tracemalloc

import numpy as np
import pytest

from helpers import best_partition_bruteforce, labelings, modularity_oracle, pair_dict
from rtscope.errors import DomainError
from rtscope.community import (
    Partition,
    _shared_list,
    community_names,
    load_partition,
    louvain,
    modularity,
    reshuffle_partition,
    save_partition,
    top_community_labels,
)
from rtscope.graph import NodeTable, UndirectedGraph


def _graph(pairs: dict[tuple[int, int], float], n: int) -> UndirectedGraph:
    nodes = NodeTable()
    for i in range(n):
        nodes.intern(f"u{i}")
    return UndirectedGraph(nodes, pairs)


def _clique(span) -> list[tuple[int, int]]:
    return list(itertools.combinations(span, 2))


TWO_CLIQUES_BRIDGE = pair_dict(_clique(range(5)) + _clique(range(5, 10)) + [(4, 5)])


def _planted(n: int, n_comm: int, n_pairs: int, p_out: float, seed: int) -> UndirectedGraph:
    """Random pairs, a share ``1 - p_out`` of them inside ``n_comm`` equal blocks; weights 1-3."""
    rng = np.random.default_rng(seed)
    size = n // n_comm
    u = rng.integers(0, n, n_pairs)
    inside = rng.random(n_pairs) >= p_out
    v = np.where(inside, u // size * size + rng.integers(0, size, n_pairs),
                 rng.integers(0, n, n_pairs))
    w = rng.integers(1, 4, n_pairs).astype(np.float64)
    pairs = {
        (min(a, b), max(a, b)): x
        for a, b, x in zip(u.tolist(), v.tolist(), w.tolist())
        if a != b
    }
    return _graph(pairs, n)


class TestModularity:
    def test_all_in_one_is_zero(self):
        pairs = pair_dict([(0, 1), (1, 2), (2, 0), (2, 3)])
        g = _graph(pairs, 4)
        assert modularity(g, [0, 0, 0, 0]) == pytest.approx(0.0, abs=1e-15)

    def test_two_disjoint_cliques_half(self):
        # Closed form: each clique holds half the weight and has no outside
        # links, so Q = 2 * (1/2 - 1/4) = 1/2.
        pairs = pair_dict(_clique(range(4)) + _clique(range(4, 8)))
        g = _graph(pairs, 8)
        assert modularity(g, [0] * 4 + [1] * 4) == pytest.approx(0.5, abs=1e-12)

    def test_singletons_negative_sum(self):
        pairs = pair_dict([(0, 1), (1, 2), (2, 3), (3, 0)])
        g = _graph(pairs, 4)
        m = 4.0
        expected = -sum((2.0 / (2 * m)) ** 2 for _ in range(4))
        assert modularity(g, [0, 1, 2, 3]) == pytest.approx(expected, abs=1e-12)

    def test_matches_oracle_on_random_labelings(self):
        rng = np.random.default_rng(0)
        pairs = {}
        n = 12
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    pairs[(u, v)] = float(rng.integers(1, 5))
        g = _graph(pairs, n)
        for _ in range(20):
            labels = rng.integers(0, 4, size=n).tolist()
            assert modularity(g, labels) == pytest.approx(
                modularity_oracle(pairs, n, labels), abs=1e-12
            )

    def test_edgeless_graph_rejected(self):
        g = _graph({}, 3)
        with pytest.raises(DomainError):
            modularity(g, [0, 1, 2])


class TestLouvain:
    def test_two_cliques_with_bridge(self):
        # Exhaustive oracle over all partitions with at most 3 parts confirms
        # the clique split is the modularity optimum for this graph.
        _, best_q = best_partition_bruteforce(TWO_CLIQUES_BRIDGE, 10, max_parts=3)
        g = _graph(TWO_CLIQUES_BRIDGE, 10)
        for seed in range(10):
            p = louvain(g, seed)
            labels = p.labels.tolist()
            assert p.n_communities == 2
            assert len(set(labels[:5])) == 1 and len(set(labels[5:])) == 1
            assert labels[0] != labels[5]
            assert p.modularity == pytest.approx(best_q, abs=1e-12)

    def test_triangle_single_community(self):
        pairs = pair_dict([(0, 1), (1, 2), (2, 0)])
        # All 5 partitions of 3 nodes, by enumeration: the all-in-one
        # labeling is the unique maximum.
        assert len(list(labelings(3))) == 5
        _, best_q = best_partition_bruteforce(pairs, 3)
        assert best_q == pytest.approx(0.0, abs=1e-15)
        g = _graph(pairs, 3)
        p = louvain(g, seed=1)
        assert p.n_communities == 1
        assert p.modularity == pytest.approx(0.0, abs=1e-15)

    def test_same_seed_same_labels(self):
        g = _graph(TWO_CLIQUES_BRIDGE, 10)
        p1 = louvain(g, seed=42)
        p2 = louvain(g, seed=42)
        assert np.array_equal(p1.labels, p2.labels)

    def test_edgeless_graph_rejected(self):
        with pytest.raises(DomainError):
            louvain(_graph({}, 2), seed=0)

    def test_beats_trivial_partitions(self):
        rng = np.random.default_rng(5)
        pairs = {}
        n = 40
        for u in range(n):
            for v in range(u + 1, n):
                same = (u < 20) == (v < 20)
                if rng.random() < (0.3 if same else 0.02):
                    pairs[(u, v)] = 1.0
        g = _graph(pairs, n)
        p = louvain(g, seed=0)
        assert p.modularity >= modularity(g, [0] * n)
        assert p.modularity >= modularity(g, list(range(n)))

    def test_trace_strictly_increases(self):
        g = _graph(TWO_CLIQUES_BRIDGE, 10)
        p, trace = louvain(g, seed=3, with_trace=True)
        assert len(trace) >= 1
        assert all(b > a for a, b in zip(trace, trace[1:]))
        assert trace[-1] == pytest.approx(p.modularity, abs=1e-9)

    def test_stored_modularity_matches_recomputation(self):
        rng = np.random.default_rng(9)
        pairs = {}
        for u in range(30):
            for v in range(u + 1, 30):
                if rng.random() < 0.15:
                    pairs[(u, v)] = float(rng.integers(1, 4))
        g = _graph(pairs, 30)
        p = louvain(g, seed=0)
        assert p.modularity == pytest.approx(modularity(g, p.labels), abs=1e-9)

    def test_logs_one_debug_line_per_level(self, caplog):
        g = _planted(400, 4, 3000, 0.05, seed=3)
        with caplog.at_level(logging.DEBUG, logger="rtscope.community"):
            p = louvain(g, seed=1)
        levels = [r.args for r in caplog.records if r.msg.startswith("louvain level")]
        assert len(levels) >= 2
        assert [lv[0] for lv in levels] == list(range(len(levels)))
        assert levels[0][1:3] == (g.n_nodes, g.nbr.size)
        assert all(lv[3] > 0 for lv in levels[:-1]) and levels[-1][3] == 0
        assert levels[-1][1] == p.n_communities
        assert levels[-1][4] == pytest.approx(p.modularity, abs=1e-12)

    def test_peak_memory_per_arc(self):
        # Each level's lists share one Python object per node and per distinct
        # weight; one int and one float per arc would take about 100 B/arc.
        g = _planted(4000, 4, 42_000, 0.05, seed=7)
        arcs = g.nbr.size
        assert arcs > 80_000
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            louvain(g, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / arcs < 70

    def test_isolated_nodes_become_singletons(self):
        pairs = pair_dict([(0, 1), (1, 2), (2, 0)])
        g = _graph(pairs, 5)  # nodes 3, 4 isolated
        p = louvain(g, seed=0)
        labels = p.labels.tolist()
        assert labels[0] == labels[1] == labels[2]
        assert len({labels[3], labels[4], labels[0]}) == 3
        assert p.n_communities == 3


class TestSharedList:
    @pytest.mark.parametrize("values", [
        np.array([5, 300, -7, 300, 5, 2**40, 0, 2**40, 300], dtype=np.int64),
        np.array([0.1, -0.0, 0.0, 0.1, 1e300, -0.0, 2.5, 0.0, float("inf"), 0.1]),
    ])
    def test_matches_tolist_with_one_object_per_bit_pattern(self, values):
        shared = _shared_list(values)
        plain = values.tolist()
        assert [type(x) for x in shared] == [type(x) for x in plain]
        assert [repr(x) for x in shared] == [repr(x) for x in plain]
        if values.dtype == np.float64:
            assert [x.hex() for x in shared] == [x.hex() for x in plain]
        assert len({id(x) for x in shared}) == np.unique(values.view(np.int64)).size

    def test_empty(self):
        assert _shared_list(np.empty(0)) == []
        assert _shared_list(np.empty(0, dtype=np.int64)) == []


class TestReshuffle:
    def test_sizes_preserved(self):
        p = Partition(labels=np.array([0, 0, 0, 1, 1]), n_communities=2)
        shuffled = reshuffle_partition(p, seed=0)
        assert sorted(shuffled.labels.tolist()) == sorted(p.labels.tolist())

    def test_single_community_identity(self):
        p = Partition(labels=np.zeros(6, dtype=np.int64), n_communities=1)
        shuffled = reshuffle_partition(p, seed=1)
        assert np.array_equal(shuffled.labels, p.labels)

    def test_seed_deterministic(self):
        p = Partition(labels=np.array([0, 1, 2, 0, 1, 2, 0]), n_communities=3)
        a = reshuffle_partition(p, seed=9)
        b = reshuffle_partition(p, seed=9)
        assert np.array_equal(a.labels, b.labels)

    def test_node_frequency_matches_binomial(self):
        # Over many reshuffles node 0 lands in community 0 with frequency
        # |c0|/n, within 3 sigma of the binomial oracle.
        p = Partition(labels=np.array([0, 0, 0, 1, 1]), n_communities=2)
        n_trials = 10_000
        hits = sum(
            1 for s in range(n_trials) if reshuffle_partition(p, seed=s).labels[0] == 0
        )
        expected = 3 / 5
        sigma = (expected * (1 - expected) / n_trials) ** 0.5
        assert abs(hits / n_trials - expected) <= 3 * sigma


class TestPartitionHelpers:
    def test_top_labels_and_names(self):
        labels = np.array([0, 0, 1, 1, 1, 2])
        p = Partition(labels=labels, n_communities=3)
        assert top_community_labels(p) == [1, 0, 2]
        names = community_names(p, k=2)
        assert names == {1: "RT1", 0: "RT2", 2: "OTHER"}

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition(labels=np.array([0, 2]), n_communities=3)  # label 1 unused

    def test_save_load_round_trip(self, tmp_path):
        nodes = NodeTable()
        for i in range(5):
            nodes.intern(f"u{i}")
        p = Partition(labels=np.array([1, 0, 1, 2, 0]), n_communities=3)
        save_partition(p, nodes, tmp_path / "part.csv")
        loaded = load_partition(tmp_path / "part.csv", nodes)
        # labels are re-densified in first-seen order but the grouping is identical
        groups = lambda labels: {
            tuple(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)
        }
        assert groups(loaded.labels) == groups(p.labels)

    def test_load_relabels_in_first_seen_order(self, tmp_path):
        rng = np.random.default_rng(0)
        nodes = NodeTable()
        for i in range(200):
            nodes.intern(f"u{i}")
        raw = (rng.integers(0, 100, size=200) * 7919).tolist()  # sparse, repeated labels
        path = tmp_path / "part.csv"
        path.write_text(
            "author_id,community_label\n" + "".join(f"u{i},{c}\n" for i, c in enumerate(raw)),
            encoding="utf-8",
        )
        canon: dict[int, int] = {}
        expected = [canon.setdefault(c, len(canon)) for c in raw]  # loop reference
        loaded = load_partition(path, nodes)
        assert loaded.labels.tolist() == expected
        assert loaded.n_communities == len(canon)
