"""Retweet-graph construction, projection, and structural statistics."""
from __future__ import annotations

import random

import numpy as np
import pytest

from rtscope.errors import DomainError
from rtscope.graph import (
    build_retweet_graph,
    degree_stats,
    internal_link_density,
    load_graph,
    save_graph,
    to_undirected,
)
from rtscope.ingest.records import TweetRecord


def _rt(tweet_id, author, target, ts=0):
    return TweetRecord(
        tweet_id=tweet_id,
        author_id=author,
        timestamp=ts,
        retweeted_author_id=target,
        retweeted_tweet_id=f"orig-{tweet_id}",
    )


def _orig(tweet_id, author, ts=0, urls=()):
    return TweetRecord(tweet_id=tweet_id, author_id=author, timestamp=ts, urls=tuple(urls))


def _edge_weights(g):
    """The graph's sorted edge arrays as a ``(src, dst) -> weight`` mapping."""
    return dict(zip(zip(g.src.tolist(), g.dst.tolist()), g.weight.tolist()))


def _random_records(rng: random.Random, n_users=30, n_records=200):
    records = []
    for i in range(n_records):
        author = f"u{rng.randrange(n_users)}"
        if rng.random() < 0.8:
            target = f"u{rng.randrange(n_users)}"
            records.append(_rt(f"t{i}", author, target, ts=i))
        else:
            records.append(_orig(f"t{i}", author, ts=i))
    return records


class TestBuild:
    def test_mutual_retweets(self):
        g = build_retweet_graph(
            [_rt("1", "A", "B"), _rt("2", "A", "B"), _rt("3", "B", "A")]
        )
        a, b = g.nodes.index("A"), g.nodes.index("B")
        assert _edge_weights(g)[(a, b)] == 2
        assert _edge_weights(g)[(b, a)] == 1
        assert g.n_nodes == 2

    def test_edges_sorted_unique_int64(self):
        g = build_retweet_graph(_random_records(random.Random(19)))
        assert g.src.dtype == g.dst.dtype == g.weight.dtype == np.int64
        keys = g.src * g.n_nodes + g.dst
        assert (np.diff(keys) > 0).all()
        assert (g.src != g.dst).all() and (g.weight >= 1).all()

    def test_lone_original_poster(self):
        g = build_retweet_graph([_orig("1", "C")])
        assert g.n_nodes == 1
        assert g.n_edges == 0

    def test_unknown_original_still_creates_target(self):
        g = build_retweet_graph([_rt("1", "A", "ghost")])
        assert "ghost" in g.nodes
        assert g.total_weight == 1

    def test_self_retweets_skipped_and_tallied(self):
        g = build_retweet_graph([_rt("1", "A", "A"), _rt("2", "A", "B")])
        assert g.self_retweets_skipped == 1
        assert g.total_weight == 1

    def test_determinism_run_twice(self):
        records = _random_records(random.Random(7))
        g1 = build_retweet_graph(records)
        g2 = build_retweet_graph(records)
        assert _edge_weights(g1) == _edge_weights(g2)
        assert list(g1.nodes.names) == list(g2.nodes.names)

    def test_weight_conservation(self):
        records = _random_records(random.Random(11))
        g = build_retweet_graph(records)
        accepted = sum(1 for r in records if r.is_retweet)
        assert g.total_weight + g.self_retweets_skipped == accepted

    def test_shuffled_input_gives_isomorphic_edge_multiset(self):
        records = _random_records(random.Random(3))
        g1 = build_retweet_graph(records)
        shuffled = records[:]
        random.Random(5).shuffle(shuffled)
        g2 = build_retweet_graph(shuffled)
        by_name_1 = {
            (g1.nodes.name(s), g1.nodes.name(t)): w for (s, t), w in _edge_weights(g1).items()
        }
        by_name_2 = {
            (g2.nodes.name(s), g2.nodes.name(t)): w for (s, t), w in _edge_weights(g2).items()
        }
        assert by_name_1 == by_name_2


class TestUndirected:
    def test_weights_sum_per_pair(self):
        g = build_retweet_graph([_rt("1", "A", "B"), _rt("2", "A", "B"), _rt("3", "B", "A")])
        und = to_undirected(g)
        a, b = g.nodes.index("A"), g.nodes.index("B")
        assert und.weight(a, b) == 3.0
        assert und.weight(b, a) == 3.0

    def test_edgeless_stays_edgeless(self):
        und = to_undirected(build_retweet_graph([_orig("1", "A")]))
        assert und.n_edges == 0

    def test_total_weight_preserved(self):
        g = build_retweet_graph(_random_records(random.Random(13)))
        und = to_undirected(g)
        assert und.total_weight == pytest.approx(g.total_weight)

    def test_strength_sums_to_twice_weight(self):
        g = build_retweet_graph(_random_records(random.Random(17)))
        und = to_undirected(g)
        assert und.strength.sum() == pytest.approx(2 * und.total_weight)


class TestDensity:
    def test_complete_directed_triangle(self):
        records = [
            _rt(f"{i}", a, b)
            for i, (a, b) in enumerate(
                [("A", "B"), ("B", "A"), ("A", "C"), ("C", "A"), ("B", "C"), ("C", "B")]
            )
        ]
        g = build_retweet_graph(records)
        assert internal_link_density(g, [0, 0, 0])[0] == 1.0

    def test_single_internal_edge(self):
        g = build_retweet_graph([_rt("1", "A", "B"), _orig("2", "C")])
        assert internal_link_density(g, [0, 0, 0])[0] == pytest.approx(1 / 6)

    def test_too_few_members(self):
        """A single-member community's density is NaN."""
        g = build_retweet_graph([_rt("1", "A", "B")])
        assert np.isnan(internal_link_density(g, [0, 1])).all()

    def test_labeling_must_cover_every_node(self):
        g = build_retweet_graph([_rt("1", "A", "B"), _orig("2", "C")])
        with pytest.raises(DomainError):
            internal_link_density(g, [0, 0])

    def test_full_node_set_equals_global_density(self):
        g = build_retweet_graph(_random_records(random.Random(23)))
        n = g.n_nodes
        density = internal_link_density(g, np.zeros(n, dtype=np.int64))
        assert density[0] == pytest.approx(g.n_edges / (n * (n - 1)))


class TestDegreeStats:
    def test_single_weighted_edge(self):
        g = build_retweet_graph([_rt("1", "A", "B"), _rt("2", "A", "B")])
        stats = degree_stats(g)
        a, b = g.nodes.index("A"), g.nodes.index("B")
        assert stats.out_strength[a] == 2
        assert stats.in_strength[b] == 2
        assert stats.in_strength[a] == 0

    def test_empty_graph_empty_summary(self):
        g = build_retweet_graph([])
        assert degree_stats(g).summary() == {}

    def test_global_sums_agree(self):
        g = build_retweet_graph(_random_records(random.Random(29)))
        stats = degree_stats(g)
        assert stats.in_strength.sum() == stats.out_strength.sum() == g.total_weight


class TestCache:
    def test_round_trip_exact(self, tmp_path):
        g = build_retweet_graph(_random_records(random.Random(31)))
        save_graph(g, tmp_path / "nodes.csv", tmp_path / "edges.csv")
        loaded = load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")
        for name in ("src", "dst", "weight"):
            assert np.array_equal(getattr(loaded, name), getattr(g, name))
        assert list(loaded.nodes.names) == list(g.nodes.names)
        # the projection built from the cache is numerically identical
        u1, u2 = to_undirected(g), to_undirected(loaded)
        assert np.array_equal(u1.nbr, u2.nbr)
        assert np.array_equal(u1.wgt, u2.wgt)

    def test_unsorted_rows_load_sorted(self, tmp_path):
        g = build_retweet_graph(_random_records(random.Random(37)))
        save_graph(g, tmp_path / "nodes.csv", tmp_path / "edges.csv")
        edges = tmp_path / "edges.csv"
        header, *rows = edges.read_text(encoding="utf-8").splitlines(keepends=True)
        edges.write_text(header + "".join(reversed(rows)), encoding="utf-8")
        loaded = load_graph(tmp_path / "nodes.csv", edges)
        assert _edge_weights(loaded) == _edge_weights(g)
        assert np.array_equal(loaded.src, g.src) and np.array_equal(loaded.dst, g.dst)
