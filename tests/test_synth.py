"""Synthetic scenario generation: planted structure and ground truth."""
from __future__ import annotations

import json

import numpy as np
import pytest

from rtscope.errors import ConfigError
from rtscope.graph import build_retweet_graph, to_undirected
from rtscope.ingest.records import read_tweet_file
from rtscope.metrics import build_profiles, build_url_table, entropy, user_tallies
from rtscope.ingest.urls import normalize_url
from rtscope.synth import SyntheticSpec, UrlCascadePlan, build_synthetic, generate_synthetic


def _spec(**overrides):
    base = dict(
        community_sizes=(20, 20),
        intra_p=0.3,
        inter_p=0.02,
        bot_fraction=0.1,
        unreliable_rate=(0.5, 0.05),
        url_tweets_per_user=(2, 5),
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSpecValidation:
    def test_valid_spec_passes(self):
        _spec().validate()

    def test_tiny_community_rejected(self):
        with pytest.raises(ConfigError):
            _spec(community_sizes=(1, 20)).validate()

    def test_zero_intra_with_connectivity_rejected(self):
        with pytest.raises(ConfigError):
            _spec(intra_p=0.0).validate()

    def test_zero_intra_allowed_when_unconnected(self):
        _spec(intra_p=0.0, connected=False).validate()

    def test_probability_out_of_range(self):
        with pytest.raises(ConfigError):
            _spec(inter_p=1.5).validate()

    def test_bot_ops_require_bots(self):
        plan = UrlCascadePlan(count=1, origin_community=0, op_from_bots=True)
        with pytest.raises(ConfigError):
            _spec(bot_fraction=0.0, url_plans=(plan,)).validate()

    def test_json_round_trip(self):
        spec = _spec(url_plans=(UrlCascadePlan(count=2, origin_community=1, breadth=2),))
        again = SyntheticSpec.from_json(spec.to_json())
        assert again == spec


class TestGeneratedStructure:
    def test_record_stream_is_repeatable(self):
        dataset = build_synthetic(_spec(), seed=5)
        first = list(dataset.iter_records())
        second = list(dataset.iter_records())
        assert first == second

    def test_different_seeds_differ(self):
        spec = _spec()
        a = list(build_synthetic(spec, seed=1).iter_records())
        b = list(build_synthetic(spec, seed=2).iter_records())
        assert a != b

    def test_zero_inter_probability_disconnects_communities(self):
        spec = _spec(inter_p=0.0, intra_p=0.4, url_tweets_per_user=(0, 0))
        dataset = build_synthetic(spec, seed=3)
        graph = build_retweet_graph(dataset.iter_records())
        for s, t in zip(graph.src.tolist(), graph.dst.tolist()):
            assert dataset.labels[s] == dataset.labels[t]

    def test_confined_url_has_zero_entropy_downstream(self):
        plan = UrlCascadePlan(
            count=3, origin_community=0, breadth=1, unreliable=True, retweets_min=10,
            retweets_max=15,
        )
        dataset = build_synthetic(_spec(url_plans=(plan,)), seed=7)
        records = list(dataset.iter_records())
        nodes = dataset.node_table()
        partition = dataset.partition()
        table = {r.url.canonical: r for r in build_url_table(records, partition, nodes, {})}
        for truth in dataset.url_truth:
            shares = table[normalize_url(truth.url).canonical].shares_by_community
            assert set(shares) == {0}
            assert entropy(shares) == 0.0

    def test_breadth_two_reaches_two_communities(self):
        plan = UrlCascadePlan(count=2, origin_community=1, breadth=2, retweets_min=12,
                              retweets_max=12)
        dataset = build_synthetic(_spec(url_plans=(plan,)), seed=11)
        records = list(dataset.iter_records())
        nodes = dataset.node_table()
        partition = dataset.partition()
        table = {r.url.canonical: r for r in build_url_table(records, partition, nodes, {})}
        for truth in dataset.url_truth:
            shares = table[normalize_url(truth.url).canonical].shares_by_community
            assert set(shares) == set(truth.communities)

    def test_planted_rate_recovered_within_binomial_ci(self):
        # Community 0 posts unreliable URLs at rate 0.5; the recovered mean
        # ratio should sit within 3 sigma of the planted value.
        spec = _spec(
            community_sizes=(300, 300),
            unreliable_rate=(0.5, 0.05),
            url_tweets_per_user=(8, 8),
            intra_p=0.02,
        )
        dataset = build_synthetic(spec, seed=13)
        tallies = user_tallies(dataset.iter_records(), dataset.catalog())
        ratios = [
            t.unreliable / t.total
            for author, t in tallies.items()
            if dataset.labels[dataset.node_table().index(author)] == 0
        ]
        n_draws = len(ratios) * 8
        sigma = (0.5 * 0.5 / n_draws) ** 0.5
        assert abs(float(np.mean(ratios)) - 0.5) <= 3 * sigma

    def test_bot_scores_split_by_population(self):
        dataset = build_synthetic(_spec(bot_fraction=0.2), seed=17)
        bots = dataset.bot_scores[dataset.is_bot]
        humans = dataset.bot_scores[~dataset.is_bot]
        assert bots.min() >= 0.75
        assert humans.max() <= 0.4

    def test_profiles_buildable_from_stream(self):
        dataset = build_synthetic(_spec(), seed=19)
        tallies = user_tallies(dataset.iter_records(), dataset.catalog())
        profiles = build_profiles(tallies, dataset.node_table(), dataset.bot_table())
        assert profiles
        for p in profiles.values():
            assert 0.0 <= p.untrustworthiness <= 1.0
            assert p.bot_score is not None


class TestGenerateFiles:
    def test_emits_all_artifacts(self, tmp_path):
        plan = UrlCascadePlan(count=1, origin_community=0, breadth=1, unreliable=True)
        paths = generate_synthetic(_spec(url_plans=(plan,)), seed=23, out_dir=tmp_path)
        for key in ("tweets", "unreliable_sources", "reliable_sources", "bot_scores",
                    "ground_truth"):
            assert paths[key].exists(), key

        records, report = read_tweet_file(paths["tweets"])
        assert report.malformed == 0
        assert report.duplicates == 0
        assert records

        truth = json.loads(paths["ground_truth"].read_text())
        assert truth["seed"] == 23
        assert len(truth["users"]) == 40
        assert truth["urls"][0]["unreliable"] is True

    def test_regeneration_is_byte_identical(self, tmp_path):
        spec = _spec()
        generate_synthetic(spec, seed=29, out_dir=tmp_path / "a")
        generate_synthetic(spec, seed=29, out_dir=tmp_path / "b")
        for name in ("tweets.jsonl", "bot_scores.csv", "ground_truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_graph_matches_planted_partition_scale(self, tmp_path):
        spec = _spec(community_sizes=(40, 40), intra_p=0.3, inter_p=0.01,
                     url_tweets_per_user=(0, 0))
        dataset = build_synthetic(spec, seed=31)
        graph = build_retweet_graph(dataset.iter_records())
        und = to_undirected(graph)
        # order-of-magnitude check: intra edges dominate
        intra = sum(
            1
            for s, t in zip(graph.src.tolist(), graph.dst.tolist())
            if dataset.labels[s] == dataset.labels[t]
        )
        assert intra > 0.8 * graph.n_edges
        assert und.total_weight == graph.total_weight
