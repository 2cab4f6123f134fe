"""Null-model comparisons of community score distributions."""
from __future__ import annotations

import numpy as np
import pytest

from rtscope.community import Partition, reshuffle_partition
from rtscope.errors import DomainError
from rtscope.stats import null_model_report


def _partition(sizes):
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return Partition(labels=labels, n_communities=len(sizes), modularity=None)


class TestNullModelReport:
    def test_constant_scores_all_degenerate(self):
        partition = _partition([10, 10])
        values = {i: 0.5 for i in range(20)}
        report = null_model_report(values, partition, n_reshuffles=10, seed=0)
        assert all(c.result is None for c in report)
        assert all("degenerate" in c.skipped for c in report)

    def test_tiny_community_flagged(self):
        partition = _partition([1, 19])
        values = {0: 0.9}  # only the singleton community's member is scored
        report = null_model_report(values, partition, n_reshuffles=5, seed=0, communities=[0])
        assert report[0].skipped == "fewer than 2 scored members"

    def test_planted_high_score_community(self):
        # Community 0 is drawn from a clearly higher score distribution:
        # the synthetic generator is the oracle for a known effect size.
        rng = np.random.default_rng(0)
        sizes = [500, 500, 500, 500]
        partition = _partition(sizes)
        values: dict[int, float] = {}
        for i in range(sum(sizes)):
            if i < 500:
                values[i] = float(rng.uniform(0.4, 1.0))
            else:
                values[i] = float(rng.uniform(0.0, 0.6))
        report = null_model_report(values, partition, n_reshuffles=50, seed=1, communities=[0])
        assert report[0].result is not None
        assert report[0].result.p_value <= 1e-4
        assert report[0].n_observed == 500

    def test_observed_reshuffle_gives_uniformish_p(self):
        # When the "observed" assignment is itself a reshuffle, p over many
        # seeds should look uniform; oracle = Kolmogorov distance plus a
        # false-certainty check at the 1% tail.
        rng = np.random.default_rng(2)
        base = _partition([60, 60, 60])
        values = {i: float(rng.normal()) for i in range(180)}
        p_values = []
        for s in range(200):
            observed = reshuffle_partition(base, seed=10_000 + s)
            report = null_model_report(
                values, observed, n_reshuffles=20, seed=s, communities=[0]
            )
            assert report[0].result is not None
            p_values.append(report[0].result.p_value)
        p_sorted = sorted(p_values)
        n = len(p_sorted)
        ks = max(
            max(abs((i + 1) / n - p), abs(i / n - p)) for i, p in enumerate(p_sorted)
        )
        assert ks < 0.15  # 1.36/sqrt(200) is about 0.096; allow slack for discreteness
        assert sum(1 for p in p_values if p < 0.01) <= 0.05 * n

    def test_seed_deterministic_end_to_end(self):
        rng = np.random.default_rng(3)
        partition = _partition([40, 40])
        values = {i: float(rng.random()) for i in range(80)}
        r1 = null_model_report(values, partition, n_reshuffles=30, seed=7)
        r2 = null_model_report(values, partition, n_reshuffles=30, seed=7)
        for a, b in zip(r1, r2):
            assert a.result is not None and b.result is not None
            assert a.result.p_value == b.result.p_value
            assert a.result.u_statistic == b.result.u_statistic

    def test_empty_values_rejected(self):
        with pytest.raises(DomainError):
            null_model_report({}, _partition([5, 5]), n_reshuffles=5, seed=0)

    def test_pool_sizes_scale_with_reshuffles(self):
        rng = np.random.default_rng(5)
        partition = _partition([30, 70])
        values = {i: float(rng.random()) for i in range(100)}
        report = null_model_report(values, partition, n_reshuffles=10, seed=0)
        by_label = {c.label: c for c in report}
        assert by_label[0].n_null == 10 * 30
        assert by_label[1].n_null == 10 * 70
