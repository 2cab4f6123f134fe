"""Rank tests, success thresholds, and conditional success probabilities."""
from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mw_enumeration
from rtscope.errors import DegenerateInputError, DomainError
from rtscope.ingest.urls import normalize_url
from rtscope.metrics import EntropyClass, UrlDiffusionRecord
from rtscope.stats import (
    METHOD_EXACT,
    METHOD_NORMAL,
    conditional_success,
    mann_whitney,
    success_curves,
    success_threshold,
)


class TestMannWhitney:
    def test_disjoint_fixture(self):
        result = mann_whitney([1, 2, 3], [4, 5, 6])
        assert result.u_statistic == 0.0
        assert result.method == METHOD_EXACT
        # 2 of the 20 possible assignments are at least as extreme
        assert result.p_fraction == Fraction(2, 20)
        assert result.p_value == pytest.approx(0.1)

    def test_identical_samples(self):
        result = mann_whitney([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        assert result.u_statistic == pytest.approx(8.0)  # |a|*|b|/2
        assert result.p_value == pytest.approx(1.0)

    def test_complement_identity(self):
        rng = random.Random(0)
        for _ in range(50):
            a = [rng.randrange(10) for _ in range(rng.randrange(1, 8))]
            b = [rng.randrange(10) for _ in range(rng.randrange(1, 8))]
            if min(a + b) == max(a + b):
                continue
            u_a = mann_whitney(a, b).u_statistic
            u_b = mann_whitney(b, a).u_statistic
            assert u_a + u_b == pytest.approx(len(a) * len(b))

    def test_exact_matches_enumeration_small_samples(self):
        rng = random.Random(1)
        for _ in range(60):
            n1 = rng.randrange(1, 7)
            n2 = rng.randrange(1, 7)
            a = [rng.randrange(6) * 0.5 for _ in range(n1)]
            b = [rng.randrange(6) * 0.5 for _ in range(n2)]
            if min(a + b) == max(a + b):
                continue
            result = mann_whitney(a, b)
            u_oracle, p_oracle = mw_enumeration(a, b)
            assert result.u_statistic == pytest.approx(u_oracle)
            assert result.p_fraction == p_oracle

    def test_one_sided_matches_enumeration(self):
        rng = random.Random(2)
        for alternative in ("greater", "less"):
            for _ in range(25):
                a = [rng.randrange(8) for _ in range(rng.randrange(1, 6))]
                b = [rng.randrange(8) for _ in range(rng.randrange(1, 6))]
                if min(a + b) == max(a + b):
                    continue
                result = mann_whitney(a, b, alternative=alternative)
                _, p_oracle = mw_enumeration(a, b, alternative=alternative)
                assert result.p_fraction == p_oracle

    def test_large_disjoint_is_significant(self):
        a = list(np.random.default_rng(0).normal(0.0, 1.0, size=1000))
        b = [x + 10.0 for x in a]
        result = mann_whitney(a, b)
        assert result.method == METHOD_NORMAL
        assert result.p_value <= 1e-4

    def test_large_same_distribution_not_significant(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=500).tolist()
        b = rng.normal(size=500).tolist()
        assert mann_whitney(a, b).p_value > 0.01

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInputError):
            mann_whitney([3.0, 3.0], [3.0, 3.0, 3.0])

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError):
            mann_whitney([], [1.0])

    def test_nan_rejected_inf_ranked(self):
        nan, inf = float("nan"), float("inf")
        with pytest.raises(DomainError):
            mann_whitney([1.0, nan] + [2.0] * 20, [3.0] * 20 + [1.5])
        with pytest.raises(DomainError):
            mann_whitney([1.0, 2.0], [3.0, nan])
        # inf outranks every number: a's top value beats all of b
        assert mann_whitney([0.0, inf], [1.0, 2.0]).u_statistic == 2.0

    def test_arrays_and_lists_agree(self):
        rng = np.random.default_rng(4)
        for n1, n2 in ((5, 9), (300, 3000)):
            a = rng.integers(0, 20, n1).astype(np.float64)
            b = rng.integers(0, 20, n2).astype(np.float64)
            assert mann_whitney(a, b) == mann_whitney(a.tolist(), b.tolist())
        with pytest.raises(ValueError):
            mann_whitney(np.ones((2, 3)), [1.0, 2.0])

    def test_exact_method_boundary(self):
        a = list(range(12))
        b = list(range(6, 18))
        assert mann_whitney(a, b).method == METHOD_EXACT
        assert mann_whitney(a + [99], b).method == METHOD_NORMAL

    def test_ties_use_midranks(self):
        result = mann_whitney([1, 1, 2], [1, 2, 2])
        # U by hand with half-credit for ties: pairs (1,1)x2 .5+.5, (1,2)x4 0,
        # (2,1)x2 1+1... enumerate: a beats b in (2 vs 1): 1; ties: (1,1),(1,1),(2,2),(2,2): 2.0
        assert result.u_statistic == pytest.approx(3.0)

    @given(
        a=st.lists(st.integers(0, 5), min_size=1, max_size=6),
        b=st.lists(st.integers(0, 5), min_size=1, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_exact_p_in_unit_interval(self, a, b):
        if min(a + b) == max(a + b):
            return
        result = mann_whitney(a, b)
        assert 0 < result.p_value <= 1.0
        assert result.p_fraction is not None
        assert 0 < result.p_fraction <= 1


class TestSuccessThreshold:
    def test_four_values(self):
        # nearest-rank 75th percentile of {10,20,30,40} is 30; with the >=
        # rule both 30 and 40 count as successful
        assert success_threshold([10, 20, 30, 40]) == 30

    def test_all_equal_every_url_successful(self):
        assert success_threshold([7, 7, 7, 7]) == 7

    def test_counts_1_to_100(self):
        counts = list(range(1, 101))
        t = success_threshold(counts)
        assert t == 75
        assert sum(1 for c in counts if c >= t) == 26

    def test_too_few(self):
        with pytest.raises(DomainError):
            success_threshold([1, 2, 3])

    def test_bad_quantile(self):
        with pytest.raises(DomainError):
            success_threshold([1, 2, 3, 4], quantile=1.0)

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=4, max_size=200),
        st.sampled_from([0.25, 0.5, 0.75, 0.9]),
    )
    @settings(max_examples=300, deadline=None)
    def test_successful_fraction_band(self, counts, quantile):
        t = success_threshold(counts, quantile)
        n = len(counts)
        successful = sum(1 for c in counts if c >= t)
        ties = sum(1 for c in counts if c == t)
        eps = 1e-12  # boundary cases differ by one ulp (e.g. 5/6 vs 1/2 + 2/6)
        assert (1 - quantile) - eps <= successful / n <= (1 - quantile) + ties / n + eps


def _url_record(idx, retweets, avg_bs_ops=None, avg_u_ops=None, h=0.0):
    return UrlDiffusionRecord(
        url=normalize_url(f"u{idx}.example/x"),
        shares_by_community={0: retweets + 1},
        total_shares=retweets + 1,
        retweets=retweets,
        entropy=h,
        entropy_class=EntropyClass.LOW,
        ops=frozenset({0}),
        avg_u_retweeters=None,
        avg_bs_retweeters=None,
        avg_u_ops=avg_u_ops,
        avg_bs_ops=avg_bs_ops,
    )


class TestConditionalSuccess:
    def test_hand_fixture(self):
        urls = [
            _url_record(0, retweets=100, avg_bs_ops=0.9),
            _url_record(1, retweets=1, avg_bs_ops=0.8),
            _url_record(2, retweets=1, avg_bs_ops=0.1),
            _url_record(3, retweets=1, avg_bs_ops=0.1),
        ]
        # successes {yes,no,no,no}, features {.9,.8,.1,.1}, x=.5 -> 1 of 2
        assert conditional_success(urls, "bs", x=0.5, t=50) == pytest.approx(0.5)

    def test_all_successful(self):
        urls = [_url_record(i, retweets=10, avg_u_ops=i / 10) for i in range(1, 8)]
        for x in (0.0, 0.3, 0.7):
            assert conditional_success(urls, "u", x=x, t=5) == pytest.approx(1.0)

    def test_empty_conditioning_set(self):
        urls = [_url_record(0, retweets=10, avg_bs_ops=0.2)]
        assert conditional_success(urls, "bs", x=0.9, t=5) is None

    def test_urls_without_feature_are_outside_universe(self):
        urls = [
            _url_record(0, retweets=10, avg_bs_ops=0.9),
            _url_record(1, retweets=0),  # no scored OPs
        ]
        assert conditional_success(urls, "bs", x=0.5, t=5) == pytest.approx(1.0)

    def test_independent_feature_gives_base_rate(self):
        rng = random.Random(3)
        urls = [
            _url_record(i, retweets=rng.randrange(100), avg_bs_ops=rng.random())
            for i in range(4000)
        ]
        t = success_threshold([u.retweets for u in urls])
        base = sum(1 for u in urls if u.retweets >= t) / len(urls)
        p = conditional_success(urls, "bs", x=0.5, t=t)
        n_cond = sum(1 for u in urls if u.avg_bs_ops >= 0.5)
        sigma = (base * (1 - base) / n_cond) ** 0.5
        assert abs(p - base) <= 3 * sigma

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.floats(0, 1, allow_nan=False)),
            min_size=1,
            max_size=60,
        ),
        st.floats(0, 1, allow_nan=False),
        st.integers(0, 30),
    )
    @settings(max_examples=200, deadline=None)
    def test_bayes_identity(self, rows, x, t):
        urls = [_url_record(i, retweets=rt, avg_u_ops=f) for i, (rt, f) in enumerate(rows)]
        p = conditional_success(urls, "u", x=x, t=t)
        n_cond = sum(1 for _, f in rows if f >= x)
        if n_cond == 0:
            assert p is None
        else:
            direct = sum(1 for rt, f in rows if f >= x and rt >= t) / n_cond
            assert p == pytest.approx(direct, abs=1e-12)


class TestSuccessCurves:
    def test_single_class_dataset(self):
        urls = [_url_record(i, retweets=i, avg_bs_ops=i / 10, h=0.0) for i in range(10)]
        curves = success_curves(urls, "bs", t=5)
        assert curves[EntropyClass.MEDIUM].points == [] or all(
            p.n_conditioning == 0 for p in curves[EntropyClass.MEDIUM].points
        )
        assert curves[EntropyClass.HIGH].feature_values == []
        assert len(curves[EntropyClass.LOW].defined_points()) > 0

    def test_x_below_minimum_gives_base_rate(self):
        rng = random.Random(4)
        counts = rng.sample(range(1000), k=200)
        urls = [
            _url_record(i, retweets=c, avg_u_ops=rng.random(), h=0.2)
            for i, c in enumerate(counts)
        ]
        t = success_threshold([u.retweets for u in urls])
        base = sum(1 for u in urls if u.retweets >= t) / len(urls)
        curves = success_curves(urls, "u", t=t, xs=[-1.0])
        point = curves[EntropyClass.LOW].points[0]
        assert point.probability == pytest.approx(base)
        assert point.n_conditioning == len(urls)

    def test_n_conditioning_non_increasing(self):
        rng = random.Random(5)
        urls = [
            _url_record(
                i,
                retweets=rng.randrange(50),
                avg_bs_ops=rng.random(),
                h=rng.choice([0.1, 0.6, 1.2]),
            )
            for i in range(300)
        ]
        curves = success_curves(urls, "bs", t=10)
        for curve in curves.values():
            ns = [p.n_conditioning for p in curve.points]
            assert all(b <= a for a, b in zip(ns, ns[1:]))
            for p in curve.defined_points():
                assert 0.0 <= p.probability <= 1.0

    def test_decreasing_grid_rejected(self):
        with pytest.raises(DomainError):
            success_curves([_url_record(0, 5, avg_bs_ops=0.5)], "bs", t=1, xs=[0.5, 0.1])
