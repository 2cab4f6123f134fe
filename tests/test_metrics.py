"""User tallies, untrustworthiness, diffusion entropy, and URL aggregation."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import entropy_mp, untrustworthiness_mp
from rtscope.community import Partition
from rtscope.errors import DataIntegrityError, DomainError
from rtscope.graph import NodeTable
from rtscope.ingest.botscores import BotScoreTable
from rtscope.ingest.catalog import SourceCatalog
from rtscope.ingest.records import TweetRecord
from rtscope.ingest.urls import normalize_url
from rtscope.metrics import (
    EntropyClass,
    build_url_table,
    entropy,
    entropy_class,
    filter_urls,
    mark_successful,
    untrustworthiness,
    untrustworthiness_printed_form,
    user_tallies,
)

CATALOG = SourceCatalog.from_domains(["bad.example"], ["good.example"])


def _orig(tid, author, urls=(), ts=0):
    return TweetRecord(tweet_id=tid, author_id=author, timestamp=ts, urls=tuple(urls))


def _rt(tid, author, target, urls=(), ts=0):
    return TweetRecord(
        tweet_id=tid,
        author_id=author,
        timestamp=ts,
        retweeted_author_id=target,
        retweeted_tweet_id=f"o{tid}",
        urls=tuple(urls),
    )


class TestUserTallies:
    def test_direct_counts(self):
        records = [_orig(f"t{i}", "v", ["good.example/a"]) for i in range(4)]
        records.append(_orig("t9", "v", ["bad.example/x"]))
        tallies = user_tallies(records, CATALOG)
        t = tallies["v"]
        assert (t.total, t.unreliable, t.reliable) == (5, 1, 4)
        assert t.unreliable / t.total == pytest.approx(0.2)

    def test_unknown_only_user_absent(self):
        tallies = user_tallies([_orig("t1", "v", ["elsewhere.example/x"])], CATALOG)
        assert "v" not in tallies

    def test_mixed_tweet_counts_unreliable(self):
        # one reliable plus one unreliable URL in the same tweet: the
        # unreliable engagement dominates
        tallies = user_tallies(
            [_orig("t1", "v", ["good.example/a", "bad.example/b"])], CATALOG
        )
        assert tallies["v"].unreliable == 1
        assert tallies["v"].reliable == 0

    def test_retweets_count_for_the_retweeter(self):
        tallies = user_tallies([_rt("t1", "w", "v", ["bad.example/x"])], CATALOG)
        assert tallies["w"].unreliable == 1
        assert "v" not in tallies

    def test_unparseable_urls_skipped(self):
        tallies = user_tallies([_orig("t1", "v", ["http://", "bad.example/x"])], CATALOG)
        assert tallies["v"].unreliable == 1

    def test_total_is_sum_of_parts(self):
        rng = random.Random(0)
        records = []
        for i in range(300):
            url = rng.choice(["good.example/a", "bad.example/b", "meh.example/c"])
            records.append(_orig(f"t{i}", f"u{rng.randrange(20)}", [url]))
        for tally in user_tallies(records, CATALOG).values():
            assert tally.total == tally.unreliable + tally.reliable


class TestUntrustworthiness:
    def test_maximal(self):
        assert untrustworthiness(100, 1.0, 100) == 1.0

    def test_zero_ratio(self):
        assert untrustworthiness(50, 0.0, 100) == 0.0

    def test_worked_example(self):
        expected = float(untrustworthiness_mp(5, "0.4", 100))
        value = untrustworthiness(5, 0.4, 100)
        assert value == pytest.approx(0.0889, abs=1e-4)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_rejects_zero_tweets(self):
        with pytest.raises(DomainError):
            untrustworthiness(0, 0.5, 10)

    def test_rejects_count_above_max(self):
        with pytest.raises(DomainError):
            untrustworthiness(11, 0.5, 10)

    @given(
        t=st.integers(min_value=1, max_value=10_000),
        t_max=st.integers(min_value=1, max_value=10_000),
        r=st.fractions(min_value=0, max_value=1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_and_oracle(self, t, t_max, r):
        if t > t_max:
            t, t_max = t_max, t
        value = untrustworthiness(t, float(r), t_max)
        assert 0.0 <= value <= 1.0
        assert value <= 2 * min(float(r), t / t_max) + 1e-15
        assert value == pytest.approx(float(untrustworthiness_mp(t, r, t_max)), abs=1e-12)

    @given(
        t=st.integers(min_value=1, max_value=999),
        t_max=st.integers(min_value=1000, max_value=2000),
        r=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
        bump_r=st.floats(min_value=1e-6, max_value=0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_monotone(self, t, t_max, r, bump_r):
        base = untrustworthiness(t, min(r, 1.0 - 1e-9), t_max)
        higher_r = min(1.0, r + bump_r)
        if higher_r > r:
            assert untrustworthiness(t, higher_r, t_max) > base
        assert untrustworthiness(t + 1, min(r, 1.0 - 1e-9), t_max) > base

    def test_printed_form_is_activity_blind(self):
        assert untrustworthiness_printed_form(0.5, 100) == pytest.approx(2 / 102)
        assert untrustworthiness_printed_form(0.0, 100) == 0.0
        # it never depends on the individual count, unlike the harmonic form
        assert untrustworthiness(1, 0.5, 100) != untrustworthiness(99, 0.5, 100)


class TestEntropy:
    def test_single_community_zero(self):
        assert entropy({0: 17}) == 0.0

    def test_uniform_is_log_k(self):
        assert entropy({c: 7 for c in range(5)}) == pytest.approx(math.log(5), abs=1e-12)

    def test_worked_example(self):
        value = entropy({0: 50, 1: 30, 2: 20})
        assert value == pytest.approx(float(entropy_mp([50, 30, 20])), abs=1e-12)
        assert value == pytest.approx(1.0297, abs=1e-4)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            entropy({})
        with pytest.raises(DomainError):
            entropy({0: 0, 1: 0})

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_properties(self, counts):
        if sum(counts) == 0:
            counts[0] = 1
        shares = {i: c for i, c in enumerate(counts)}
        h = entropy(shares)
        nonzero = sum(1 for c in counts if c)
        assert h >= 0.0
        assert h <= math.log(nonzero) + 1e-12
        if nonzero == 1:
            assert h == 0.0
        # permutation invariance over community labels
        perm = {i + 100: c for i, c in enumerate(reversed(counts))}
        assert entropy(perm) == pytest.approx(h, abs=1e-12)
        # scale invariance
        scaled = {i: 3 * c for i, c in enumerate(counts)}
        assert entropy(scaled) == pytest.approx(h, abs=1e-12)
        assert h == pytest.approx(float(entropy_mp(counts)), abs=1e-12)


class TestEntropyClass:
    def test_paper_default_boundaries(self):
        assert entropy_class(0.0) is EntropyClass.LOW
        assert entropy_class(0.4) is EntropyClass.LOW
        assert entropy_class(0.9) is EntropyClass.MEDIUM
        assert entropy_class(0.9000001) is EntropyClass.HIGH
        assert entropy_class(1.61) is EntropyClass.HIGH

    def test_custom_thresholds(self):
        assert entropy_class(0.5, low=0.6, high=1.0) is EntropyClass.LOW


def _fixture():
    """10-record fixture with known scores, spreadsheet-checked."""
    nodes = NodeTable()
    for name in ["op1", "op2", "r1", "r2", "r3", "r4"]:
        nodes.intern(name)
    labels = np.array([0, 1, 0, 0, 1, 1])
    partition = Partition(labels=labels, n_communities=2)
    url = "news.example/story"
    records = [
        _orig("t1", "op1", [f"https://{url}"]),
        _orig("t2", "op2", [url]),
        _rt("t3", "r1", "op1", [url]),
        _rt("t4", "r2", "op1", [url]),
        _rt("t5", "r3", "op2", [url]),
        _rt("t6", "r4", "op2", [url]),
        _rt("t7", "r1", "op1", [url]),  # r1 retweets it twice: one user, two shares
        _orig("t8", "r4", ["other.example/x"]),
        _orig("t9", "op1", ["other.example/x"]),
        _rt("t10", "r2", "op2", ["other.example/x"]),
    ]
    profiles = {
        nodes.index("op1"): _profile(nodes.index("op1"), 0.30),
        nodes.index("op2"): _profile(nodes.index("op2"), 0.10),
        nodes.index("r1"): _profile(nodes.index("r1"), 0.10),
        nodes.index("r2"): _profile(nodes.index("r2"), 0.30),
        # r3 has no profile (never matched the catalogs)
        nodes.index("r4"): _profile(nodes.index("r4"), 0.50),
    }
    bots = BotScoreTable()
    bots.put("op1", 0.9)
    bots.put("r1", 0.2)
    bots.put("r2", 0.4)
    # op2, r3, r4 unscored
    return nodes, partition, records, profiles, bots, url


def _profile(idx, u):
    from rtscope.metrics import UserProfile

    return UserProfile(
        user=idx, total=10, unreliable=5, reliable=5, ratio=0.5, untrustworthiness=u
    )


def _url_row(url, records, partition, nodes, profiles=None, bots=None):
    """The ``build_url_table`` record of ``url`` (by canonical form), or None if unseen."""
    table = build_url_table(records, partition, nodes, profiles or {}, bots)
    by_canonical = {r.url.canonical: r for r in table}
    return by_canonical.get(normalize_url(url).canonical)


class TestShareVectorAndOps:
    def test_bucketing(self):
        nodes, partition, records, *_ , url = _fixture()
        shares = _url_row(url, records, partition, nodes).shares_by_community
        # op1, r1 (x2), r2 in community 0; op2, r3, r4 in community 1
        assert shares == {0: 4, 1: 3}

    def test_never_shared(self):
        nodes, partition, records, *_ = _fixture()
        assert _url_row("unseen.example/x", records, partition, nodes) is None

    def test_author_missing_from_partition(self):
        nodes, partition, records, *_ , url = _fixture()
        stranger = [_orig("t99", "stranger", [url])]
        with pytest.raises(DataIntegrityError) as err:
            _url_row(url, records + stranger, partition, nodes)
        assert "stranger" in str(err.value)

    def test_ops_are_non_retweet_authors(self):
        nodes, partition, records, *_ , url = _fixture()
        ops = _url_row(url, records, partition, nodes).ops
        assert ops == {nodes.index("op1"), nodes.index("op2")}

    def test_url_only_in_retweets_has_no_ops(self):
        nodes, partition, records, *_ = _fixture()
        orphan = [_rt("t50", "r1", "op1", ["orphan.example/only-rt"])]
        ops = _url_row("orphan.example/only-rt", records + orphan, partition, nodes).ops
        assert ops == set()


class TestAggregateUrl:
    def test_fixture_fields(self):
        nodes, partition, records, profiles, bots, url = _fixture()
        rec = _url_row(url, records, partition, nodes, profiles, bots)
        assert rec.total_shares == 7
        assert rec.retweets == 5
        assert rec.ops == {nodes.index("op1"), nodes.index("op2")}
        # retweeters r1, r2, r3, r4 (sets, not events); averages skip missing
        assert rec.avg_u_retweeters == pytest.approx((0.1 + 0.3 + 0.5) / 3)
        assert rec.avg_bs_retweeters == pytest.approx((0.2 + 0.4) / 2)
        assert rec.avg_u_ops == pytest.approx((0.3 + 0.1) / 2)
        assert rec.avg_bs_ops == pytest.approx(0.9)
        assert rec.entropy == pytest.approx(float(entropy_mp([4, 3])), abs=1e-12)
        assert rec.entropy_class is EntropyClass.MEDIUM

    def test_no_scores_means_absent(self):
        nodes, partition, records, _, _, url = _fixture()
        rec = _url_row(url, records, partition, nodes, {}, None)
        assert rec.avg_u_retweeters is None
        assert rec.avg_bs_retweeters is None

    def test_pair_with_small_averages(self):
        nodes, partition, records, profiles, bots, url = _fixture()
        # retweeters with U {0.1, 0.3} only: drop r4's record
        trimmed = [r for r in records if r.tweet_id != "t6"]
        rec = _url_row(url, trimmed, partition, nodes, profiles, bots)
        assert rec.avg_u_retweeters == pytest.approx(0.2)

    def test_bulk_table_matches_single_url_path(self):
        # A URL's row does not depend on the other URLs in the table: the
        # table over only the records carrying it gives the same row.
        nodes, partition, records, profiles, bots, url = _fixture()
        table = build_url_table(records, partition, nodes, profiles, bots)
        by_canonical = {r.url.canonical: r for r in table}
        carrying = [r for r in records if any(url in raw for raw in r.urls)]
        single = _url_row(url, carrying, partition, nodes, profiles, bots)
        assert by_canonical[single.url.canonical] == single
        assert set(by_canonical) == {"news.example/story", "other.example/x"}

    def test_reordered_records_same_table(self):
        nodes, partition, records, profiles, bots, _ = _fixture()
        table1 = build_url_table(records, partition, nodes, profiles, bots)
        shuffled = records[:]
        random.Random(1).shuffle(shuffled)
        table2 = build_url_table(shuffled, partition, nodes, profiles, bots)
        assert {r.url.canonical: r for r in table1} == {r.url.canonical: r for r in table2}


class TestFilterAndSuccess:
    def _records(self, shares):
        out = []
        for i, n in enumerate(shares):
            from rtscope.metrics import UrlDiffusionRecord

            out.append(
                UrlDiffusionRecord(
                    url=normalize_url(f"u{i}.example/x"),
                    shares_by_community={0: n},
                    total_shares=n,
                    retweets=n - 1,
                    entropy=0.0,
                    entropy_class=EntropyClass.LOW,
                    ops=frozenset({0}),
                    avg_u_retweeters=None,
                    avg_bs_retweeters=None,
                    avg_u_ops=None,
                    avg_bs_ops=None,
                )
            )
        return out

    def test_strict_threshold(self):
        records = self._records([100, 101, 5])
        kept = filter_urls(records, min_shares=100)
        assert [r.total_shares for r in kept] == [101]

    def test_zero_threshold_keeps_all(self):
        records = self._records([1, 2, 3])
        assert len(filter_urls(records, min_shares=0)) == 3

    def test_mark_successful(self):
        records = self._records([10, 20, 30])
        mark_successful(records, threshold=19)
        assert [r.successful for r in records] == [False, True, True]
