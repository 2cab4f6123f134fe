"""The one-walk URL pass against the per-occurrence reference it replaced.

``reference_user_tallies`` and ``reference_build_url_table`` normalize and
classify every URL occurrence one by one, with dicts and sets. The library
resolves each distinct URL once into tweet columns and aggregates with
numpy; both must give equal results (exact floats, dict key order, URL order
and OP sets), from records and from columns read back from their cache.
"""
from __future__ import annotations

import random
from dataclasses import astuple
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
import pytest

from rtscope import metrics
from rtscope.community import Partition
from rtscope.errors import DataIntegrityError, InvalidUrlError
from rtscope.graph import NodeTable
from rtscope.ingest.botscores import BotScoreTable
from rtscope.ingest.catalog import SourceCatalog, SourceClass, classify_domain
from rtscope.ingest.columns import build_columns, load_columns, save_columns
from rtscope.ingest.records import TweetRecord
from rtscope.ingest.urls import NormalizedUrl, normalize_url
from rtscope.metrics import (
    UrlDiffusionRecord,
    UserProfile,
    UserTally,
    build_url_table,
    entropy,
    entropy_class,
    filter_urls,
    user_tallies,
    write_url_report,
)

# -- the per-occurrence reference ---------------------------------------------


def _record_source_class(record: TweetRecord, catalog: SourceCatalog) -> SourceClass:
    has_reliable = False
    for raw in record.urls:
        try:
            normalized = normalize_url(raw)
        except InvalidUrlError:
            continue
        cls = classify_domain(normalized, catalog)
        if cls is SourceClass.UNRELIABLE:
            return SourceClass.UNRELIABLE
        if cls is SourceClass.RELIABLE:
            has_reliable = True
    return SourceClass.RELIABLE if has_reliable else SourceClass.UNKNOWN


def reference_user_tallies(
    tweets: Iterable[TweetRecord], catalog: SourceCatalog
) -> dict[str, UserTally]:
    tallies: dict[str, UserTally] = {}
    for record in tweets:
        if not record.urls:
            continue
        cls = _record_source_class(record, catalog)
        if cls is SourceClass.UNKNOWN:
            continue
        tally = tallies.get(record.author_id)
        if tally is None:
            tally = tallies[record.author_id] = UserTally()
        if cls is SourceClass.UNRELIABLE:
            tally.unreliable += 1
        else:
            tally.reliable += 1
    return tallies


def _canonicals(record: TweetRecord) -> dict[str, NormalizedUrl]:
    out: dict[str, NormalizedUrl] = {}
    for raw in record.urls:
        try:
            normalized = normalize_url(raw)
        except InvalidUrlError:
            continue
        out.setdefault(normalized.canonical, normalized)
    return out


class _UrlAccumulator:
    def __init__(self, url: NormalizedUrl) -> None:
        self.url = url
        self.shares: dict[int, int] = {}
        self.retweets = 0
        self.ops: set[int] = set()
        self.retweeters: set[int] = set()


def _mean_over(members, nodes, profiles, bot_scores, field) -> float | None:
    total = 0.0
    count = 0
    for idx in sorted(members):
        if field == "u":
            profile = profiles.get(idx)
            value = profile.untrustworthiness if profile is not None else None
        else:
            value = bot_scores.get(nodes.name(idx)) if bot_scores is not None else None
        if value is not None:
            total += value
            count += 1
    return total / count if count else None


def _finalize(acc, nodes, profiles, bot_scores, low, high) -> UrlDiffusionRecord:
    h = entropy(acc.shares)
    retweeters = acc.retweeters - acc.ops
    return UrlDiffusionRecord(
        url=acc.url,
        shares_by_community=dict(sorted(acc.shares.items())),
        total_shares=sum(acc.shares.values()),
        retweets=acc.retweets,
        entropy=h,
        entropy_class=entropy_class(h, low, high),
        ops=frozenset(acc.ops),
        avg_u_retweeters=_mean_over(retweeters, nodes, profiles, bot_scores, "u"),
        avg_bs_retweeters=_mean_over(retweeters, nodes, profiles, bot_scores, "bs"),
        avg_u_ops=_mean_over(acc.ops, nodes, profiles, bot_scores, "u"),
        avg_bs_ops=_mean_over(acc.ops, nodes, profiles, bot_scores, "bs"),
    )


def reference_build_url_table(
    tweets: Iterable[TweetRecord],
    partition: Partition,
    nodes: NodeTable,
    profiles: Mapping[int, UserProfile],
    bot_scores: BotScoreTable | None = None,
    entropy_low: float = 0.4,
    entropy_high: float = 0.9,
) -> list[UrlDiffusionRecord]:
    table: dict[str, _UrlAccumulator] = {}
    for record in tweets:
        if not record.urls:
            continue
        canonicals = _canonicals(record)
        if not canonicals:
            continue
        idx = nodes.get(record.author_id)
        if idx is None or idx >= partition.labels.size:
            raise DataIntegrityError(f"author {record.author_id!r} is missing from the partition")
        label = int(partition.labels[idx])
        for canonical, normalized in canonicals.items():
            acc = table.get(canonical)
            if acc is None:
                acc = table[canonical] = _UrlAccumulator(normalized)
            acc.shares[label] = acc.shares.get(label, 0) + 1
            if record.is_retweet:
                acc.retweets += 1
                acc.retweeters.add(idx)
            else:
                acc.ops.add(idx)
    return [
        _finalize(acc, nodes, profiles, bot_scores, entropy_low, entropy_high)
        for acc in table.values()
    ]


# -- seeded random record sets ------------------------------------------------

CATALOG = SourceCatalog.from_domains(["bad.example", "worse.example"], ["good.example"])


def _url_pool(rng: random.Random) -> list[str]:
    """Raw URLs: canonical duplicates via utm_/www/slash variants, and invalid ones."""
    pool = ["", "http://", "   "]
    for host in ("bad.example", "news.worse.example", "good.example", "other.example"):
        for path in range(rng.randrange(3, 7)):
            base = f"{host}/p{path}"
            pool += [
                base,
                f"https://www.{base}/",
                f"http://{base}?utm_source=tw&utm_medium={rng.randrange(5)}",
                f"{base}?id={path}&fbclid=x",
            ]
    return pool


def _records(seed: int):
    """Return (records, nodes, partition, profiles, bots) for one seeded scenario."""
    rng = random.Random(seed)
    authors = [f"a{i}" for i in range(rng.randrange(20, 60))]
    nodes = NodeTable()
    for name in rng.sample(authors, len(authors)):  # node order differs from first-seen order
        nodes.intern(name)
    n_communities = rng.randrange(1, 6)
    labels = np.array([i % n_communities for i in range(len(authors))])
    rng.shuffle(labels)
    partition = Partition(labels=labels, n_communities=n_communities)
    pool = _url_pool(rng)
    rt_only = [f"rt-only{i}.example/x" for i in range(3)]

    records: list[TweetRecord] = []
    for i in range(rng.randrange(200, 600)):
        author = rng.choice(authors)
        urls = rng.sample(pool, rng.randrange(0, 4))
        if urls and rng.random() < 0.2:
            urls.append(urls[0])  # a URL repeated within one tweet
        if rng.random() < 0.1:
            urls += ["good.example/p0", "bad.example/p0"]  # mixed reliable and unreliable
        if rng.random() < 0.5:
            if rng.random() < 0.2:
                urls.append(rng.choice(rt_only))
            target = rng.choice(authors)
            records.append(TweetRecord(f"t{i}", author, i, target, f"o{i}", tuple(urls)))
        else:
            records.append(TweetRecord(f"t{i}", author, i, urls=tuple(urls)))
    # an OP who also retweets the same URL
    records.append(TweetRecord("op", "a0", 10_000, urls=("other.example/op-rt",)))
    records.append(TweetRecord("rt", "a0", 10_001, "a1", "op", ("other.example/op-rt",)))
    records.append(TweetRecord("rt2", "a1", 10_002, "a0", "op", ("other.example/op-rt",)))

    profiles = {
        nodes.index(name): UserProfile(
            user=nodes.index(name), total=1, unreliable=0, reliable=1, ratio=0.0,
            untrustworthiness=rng.random(),
        )
        for name in authors if rng.random() < 0.7
    }
    bots = BotScoreTable()
    for name in authors:
        if rng.random() < 0.6:
            bots.put(name, rng.random())
    return records, nodes, partition, profiles, bots


SEEDS = range(12)


def _report_bytes(table: list[UrlDiffusionRecord], tmp_path: Path, name: str) -> bytes:
    path = tmp_path / name
    write_url_report(table, path)
    return path.read_bytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_tallies_match_reference(seed):
    records, *_ = _records(seed)
    got = user_tallies(iter(records), CATALOG)
    want = reference_user_tallies(records, CATALOG)
    assert list(got.items()) == list(want.items())
    assert all(type(t.unreliable) is int and type(t.reliable) is int for t in got.values())


@pytest.mark.parametrize("seed", SEEDS)
def test_url_table_matches_reference(seed, tmp_path):
    records, nodes, partition, profiles, bots = _records(seed)
    for bot_table in (bots, None):
        got = build_url_table((r for r in records), partition, nodes, profiles, bot_table)
        want = reference_build_url_table(records, partition, nodes, profiles, bot_table)
        assert got == want  # exact floats, URL order, frozenset OPs
        assert [list(r.shares_by_community.items()) for r in got] == [
            list(r.shares_by_community.items()) for r in want
        ]
        assert all(type(r.ops) is frozenset for r in got)
        assert _report_bytes(got, tmp_path, "got.csv") == _report_bytes(want, tmp_path, "want.csv")


@pytest.mark.parametrize("seed", SEEDS)
def test_cached_columns_match_reference(seed, tmp_path):
    records, nodes, partition, profiles, bots = _records(seed)
    save_columns(build_columns(records), tmp_path / "columns.npz", "tweets.jsonl", "00" * 32)
    columns, *_ = load_columns(tmp_path / "columns.npz")
    got = user_tallies(columns, CATALOG)
    assert list(got.items()) == list(reference_user_tallies(records, CATALOG).items())
    table = build_url_table(columns, partition, nodes, profiles, bots)
    assert table == reference_build_url_table(records, partition, nodes, profiles, bots)
    assert [list(r.shares_by_community.items()) for r in table] == [
        list(r.shares_by_community.items())
        for r in reference_build_url_table(records, partition, nodes, profiles, bots)
    ]


def test_scenarios_cover_the_edge_cases():
    records, nodes, partition, profiles, bots = _records(0)
    table = {r.url.canonical: r for r in reference_build_url_table(
        records, partition, nodes, profiles, bots)}
    assert any(not r.ops for r in table.values())  # retweet-only URLs
    assert any(r.avg_u_retweeters is None or r.avg_bs_ops is None for r in table.values())
    assert any(len(r.shares_by_community) > 1 for r in table.values())
    # the OP of other.example/op-rt also retweets it, and is not counted as a retweeter
    assert table["other.example/op-rt"].ops == {nodes.index("a0")}
    assert table["other.example/op-rt"].retweets == 2


def test_missing_author_raises_like_reference():
    records, nodes, partition, profiles, bots = _records(1)
    records = records + [TweetRecord("s", "stranger", 0, urls=("bad.example/p0",))]
    with pytest.raises(DataIntegrityError, match="stranger"):
        reference_build_url_table(records, partition, nodes, profiles, bots)
    with pytest.raises(DataIntegrityError, match="stranger"):
        build_url_table(records, partition, nodes, profiles, bots)


def test_no_valid_urls_gives_empty_results():
    records = [TweetRecord("t1", "a", 0, urls=("", "http://")), TweetRecord("t2", "b", 1)]
    assert user_tallies(records, CATALOG) == {}
    nodes = NodeTable()
    nodes.intern("a")
    partition = Partition(labels=np.array([0]), n_communities=1)
    assert build_url_table(records, partition, nodes, {}) == []


def test_classify_once_per_distinct_url(monkeypatch):
    records, *_ = _records(3)
    distinct = {raw for r in records for raw in r.urls}
    calls = []

    def counting(url, catalog):
        calls.append(url)
        return classify_domain(url, catalog)

    monkeypatch.setattr(metrics, "classify_domain", counting)
    user_tallies(records, CATALOG)
    occurrences = sum(len(r.urls) for r in records)
    assert occurrences > 2 * len(distinct)
    assert len(calls) <= len(distinct)


def test_url_table_never_classifies(monkeypatch):
    records, nodes, partition, profiles, bots = _records(4)

    def refuse(url, catalog):
        raise AssertionError("build_url_table classified a URL")

    monkeypatch.setattr(metrics, "classify_domain", refuse)
    assert build_url_table(records, partition, nodes, profiles, bots)


def test_classify_once_per_distinct_host(monkeypatch):
    records, *_ = _records(3)
    calls = []

    def counting(url, catalog):
        calls.append(url.host)
        return classify_domain(url, catalog)

    monkeypatch.setattr(metrics, "classify_domain", counting)
    tallies = user_tallies(records, CATALOG)
    urls = build_columns(records).urls
    hosts = {u.host for u in urls}
    assert len(urls) > 2 * len(hosts)
    assert sorted(calls) == sorted(hosts)
    assert list(tallies.items()) == list(reference_user_tallies(records, CATALOG).items())


# -- the share threshold, applied before any record is built -----------------


def _exact(table: list[UrlDiffusionRecord]) -> list[tuple]:
    """Every field of every record, floats as ``float.hex`` and dicts as item lists."""
    def cell(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return list(value.items())
        return value
    return [tuple(cell(v) for v in astuple(r, tuple_factory=list)) for r in table]


@pytest.mark.parametrize("seed", SEEDS)
def test_threshold_equals_filtering_the_whole_table(seed):
    records, nodes, partition, profiles, bots = _records(seed)
    columns = build_columns(records)
    whole = build_url_table(columns, partition, nodes, profiles, bots)
    totals = sorted(r.total_shares for r in whole)
    top = totals[-1]
    assert top > 1
    for k in (0, 1, totals[len(totals) // 2], top - 1, top):
        got = build_url_table(columns, partition, nodes, profiles, bots, min_shares=k)
        want = filter_urls(whole, k)
        assert _exact(got) == _exact(want), k
        assert all(type(r.ops) is frozenset for r in got)
    assert build_url_table(columns, partition, nodes, profiles, bots, min_shares=top) == []
    assert build_url_table(columns, partition, nodes, profiles, bots, min_shares=top + 5) == []


def test_missing_author_with_only_sub_threshold_urls_raises():
    records, nodes, partition, profiles, bots = _records(2)
    # "stranger" shares one URL once, so neither threshold keeps it; `top` keeps no URL.
    records = records + [TweetRecord("s", "stranger", 0, urls=("stranger.example/x",))]
    top = max(r.total_shares for r in build_url_table(records[:-1], partition, nodes, profiles))
    for k in (1, top):
        with pytest.raises(DataIntegrityError, match="stranger"):
            build_url_table(records, partition, nodes, profiles, bots, min_shares=k)
