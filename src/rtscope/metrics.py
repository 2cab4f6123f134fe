"""Per-user trust tallies and per-URL diffusion measures."""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from rtscope.community import Partition
from rtscope.errors import DataIntegrityError, DomainError
from rtscope.graph import NodeTable
from rtscope.ingest.botscores import BotScoreTable
from rtscope.ingest.catalog import SourceCatalog, SourceClass, classify_domain
from rtscope.ingest.columns import TweetColumns, as_columns
from rtscope.ingest.records import TweetRecord
from rtscope.ingest.urls import NormalizedUrl

log = logging.getLogger(__name__)


@dataclass
class UserTally:
    """Counts of a user's catalog-matched posts (originals and retweets alike)."""

    unreliable: int = 0
    reliable: int = 0

    @property
    def total(self) -> int:
        return self.unreliable + self.reliable


# A record takes the highest rank among its URLs: unreliable dominates a mixed tweet.
_CLASS_RANK = {SourceClass.UNKNOWN: 0, SourceClass.RELIABLE: 1, SourceClass.UNRELIABLE: 2}


def user_tallies(
    tweets: TweetColumns | Iterable[TweetRecord], catalog: SourceCatalog
) -> dict[str, UserTally]:
    """Tally catalog-matched posts per author, in first-matched order.

    A record with at least one unreliable URL counts as unreliable; else one
    with at least one reliable URL counts as reliable; records with only
    unknown (or unparseable) URLs contribute nothing. Users with no matched
    records are absent from the result.
    """
    columns = as_columns(tweets)
    rows = np.flatnonzero(np.diff(columns.url_ptr))  # records with a valid URL
    # The class depends only on the host: classify one URL per distinct host.
    rank_of: dict[str, int] = {}
    ranks = []
    for u in columns.urls:
        host = u.host
        if host not in rank_of:
            rank_of[host] = _CLASS_RANK[classify_domain(u, catalog)]
        ranks.append(rank_of[host])
    rank = np.array(ranks, dtype=np.int64)
    row_rank = np.maximum.reduceat(rank[columns.url_ids], columns.url_ptr[rows])
    matched = row_rank > 0
    authors = columns.author[rows[matched]].astype(np.int64)
    counts = np.bincount(2 * authors + row_rank[matched] - 1, minlength=2 * len(columns.names))
    counts = counts.reshape(-1, 2).tolist()  # [reliable, unreliable] per author
    seen, first_row = np.unique(authors, return_index=True)
    return {
        columns.names[a]: UserTally(unreliable=counts[a][1], reliable=counts[a][0])
        for a in seen[np.argsort(first_row)].tolist()
    }


def untrustworthiness(tweet_count: int, ratio: float, max_tweet_count: int) -> float:
    """Harmonic mean of the unreliable-share ratio and normalized activity.

    With A = tweet_count / max_tweet_count, returns 2*ratio*A / (ratio + A),
    which is 0 when ratio is 0 and 1 when both arguments are 1. Keep this
    function as the single definition of the score so an alternative
    formulation can be swapped in for comparison (see
    ``untrustworthiness_printed_form``).
    """
    if max_tweet_count < 1:
        raise DomainError("max_tweet_count must be at least 1")
    if not 1 <= tweet_count <= max_tweet_count:
        raise DomainError(
            f"tweet_count {tweet_count} outside [1, {max_tweet_count}]; "
            "users with no catalog-matched tweets must be excluded"
        )
    if not 0.0 <= ratio <= 1.0:
        raise DomainError(f"ratio {ratio} outside [0, 1]")
    if ratio == 0.0:
        return 0.0
    activity = tweet_count / max_tweet_count
    return 2.0 * ratio * activity / (ratio + activity)


def untrustworthiness_printed_form(ratio: float, max_tweet_count: int) -> float:
    """Alternative closed form 2 / (max_tweet_count + 1/ratio).

    Ignores the individual user's activity entirely; kept only so the two
    formulations can be compared side by side.
    """
    if max_tweet_count < 1:
        raise DomainError("max_tweet_count must be at least 1")
    if not 0.0 <= ratio <= 1.0:
        raise DomainError(f"ratio {ratio} outside [0, 1]")
    if ratio == 0.0:
        return 0.0
    return 2.0 / (max_tweet_count + 1.0 / ratio)


@dataclass(slots=True)
class UserProfile:
    user: int
    total: int
    unreliable: int
    reliable: int
    ratio: float
    untrustworthiness: float
    bot_score: float | None = None


def build_profiles(
    tallies: Mapping[str, UserTally],
    nodes: NodeTable,
    bot_scores: BotScoreTable | None = None,
    max_tweet_count: int | None = None,
) -> dict[int, UserProfile]:
    """Turn tallies into per-node profiles; users with zero matches are excluded."""
    if max_tweet_count is None:
        max_tweet_count = max((t.total for t in tallies.values()), default=0)
    profiles: dict[int, UserProfile] = {}
    for author_id, tally in tallies.items():
        if tally.total == 0:
            continue
        idx = nodes.get(author_id)
        if idx is None:
            raise DataIntegrityError(f"author {author_id!r} is not in the node table")
        ratio = tally.unreliable / tally.total
        profiles[idx] = UserProfile(
            user=idx,
            total=tally.total,
            unreliable=tally.unreliable,
            reliable=tally.reliable,
            ratio=ratio,
            untrustworthiness=untrustworthiness(tally.total, ratio, max_tweet_count),
            bot_score=bot_scores.get(author_id) if bot_scores is not None else None,
        )
    return profiles


def entropy(shares: Mapping[int, int]) -> float:
    """Shannon entropy (natural log) of the share distribution across communities.

    Counts are normalized to proportions first; zero counts contribute
    nothing. H = 0 means the URL stayed inside one community; the maximum is
    ln(number of communities reached).
    """
    total = 0
    for count in shares.values():
        if count < 0:
            raise DomainError("share counts must be non-negative")
        total += count
    if total == 0:
        raise DomainError("entropy of an empty share vector is undefined")
    h = 0.0
    for count in shares.values():
        if count:
            p = count / total
            h -= p * math.log(p)
    return h


class EntropyClass(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


def entropy_class(h: float, low: float = 0.4, high: float = 0.9) -> EntropyClass:
    """Bucket an entropy value: low (<= low), medium (<= high), high (> high)."""
    if h <= low:
        return EntropyClass.LOW
    if h <= high:
        return EntropyClass.MEDIUM
    return EntropyClass.HIGH


@dataclass
class UrlDiffusionRecord:
    url: NormalizedUrl
    shares_by_community: dict[int, int]
    total_shares: int
    retweets: int
    entropy: float
    entropy_class: EntropyClass
    ops: frozenset[int]
    avg_u_retweeters: float | None
    avg_bs_retweeters: float | None
    avg_u_ops: float | None
    avg_bs_ops: float | None
    successful: bool = False


def _pair_means(
    keys: np.ndarray, span: int, n_urls: int, value: np.ndarray
) -> list[float | None]:
    """Per URL, the mean over its members' values that are not NaN; None if none is.

    ``keys`` are sorted ``url * span + member`` pairs: ``bincount`` adds each
    URL's values one at a time, in ascending member order.
    """
    url, member = np.divmod(keys, span)
    value = value[member]
    has = ~np.isnan(value)
    total = np.bincount(url[has], weights=value[has], minlength=n_urls).tolist()
    count = np.bincount(url[has], minlength=n_urls).tolist()
    return [t / c if c else None for t, c in zip(total, count)]


def build_url_table(
    tweets: TweetColumns | Iterable[TweetRecord],
    partition: Partition,
    nodes: NodeTable,
    profiles: Mapping[int, UserProfile],
    bot_scores: BotScoreTable | None = None,
    entropy_low: float = 0.4,
    entropy_high: float = 0.9,
    min_shares: int = 0,
) -> list[UrlDiffusionRecord]:
    """The diffusion record of every URL shared more than ``min_shares`` times.

    Built from the tweet columns (or records); the result equals
    ``filter_urls(build_url_table(...), min_shares)``, but no record is built
    for a URL at or under the threshold. Every author with a URL must be in
    the partition, whatever its URLs' share counts. URLs appear in first-seen
    order. Retweeter averages exclude original posters; a URL seen only in
    retweets keeps an empty OP set and is thereby excluded from
    OP-conditioned analyses downstream.
    """
    columns = as_columns(tweets)
    span = len(nodes)
    if not columns.urls:
        return []
    per_row = np.diff(columns.url_ptr)
    node_of = np.zeros(len(columns.names), dtype=np.int64)
    u_value, bs_value = np.full(span, np.nan), np.full(span, np.nan)
    for a in np.unique(columns.author[per_row > 0]).tolist():
        name = columns.names[a]
        idx = nodes.get(name)
        if idx is None or idx >= partition.labels.size:
            raise DataIntegrityError(f"author {name!r} is missing from the partition")
        node_of[a] = idx
        if idx in profiles:
            u_value[idx] = profiles[idx].untrustworthiness
        if bot_scores is not None and name in bot_scores:
            bs_value[idx] = bot_scores.get(name)

    # One entry per (record, URL) of a kept URL: the URL renumbered densely in
    # first-seen order, the author's node and its community.
    url = columns.url_ids.astype(np.int64)
    kept = np.bincount(url, minlength=len(columns.urls)) > min_shares
    entry = kept[url]
    url = (np.cumsum(kept) - 1)[url[entry]]
    urls = [columns.urls[i] for i in np.flatnonzero(kept).tolist()]
    n_urls = len(urls)
    if not n_urls:
        return []
    member = np.repeat(node_of[columns.author], per_row)[entry]
    retweet = np.repeat(columns.retweeted >= 0, per_row)[entry]
    label = partition.labels[member]

    # Each URL's shares list its communities in first-seen order, as entropy sums them.
    n_labels = int(label.max()) + 1
    _, first, counts = np.unique(url * n_labels + label, return_index=True, return_counts=True)
    order = np.argsort(first)
    shares: list[dict[int, int]] = [{} for _ in range(n_urls)]
    for u, lab, c in zip(url[first[order]].tolist(), label[first[order]].tolist(),
                         counts[order].tolist()):
        shares[u][lab] = c

    op_keys = np.unique(url[~retweet] * span + member[~retweet])
    rt_keys = np.setdiff1d(url[retweet] * span + member[retweet], op_keys)
    op_url, op_member = np.divmod(op_keys, span)
    ops = np.split(op_member, np.searchsorted(op_url, np.arange(1, n_urls)))
    retweets = np.bincount(url[retweet], minlength=n_urls).tolist()
    means = zip(*(_pair_means(keys, span, n_urls, value)
                  for keys in (rt_keys, op_keys) for value in (u_value, bs_value)))
    records = []
    for i, (u_rt, bs_rt, u_op, bs_op) in enumerate(means):
        h = entropy(shares[i])
        records.append(
            UrlDiffusionRecord(
                url=urls[i],
                shares_by_community=dict(sorted(shares[i].items())),
                total_shares=sum(shares[i].values()),
                retweets=retweets[i],
                entropy=h,
                entropy_class=entropy_class(h, entropy_low, entropy_high),
                ops=frozenset(ops[i].tolist()),
                avg_u_retweeters=u_rt,
                avg_bs_retweeters=bs_rt,
                avg_u_ops=u_op,
                avg_bs_ops=bs_op,
            )
        )
    op_less = sum(1 for r in records if not r.ops)
    if op_less:
        log.info("%d URL(s) have no original poster inside the capture window", op_less)
    return records


def filter_urls(
    records: Iterable[UrlDiffusionRecord], min_shares: int = 100
) -> list[UrlDiffusionRecord]:
    """Keep URLs shared strictly more than ``min_shares`` times."""
    return [r for r in records if r.total_shares > min_shares]


def mark_successful(records: Iterable[UrlDiffusionRecord], threshold: float) -> None:
    """Flag records whose retweet count reaches the success threshold."""
    for record in records:
        record.successful = record.retweets >= threshold


URL_REPORT_COLUMNS = [
    "url",
    "total_shares",
    "entropy",
    "entropy_class",
    "n_ops",
    "avg_U_retweeters",
    "avg_BS_retweeters",
    "avg_U_ops",
    "avg_BS_ops",
    "successful",
]


def _fmt_optional(value: float | None) -> str:
    return "" if value is None else repr(value)


def write_url_report(records: Iterable[UrlDiffusionRecord], path: Path | str) -> int:
    """Write the per-URL report CSV (plot-ready; no plotting here)."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(URL_REPORT_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.url.canonical,
                    r.total_shares,
                    repr(r.entropy),
                    r.entropy_class.value,
                    len(r.ops),
                    _fmt_optional(r.avg_u_retweeters),
                    _fmt_optional(r.avg_bs_retweeters),
                    _fmt_optional(r.avg_u_ops),
                    _fmt_optional(r.avg_bs_ops),
                    "true" if r.successful else "false",
                ]
            )
            count += 1
    return count
