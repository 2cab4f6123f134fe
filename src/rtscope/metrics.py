"""Per-user trust tallies and per-URL diffusion measures."""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from rtscope.community import Partition
from rtscope.errors import DataIntegrityError, DomainError, InvalidUrlError
from rtscope.graph import NodeTable
from rtscope.ingest.botscores import BotScoreTable
from rtscope.ingest.catalog import SourceCatalog, SourceClass, classify_domain
from rtscope.ingest.records import TweetRecord
from rtscope.ingest.urls import NormalizedUrl, normalize_url

log = logging.getLogger(__name__)


@dataclass
class UserTally:
    """Counts of a user's catalog-matched posts (originals and retweets alike)."""

    unreliable: int = 0
    reliable: int = 0

    @property
    def total(self) -> int:
        return self.unreliable + self.reliable


def _record_source_class(record: TweetRecord, catalog: SourceCatalog) -> SourceClass:
    """Classify one record: unreliable dominates when a tweet mixes both kinds."""
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


def user_tallies(tweets: Iterable[TweetRecord], catalog: SourceCatalog) -> dict[str, UserTally]:
    """Tally catalog-matched posts per author.

    A record with at least one unreliable URL counts as unreliable; else one
    with at least one reliable URL counts as reliable; records with only
    unknown (or unparseable) URLs contribute nothing. Users with no matched
    records are absent from the result.
    """
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


@dataclass
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


def _canonicals(record: TweetRecord) -> dict[str, NormalizedUrl]:
    """Unique normalized URLs in one record (a URL repeated in a tweet counts once)."""
    out: dict[str, NormalizedUrl] = {}
    for raw in record.urls:
        try:
            normalized = normalize_url(raw)
        except InvalidUrlError:
            continue
        out.setdefault(normalized.canonical, normalized)
    return out


def _author_label(record: TweetRecord, partition: Partition, nodes: NodeTable) -> tuple[int, int]:
    idx = nodes.get(record.author_id)
    if idx is None or idx >= partition.labels.size:
        raise DataIntegrityError(
            f"author {record.author_id!r} is missing from the partition"
        )
    return idx, int(partition.labels[idx])


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


class _UrlAccumulator:
    __slots__ = ("url", "shares", "retweets", "ops", "retweeters")

    def __init__(self, url: NormalizedUrl) -> None:
        self.url = url
        self.shares: dict[int, int] = {}
        self.retweets = 0
        self.ops: set[int] = set()
        self.retweeters: set[int] = set()


def _mean_over(
    members: Iterable[int],
    nodes: NodeTable,
    profiles: Mapping[int, UserProfile],
    bot_scores: BotScoreTable | None,
    field: str,
) -> float | None:
    """Mean over members that have the value; None when nobody does."""
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


def _finalize(
    acc: _UrlAccumulator,
    nodes: NodeTable,
    profiles: Mapping[int, UserProfile],
    bot_scores: BotScoreTable | None,
    low: float,
    high: float,
) -> UrlDiffusionRecord:
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


def build_url_table(
    tweets: Iterable[TweetRecord],
    partition: Partition,
    nodes: NodeTable,
    profiles: Mapping[int, UserProfile],
    bot_scores: BotScoreTable | None = None,
    entropy_low: float = 0.4,
    entropy_high: float = 0.9,
) -> list[UrlDiffusionRecord]:
    """One pass over the records building every URL's diffusion record.

    URLs appear in first-seen order. Retweeter averages exclude original
    posters; a URL seen only in retweets keeps an empty OP set and is
    thereby excluded from OP-conditioned analyses downstream.
    """
    table: dict[str, _UrlAccumulator] = {}
    for record in tweets:
        if not record.urls:
            continue
        canonicals = _canonicals(record)
        if not canonicals:
            continue
        idx, label = _author_label(record, partition, nodes)
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
    records = [
        _finalize(acc, nodes, profiles, bot_scores, entropy_low, entropy_high)
        for acc in table.values()
    ]
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
