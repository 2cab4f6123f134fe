"""Synthetic scenario generator: planted communities, bots, and URL cascades.

Produces a tweet-record stream realizing a planted-partition retweet graph
with planted per-community bot populations and unreliable-share rates, plus
URL cascades whose community breadth is controlled, together with the
matching source catalogs, bot-score table, and a ground-truth file.
Everything is deterministic for a fixed (spec, seed) pair.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from rtscope.community import Partition
from rtscope.errors import ConfigError
from rtscope.graph import NodeTable
from rtscope.ingest.botscores import BotScoreTable
from rtscope.ingest.catalog import SourceCatalog
from rtscope.ingest.records import TweetRecord, write_tweet_file

_BASE_TIMESTAMP = 1_546_300_800  # fixed epoch base so outputs never depend on the clock
_BERNOULLI_PAIR_LIMIT = 4_000_000


@dataclass(frozen=True)
class UrlCascadePlan:
    """A family of planted URLs: where they originate and how far they spread."""

    count: int
    origin_community: int
    breadth: int = 1
    unreliable: bool = False
    op_from_bots: bool = False
    ops_per_url: int = 1
    retweets_min: int = 20
    retweets_max: int = 40


@dataclass(frozen=True)
class SyntheticSpec:
    community_sizes: tuple[int, ...]
    intra_p: float = 0.05
    inter_p: float = 0.005
    connected: bool = True
    bot_fraction: float | tuple[float, ...] = 0.0
    bot_score_range: tuple[float, float] = (0.75, 0.95)
    human_score_range: tuple[float, float] = (0.0, 0.4)
    unreliable_rate: float | tuple[float, ...] = 0.05
    url_tweets_per_user: tuple[int, int] = (3, 8)
    n_unreliable_domains: int = 8
    n_reliable_domains: int = 12
    articles_per_domain: int = 40
    url_plans: tuple[UrlCascadePlan, ...] = ()

    @property
    def n_communities(self) -> int:
        return len(self.community_sizes)

    @property
    def n_users(self) -> int:
        return sum(self.community_sizes)

    def per_community(self, value: float | tuple[float, ...]) -> list[float]:
        if isinstance(value, (int, float)):
            return [float(value)] * self.n_communities
        if len(value) != self.n_communities:
            raise ConfigError(
                f"per-community value has {len(value)} entries for "
                f"{self.n_communities} communities"
            )
        return [float(v) for v in value]

    def validate(self) -> None:
        problems: list[str] = []
        if not self.community_sizes:
            problems.append("at least one community is required")
        if any(size < 2 for size in self.community_sizes):
            problems.append("every community size must be at least 2")
        for name in ("intra_p", "inter_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                problems.append(f"{name}={p} outside [0, 1]")
        if self.connected and self.intra_p == 0.0:
            problems.append("intra_p=0 cannot produce internally connected communities")
        try:
            fractions = self.per_community(self.bot_fraction)
            rates = self.per_community(self.unreliable_rate)
        except ConfigError as exc:
            raise ConfigError(f"invalid synthetic spec: {exc}") from exc
        if any(not 0.0 <= f <= 1.0 for f in fractions):
            problems.append("bot fractions must be in [0, 1]")
        if any(not 0.0 <= r <= 1.0 for r in rates):
            problems.append("unreliable rates must be in [0, 1]")
        for name in ("bot_score_range", "human_score_range"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= hi <= 1.0):
                problems.append(f"{name}=({lo}, {hi}) is not an ordered range in [0, 1]")
        lo, hi = self.url_tweets_per_user
        if not (0 <= lo <= hi):
            problems.append(f"url_tweets_per_user=({lo}, {hi}) is not an ordered range")
        if self.n_unreliable_domains < 1 or self.n_reliable_domains < 1:
            problems.append("both domain pools must be non-empty")
        if self.articles_per_domain < 1:
            problems.append("articles_per_domain must be at least 1")
        for i, plan in enumerate(self.url_plans):
            if plan.count < 0:
                problems.append(f"url_plans[{i}]: count must be non-negative")
            if not 0 <= plan.origin_community < self.n_communities:
                problems.append(f"url_plans[{i}]: origin community out of range")
            if not 1 <= plan.breadth <= self.n_communities:
                problems.append(f"url_plans[{i}]: breadth out of range")
            if plan.ops_per_url < 1:
                problems.append(f"url_plans[{i}]: ops_per_url must be at least 1")
            if not 0 <= plan.retweets_min <= plan.retweets_max:
                problems.append(f"url_plans[{i}]: retweet range is not ordered")
            if plan.op_from_bots and 0 <= plan.origin_community < self.n_communities:
                size = self.community_sizes[plan.origin_community]
                n_bots = int(round(fractions[plan.origin_community] * size))
                if n_bots < plan.ops_per_url:
                    problems.append(
                        f"url_plans[{i}]: wants {plan.ops_per_url} bot OP(s) but the "
                        f"origin community only has {n_bots} bot(s)"
                    )
        if problems:
            raise ConfigError("invalid synthetic spec: " + "; ".join(problems))

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SyntheticSpec":
        obj = json.loads(text)
        plans = tuple(UrlCascadePlan(**p) for p in obj.pop("url_plans", []))
        for key in ("community_sizes", "bot_score_range", "human_score_range",
                    "url_tweets_per_user"):
            if key in obj and isinstance(obj[key], list):
                obj[key] = tuple(obj[key])
        for key in ("bot_fraction", "unreliable_rate"):
            if key in obj and isinstance(obj[key], list):
                obj[key] = tuple(obj[key])
        return cls(url_plans=plans, **obj)


@dataclass
class UrlTruth:
    url: str
    origin_community: int
    communities: list[int]
    unreliable: bool
    op_ids: list[str]
    planned_retweets: int


class SyntheticDataset:
    """Ground truth plus a regenerable record stream."""

    def __init__(self, spec: SyntheticSpec, seed: int) -> None:
        spec.validate()
        self.spec = spec
        self.seed = seed
        truth_rng = np.random.default_rng([seed, 0])

        n = spec.n_users
        self.author_ids = [f"u{i:07d}" for i in range(n)]
        self._index_of = {author: i for i, author in enumerate(self.author_ids)}
        self.labels = np.repeat(
            np.arange(spec.n_communities, dtype=np.int64), spec.community_sizes
        )
        offsets = np.concatenate([[0], np.cumsum(spec.community_sizes)])
        self._members = [
            np.arange(offsets[c], offsets[c + 1], dtype=np.int64)
            for c in range(spec.n_communities)
        ]

        fractions = spec.per_community(spec.bot_fraction)
        self.is_bot = np.zeros(n, dtype=bool)
        for c, members in enumerate(self._members):
            n_bots = int(round(fractions[c] * members.size))
            if n_bots:
                chosen = truth_rng.choice(members, size=n_bots, replace=False)
                self.is_bot[np.sort(chosen)] = True

        h_lo, h_hi = spec.human_score_range
        b_lo, b_hi = spec.bot_score_range
        self.bot_scores = truth_rng.uniform(h_lo, h_hi, size=n)
        n_bots_total = int(self.is_bot.sum())
        if n_bots_total:
            self.bot_scores[self.is_bot] = truth_rng.uniform(b_lo, b_hi, size=n_bots_total)

        rates = spec.per_community(spec.unreliable_rate)
        self.rates = np.array([rates[c] for c in self.labels], dtype=np.float64)

        self.unreliable_domains = [
            f"unreliable-{i:02d}.example" for i in range(spec.n_unreliable_domains)
        ]
        self.reliable_domains = [
            f"reliable-{i:02d}.example" for i in range(spec.n_reliable_domains)
        ]

        self.url_truth: list[UrlTruth] = []
        for plan_idx, plan in enumerate(spec.url_plans):
            members = self._members[plan.origin_community]
            op_pool = members[self.is_bot[members]] if plan.op_from_bots else members
            for i in range(plan.count):
                if plan.unreliable:
                    domain = self.unreliable_domains[i % len(self.unreliable_domains)]
                else:
                    domain = self.reliable_domains[i % len(self.reliable_domains)]
                url = f"https://{domain}/planted-{plan_idx}-{i}"
                ops = truth_rng.choice(
                    op_pool, size=min(plan.ops_per_url, op_pool.size), replace=False
                )
                communities = [
                    (plan.origin_community + j) % spec.n_communities
                    for j in range(plan.breadth)
                ]
                planned = int(truth_rng.integers(plan.retweets_min, plan.retweets_max + 1))
                self.url_truth.append(
                    UrlTruth(
                        url=url,
                        origin_community=plan.origin_community,
                        communities=communities,
                        unreliable=plan.unreliable,
                        op_ids=[self.author_ids[int(o)] for o in np.sort(ops)],
                        planned_retweets=planned,
                    )
                )

    # -- derived views ---------------------------------------------------

    def catalog(self) -> SourceCatalog:
        return SourceCatalog.from_domains(self.unreliable_domains, self.reliable_domains)

    def bot_table(self) -> BotScoreTable:
        table = BotScoreTable()
        for i, author in enumerate(self.author_ids):
            table.put(author, float(self.bot_scores[i]))
        return table

    def node_table(self) -> NodeTable:
        return NodeTable.from_names(self.author_ids)

    def partition(self) -> Partition:
        return Partition(
            labels=self.labels.copy(),
            n_communities=self.spec.n_communities,
            modularity=None,
        )

    # -- record stream ----------------------------------------------------

    def iter_records(self) -> Iterator[TweetRecord]:
        """Regenerate the full record stream; identical on every call."""
        spec = self.spec
        rng = np.random.default_rng([self.seed, 1])
        authors = self.author_ids
        seq = 0
        timestamp = _BASE_TIMESTAMP

        def next_ids() -> tuple[str, int]:
            nonlocal seq, timestamp
            seq += 1
            timestamp += 1
            return f"t{seq:08d}", timestamp

        # Per-user posts carrying catalog URLs (these drive the trust tallies).
        lo, hi = spec.url_tweets_per_user
        if hi > 0:
            counts = rng.integers(lo, hi + 1, size=spec.n_users)
            total = int(counts.sum())
            owner = np.repeat(np.arange(spec.n_users), counts).tolist()
            bad = (rng.random(total) < np.repeat(self.rates, counts)).tolist()
            bad_domain = rng.integers(0, len(self.unreliable_domains), size=total).tolist()
            good_domain = rng.integers(0, len(self.reliable_domains), size=total).tolist()
            article = rng.integers(0, spec.articles_per_domain, size=total).tolist()
            for i in range(total):
                user = owner[i]
                if bad[i]:
                    domain = self.unreliable_domains[bad_domain[i]]
                else:
                    domain = self.reliable_domains[good_domain[i]]
                tweet_id, ts = next_ids()
                yield TweetRecord(
                    tweet_id=tweet_id,
                    author_id=authors[user],
                    timestamp=ts,
                    urls=(f"https://{domain}/a{article[i]}",),
                )

        # Backbone retweet events realizing the planted partition.
        for source, target in self._backbone_pairs(rng):
            tweet_id, ts = next_ids()
            yield TweetRecord(
                tweet_id=tweet_id,
                author_id=authors[source],
                timestamp=ts,
                retweeted_author_id=authors[target],
                retweeted_tweet_id=f"x{seq:08d}",
            )

        # Planted URL cascades.
        for truth in self.url_truth:
            op_tweets: list[tuple[str, str]] = []
            for op_id in truth.op_ids:
                tweet_id, ts = next_ids()
                op_tweets.append((op_id, tweet_id))
                yield TweetRecord(
                    tweet_id=tweet_id,
                    author_id=op_id,
                    timestamp=ts,
                    urls=(truth.url,),
                )
            if not op_tweets:
                continue
            op_indices = {self._index_of[op_id] for op_id, _ in op_tweets}
            breadth = len(truth.communities)
            base, extra = divmod(truth.planned_retweets, breadth)
            for rank, community in enumerate(truth.communities):
                want = base + (1 if rank < extra else 0)
                if want == 0:
                    continue
                pool = self._members[community]
                pool = pool[~np.isin(pool, list(op_indices))]
                take = min(want, pool.size)
                if take == 0:
                    continue
                chosen = rng.choice(pool, size=take, replace=False)
                for j, retweeter in enumerate(np.sort(chosen).tolist()):
                    op_id, op_tweet = op_tweets[j % len(op_tweets)]
                    tweet_id, ts = next_ids()
                    yield TweetRecord(
                        tweet_id=tweet_id,
                        author_id=authors[retweeter],
                        timestamp=ts,
                        retweeted_author_id=op_id,
                        retweeted_tweet_id=op_tweet,
                        urls=(truth.url,),
                    )

    def _backbone_pairs(self, rng: np.random.Generator) -> Iterator[tuple[int, int]]:
        spec = self.spec
        offsets = np.concatenate([[0], np.cumsum(spec.community_sizes)])
        if spec.intra_p > 0.0:
            for c, size in enumerate(spec.community_sizes):
                n_pairs = size * (size - 1) // 2
                if n_pairs == 0:
                    continue
                base = int(offsets[c])
                if n_pairs <= _BERNOULLI_PAIR_LIMIT:
                    iu, iv = np.triu_indices(size, k=1)
                    mask = rng.random(n_pairs) < spec.intra_p
                    flip = rng.random(n_pairs) < 0.5
                    for u, v, f in zip(
                        iu[mask].tolist(), iv[mask].tolist(), flip[mask].tolist()
                    ):
                        yield (base + v, base + u) if f else (base + u, base + v)
                else:
                    n_events = int(round(spec.intra_p * n_pairs))
                    sources = rng.integers(0, size, size=n_events)
                    targets = rng.integers(0, size, size=n_events)
                    clash = sources == targets
                    while clash.any():
                        targets[clash] = rng.integers(0, size, size=int(clash.sum()))
                        clash = sources == targets
                    for u, v in zip(sources.tolist(), targets.tolist()):
                        yield base + u, base + v
        if spec.inter_p > 0.0 and spec.n_communities > 1:
            sizes = np.asarray(spec.community_sizes, dtype=np.int64)
            cross_pairs = int((sizes.sum() ** 2 - (sizes**2).sum()) // 2)
            n_events = int(round(spec.inter_p * cross_pairs))
            emitted = 0
            while emitted < n_events:
                chunk = max(64, (n_events - emitted) * 2)
                us = rng.integers(0, spec.n_users, size=chunk)
                vs = rng.integers(0, spec.n_users, size=chunk)
                keep = self.labels[us] != self.labels[vs]
                for u, v in zip(us[keep].tolist(), vs[keep].tolist()):
                    yield u, v
                    emitted += 1
                    if emitted == n_events:
                        break


def build_synthetic(spec: SyntheticSpec, seed: int) -> SyntheticDataset:
    return SyntheticDataset(spec, seed)


def generate_synthetic(spec: SyntheticSpec, seed: int, out_dir: Path | str) -> dict[str, Path]:
    """Write the tweet file, catalogs, bot scores, and ground truth to ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = build_synthetic(spec, seed)
    paths = {
        "tweets": out / "tweets.jsonl",
        "unreliable_sources": out / "sources_unreliable.txt",
        "reliable_sources": out / "sources_reliable.txt",
        "bot_scores": out / "bot_scores.csv",
        "ground_truth": out / "ground_truth.json",
    }
    write_tweet_file(dataset.iter_records(), paths["tweets"])
    paths["unreliable_sources"].write_text(
        "".join(f"{d}\n" for d in dataset.unreliable_domains), encoding="utf-8"
    )
    paths["reliable_sources"].write_text(
        "".join(f"{d}\n" for d in dataset.reliable_domains), encoding="utf-8"
    )
    with open(paths["bot_scores"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("user_id,bot_score\n")
        for i, author in enumerate(dataset.author_ids):
            fh.write(f"{author},{float(dataset.bot_scores[i])!r}\n")
    truth = {
        "seed": seed,
        "spec": asdict(spec),
        "users": [
            {
                "author_id": dataset.author_ids[i],
                "community": int(dataset.labels[i]),
                "bot": bool(dataset.is_bot[i]),
                "bot_score": float(dataset.bot_scores[i]),
                "unreliable_rate": float(dataset.rates[i]),
            }
            for i in range(spec.n_users)
        ],
        "urls": [asdict(u) for u in dataset.url_truth],
    }
    with open(paths["ground_truth"], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
