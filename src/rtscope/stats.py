"""Statistical machinery: rank tests, null models, and success probabilities."""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from rtscope.community import Partition, community_names, reshuffle_partition, top_community_labels
from rtscope.errors import DegenerateInputError, DomainError
from rtscope.metrics import EntropyClass, UrlDiffusionRecord, entropy_class

log = logging.getLogger(__name__)

METHOD_EXACT = "exact-enumeration"
METHOD_NORMAL = "normal-approximation"

# Largest per-sample size for which the exact null distribution is used.
EXACT_MAX_SIZE = 12


@dataclass(frozen=True)
class TestResult:
    u_statistic: float
    p_value: float
    method: str
    p_fraction: Fraction | None = None


def _rank_sum_counts(doubled_ranks: Sequence[int], size: int) -> dict[int, int]:
    """Ways to pick ``size`` of the given items per doubled-rank sum (exact ints)."""
    ways: list[dict[int, int]] = [{} for _ in range(size + 1)]
    ways[0][0] = 1
    for r in doubled_ranks:
        for j in range(size, 0, -1):
            lower = ways[j - 1]
            if not lower:
                continue
            target = ways[j]
            for s, c in lower.items():
                key = s + r
                target[key] = target.get(key, 0) + c
    return ways[size]


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney(
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
    alternative: str = "two-sided",
) -> TestResult:
    """Mann-Whitney rank test with midrank tie handling.

    The reported U counts pairs where a value from ``a`` beats one from
    ``b`` (ties count half), so U_a + U_b = |a|*|b|. When both samples have
    at most EXACT_MAX_SIZE values the p-value comes from the exact
    permutation distribution (the count of group assignments at least as
    extreme over all C(n, |a|) of them, kept as an exact fraction);
    otherwise from the normal approximation with tie-corrected variance and
    continuity correction.

    ``alternative``: "two-sided", "greater" (a tends larger) or "less".
    """
    if alternative not in ("two-sided", "greater", "less"):
        raise ValueError(f"unknown alternative {alternative!r}")
    xs = np.asarray(a, dtype=np.float64)
    ys = np.asarray(b, dtype=np.float64)
    if xs.ndim != 1 or ys.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    n1, n2 = xs.size, ys.size
    if n1 < 1 or n2 < 1:
        raise DomainError("both samples must be non-empty")
    pooled = np.concatenate([xs, ys])
    if np.isnan(pooled).any():  # NaN has no rank; inf does
        raise DomainError("samples must not contain NaN")
    # Tie groups in ascending order: a group of t values ending at sorted
    # position e (1-based) shares the midrank e - (t - 1) / 2, kept doubled as
    # an exact integer.
    _, group_of, ties = np.unique(pooled, return_inverse=True, return_counts=True)
    if ties.size == 1:
        raise DegenerateInputError("all values identical across both samples")
    doubled = (2 * np.cumsum(ties) - ties + 1)[group_of]
    doubled_sum_a = int(doubled[:n1].sum())
    rank_sum_a = doubled_sum_a / 2
    u_a = rank_sum_a - n1 * (n1 + 1) / 2.0
    n = n1 + n2

    if n1 <= EXACT_MAX_SIZE and n2 <= EXACT_MAX_SIZE:
        counts = _rank_sum_counts(doubled.tolist(), n1)
        total = comb(n, n1)
        # Work in doubled rank-sum units; the null mean of the rank sum is
        # n1*(n+1)/2, so the doubled mean is exactly n1*(n+1).
        obs = doubled_sum_a
        center = n1 * (n + 1)
        if alternative == "two-sided":
            dev = abs(obs - center)
            hits = sum(c for s, c in counts.items() if abs(s - center) >= dev)
        elif alternative == "greater":
            hits = sum(c for s, c in counts.items() if s >= obs)
        else:
            hits = sum(c for s, c in counts.items() if s <= obs)
        p_fraction = Fraction(hits, total)
        return TestResult(
            u_statistic=u_a,
            p_value=float(p_fraction),
            method=METHOD_EXACT,
            p_fraction=p_fraction,
        )

    # As Python ints: t**3 overflows int64 once a tie group passes 2**21 values.
    tie_sum = sum(t * t * t - t for t in ties[ties > 1].tolist())
    tie_factor = 1.0 - tie_sum / (n**3 - n)
    sigma = math.sqrt(tie_factor * n1 * n2 * (n + 1) / 12.0)
    if sigma == 0.0:
        raise DegenerateInputError("zero variance after tie correction")
    mu = n1 * n2 / 2.0
    if alternative == "two-sided":
        z = max(0.0, abs(u_a - mu) - 0.5) / sigma
        p = min(1.0, 2.0 * _norm_sf(z))
    elif alternative == "greater":
        z = (u_a - mu - 0.5) / sigma
        p = _norm_sf(z)
    else:
        z = (u_a - mu + 0.5) / sigma
        p = _norm_sf(-z)
    return TestResult(u_statistic=u_a, p_value=p, method=METHOD_NORMAL)


@dataclass
class CommunityComparison:
    label: int
    name: str
    n_observed: int
    n_null: int
    result: TestResult | None = None
    skipped: str | None = None


def null_model_report(
    values: Mapping[int, float],
    partition: Partition,
    n_reshuffles: int = 100,
    seed: int = 0,
    communities: Sequence[int] | None = None,
    top_k: int | None = 5,
) -> list[CommunityComparison]:
    """Observed within-community scores against pooled size-preserving reshuffles.

    For each reported community, the scores of its members are tested
    (Mann-Whitney) against the scores landing in it across ``n_reshuffles``
    independent label reshuffles. Communities with fewer than two scored
    members, or with degenerate samples, are flagged and skipped rather
    than tested. Deterministic for a fixed seed.
    """
    if not values:
        raise DomainError("no scores to test")
    if n_reshuffles < 1:
        raise DomainError("n_reshuffles must be at least 1")
    users = np.array(sorted(values), dtype=np.int64)
    if users[-1] >= partition.labels.size or users[0] < 0:
        raise DomainError("scored user index outside the partition")
    vals = np.array([values[int(u)] for u in users], dtype=np.float64)
    observed_labels = partition.labels[users]

    if communities is not None:
        report_labels = [int(c) for c in communities]
    else:
        report_labels = top_community_labels(partition, top_k)
    names = community_names(partition, k=max(len(report_labels), 5))

    pools: dict[int, list[np.ndarray]] = {c: [] for c in report_labels}
    reshuffle_seeds = np.random.default_rng(seed).integers(0, 2**62, size=n_reshuffles)
    for s in reshuffle_seeds:
        shuffled = reshuffle_partition(partition, int(s))
        shuffled_labels = shuffled.labels[users]
        for c in report_labels:
            pools[c].append(vals[shuffled_labels == c])

    report: list[CommunityComparison] = []
    for c in report_labels:
        observed = vals[observed_labels == c]
        null = np.concatenate(pools[c]) if pools[c] else np.empty(0)
        comparison = CommunityComparison(
            label=c,
            name=names.get(c, f"C{c}"),
            n_observed=int(observed.size),
            n_null=int(null.size),
        )
        if observed.size < 2:
            comparison.skipped = "fewer than 2 scored members"
        elif null.size < 2:
            comparison.skipped = "fewer than 2 null scores"
        else:
            try:
                comparison.result = mann_whitney(observed, null)
            except DegenerateInputError as exc:
                comparison.skipped = f"degenerate input: {exc}"
        report.append(comparison)
    return report


def success_threshold(retweet_counts: Iterable[float], quantile: float = 0.75) -> float:
    """Nearest-rank quantile: the smallest value with >= quantile of counts at or below it.

    A URL counts as successful when its retweet count is >= the returned
    threshold, so ties at the threshold are successful.
    """
    if not 0.0 < quantile < 1.0:
        raise DomainError(f"quantile {quantile} outside (0, 1)")
    counts = sorted(retweet_counts)
    n = len(counts)
    if n < 4:
        raise DomainError(f"need at least 4 counts, got {n}")
    # The epsilon keeps float noise in quantile*n from bumping the rank up
    # when the product is an exact integer (e.g. 0.9 * 50).
    rank = max(1, math.ceil(quantile * n - 1e-9))
    threshold = counts[rank - 1]
    if counts[0] == counts[-1]:
        log.warning("all %d retweet counts are equal; every URL counts as successful", n)
    return threshold


_FEATURE_FIELDS = {"bs": "avg_bs_ops", "u": "avg_u_ops"}


def _feature_value(record: UrlDiffusionRecord, feature: str) -> float | None:
    try:
        attr = _FEATURE_FIELDS[feature.lower()]
    except KeyError:
        raise ValueError(f"unknown feature {feature!r}; expected 'bs' or 'u'") from None
    return getattr(record, attr)


def conditional_success(
    urls: Iterable[UrlDiffusionRecord],
    feature: str,
    x: float,
    t: float,
) -> float | None:
    """P(retweets >= t | average OP feature >= x) from empirical frequencies.

    Computed through the Bayes decomposition
    P(feature >= x | success) * P(success) / P(feature >= x) and checked
    against the direct conditional count, which it must match to 1e-12.
    URLs without the feature (no scored OPs) are outside the universe.
    Returns None when the conditioning set is empty.
    """
    pairs = [
        (value, record.retweets)
        for record in urls
        if (value := _feature_value(record, feature)) is not None
    ]
    n_total = len(pairs)
    n_cond = sum(1 for value, _ in pairs if value >= x)
    if n_cond == 0:
        return None
    n_success = sum(1 for _, rt in pairs if rt >= t)
    n_both = sum(1 for value, rt in pairs if value >= x and rt >= t)
    direct = n_both / n_cond
    if n_success == 0:
        return direct
    bayes = (n_both / n_success) * (n_success / n_total) / (n_cond / n_total)
    if abs(bayes - direct) > 1e-12:
        raise RuntimeError(
            f"Bayes decomposition {bayes!r} disagrees with direct count {direct!r}"
        )
    return min(1.0, max(0.0, bayes))


@dataclass(frozen=True)
class CurvePoint:
    x: float
    probability: float | None
    n_conditioning: int


@dataclass
class SuccessCurve:
    feature: str
    entropy_class: EntropyClass
    points: list[CurvePoint] = field(default_factory=list)
    feature_values: list[float] = field(default_factory=list)

    def defined_points(self) -> list[CurvePoint]:
        return [p for p in self.points if p.probability is not None]


def success_curves(
    urls: Sequence[UrlDiffusionRecord],
    feature: str,
    t: float,
    xs: Sequence[float] | None = None,
    class_thresholds: tuple[float, float] = (0.4, 0.9),
    n_points: int = 100,
) -> dict[EntropyClass, SuccessCurve]:
    """Success-probability curves along a feature-threshold grid, per entropy class.

    Classes that run out of URLs at high thresholds produce points with
    probability None (no data); the zero-filled representation is available
    at write-out time. The default grid is ``n_points`` evenly spaced values
    over the observed feature range.
    """
    low, high = class_thresholds
    valid = [r for r in urls if _feature_value(r, feature) is not None]
    if xs is None:
        feature_values = [_feature_value(r, feature) for r in valid]
        if feature_values:
            lo, hi = min(feature_values), max(feature_values)
            xs = list(np.linspace(lo, hi, n_points)) if hi > lo else [lo]
        else:
            xs = []
    else:
        xs = [float(x) for x in xs]
        if any(b < a for a, b in zip(xs, xs[1:])):
            raise DomainError("threshold grid must be nondecreasing")

    curves: dict[EntropyClass, SuccessCurve] = {}
    for cls in EntropyClass:
        subset = [r for r in valid if entropy_class(r.entropy, low, high) is cls]
        curve = SuccessCurve(
            feature=feature.lower(),
            entropy_class=cls,
            feature_values=[_feature_value(r, feature) for r in subset],
        )
        for x in xs:
            n_cond = sum(1 for r in subset if _feature_value(r, feature) >= x)
            probability = conditional_success(subset, feature, x, t) if n_cond else None
            curve.points.append(CurvePoint(x=float(x), probability=probability, n_conditioning=n_cond))
        curves[cls] = curve
    return curves


CURVE_COLUMNS = ["feature", "entropy_class", "x", "probability", "n_conditioning"]
TEST_REPORT_COLUMNS = ["community", "u_statistic", "p_value", "method", "n_observed", "n_null"]


def write_curves_csv(
    curve_sets: Iterable[dict[EntropyClass, SuccessCurve]],
    path: Path | str,
    zero_fill: bool = False,
) -> None:
    """Write curve points; undefined probabilities are blank, or 0 with zero_fill."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVE_COLUMNS)
        for curves in curve_sets:
            for cls in EntropyClass:
                curve = curves.get(cls)
                if curve is None:
                    continue
                for point in curve.points:
                    if point.probability is not None:
                        prob = repr(point.probability)
                    else:
                        prob = repr(0.0) if zero_fill else ""
                    writer.writerow(
                        [curve.feature, cls.value, repr(point.x), prob, point.n_conditioning]
                    )


def write_nulltest_csv(report: Iterable[CommunityComparison], path: Path | str) -> None:
    """Write the tested communities; skipped ones are logged, not rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TEST_REPORT_COLUMNS)
        for comparison in report:
            if comparison.result is None:
                log.info(
                    "community %s skipped in null-model test: %s",
                    comparison.name,
                    comparison.skipped,
                )
                continue
            writer.writerow(
                [
                    comparison.name,
                    repr(comparison.result.u_statistic),
                    repr(comparison.result.p_value),
                    comparison.result.method,
                    comparison.n_observed,
                    comparison.n_null,
                ]
            )
