"""Bot-likelihood scores: local CSV tables and a rate-limited scoring-service client."""
from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Callable, Iterable

from rtscope.errors import InputError, ProtocolError, ScoreUnavailableError

log = logging.getLogger(__name__)


class BotScoreTable:
    """Per-user raw bot scores in [0, 1], plus the rows a CSV load rejected."""

    def __init__(self) -> None:
        self._scores: dict[str, float] = {}
        self.rejected_rows: list[tuple[int, str]] = []

    def put(self, user_id: str, score: float) -> None:
        score = float(score)
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"bot score {score} outside [0, 1]")
        self._scores[user_id] = score

    def get(self, user_id: str) -> float | None:
        return self._scores.get(user_id)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._scores

    def __len__(self) -> int:
        return len(self._scores)


def load_bot_scores(path: Path | str) -> BotScoreTable:
    """Load a ``user_id,bot_score`` CSV; out-of-range or non-numeric rows are tallied."""
    table = BotScoreTable()
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read bot-score file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["user_id", "bot_score"]:
            raise InputError(f"{path}: expected header 'user_id,bot_score', got {header}")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2 or not row[0]:
                table.rejected_rows.append((row_no, "missing field"))
                continue
            try:
                score = float(row[1])
            except ValueError:
                table.rejected_rows.append((row_no, f"non-numeric score {row[1]!r}"))
                continue
            try:
                table.put(row[0], score)
            except ValueError:
                table.rejected_rows.append((row_no, f"score {score} outside [0, 1]"))
    if table.rejected_rows:
        log.warning("%s: rejected %d bot-score row(s)", path, len(table.rejected_rows))
    return table


RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
# After this many requested users in a row get no score, ``fetch_into`` takes
# the service as down and sends no more requests.
GIVE_UP_AFTER = 3


class BotScoreClient:
    """HTTP client for a bot-scoring service.

    Sends ``GET {endpoint}?user_id=<id>`` (plus a bearer token when
    configured) and expects a JSON body carrying one raw score in [0, 1],
    either bare or as ``{"score": <number>}``. Successful lookups are
    written through to an on-disk cache (one JSON file per user, written
    atomically) so repeated runs never re-query. Outbound requests are
    serialized and spaced to honor ``requests_per_minute``; throttling and
    server errors retry with exponential backoff. ``fetch_into`` stops
    requesting after ``GIVE_UP_AFTER`` users in a row got no score.
    """

    def __init__(
        self,
        endpoint: str,
        token: str | None = None,
        cache_dir: Path | str | None = None,
        requests_per_minute: float = 60.0,
        max_retries: int = 4,
        backoff_base: float = 0.5,
        timeout: float = 10.0,
        transport=None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if not 0 < requests_per_minute < math.inf:
            raise ValueError("requests_per_minute must be positive and finite")
        self.endpoint = endpoint.rstrip("?")
        self.token = token
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.min_interval = 60.0 / requests_per_minute
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._transport = transport
        self._sleep = sleep
        self._clock = clock
        self._lock = threading.Lock()
        self._last_request: float | None = None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- cache ---------------------------------------------------------

    def _cache_path(self, user_id: str) -> Path:
        digest = hashlib.sha1(user_id.encode("utf-8")).hexdigest()
        return self.cache_dir / f"{digest}.json"

    def _cache_get(self, user_id: str) -> float | None:
        if self.cache_dir is None:
            return None
        path = self._cache_path(user_id)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if entry.get("user_id") != user_id:
            return None
        score = entry.get("score")
        if not isinstance(score, (int, float)) or not 0.0 <= float(score) <= 1.0:
            return None
        return float(score)

    def _cache_put(self, user_id: str, score: float, fetched_at: int) -> None:
        if self.cache_dir is None:
            return
        path = self._cache_path(user_id)
        # A temp name unique to this write, so concurrent runs sharing the
        # cache dir never write into each other's temp file.
        tmp = path.with_name(f"{path.stem}.{uuid.uuid4().hex}.tmp")
        try:
            tmp.write_text(
                json.dumps({"user_id": user_id, "score": score, "fetched_at": fetched_at}),
                encoding="utf-8",
            )
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise

    # -- transport -----------------------------------------------------

    def _get_transport(self):
        if self._transport is None:
            import requests

            self._transport = requests.Session()
        return self._transport

    def _throttle(self) -> None:
        now = self._clock()
        if self._last_request is not None:
            wait = self._last_request + self.min_interval - now
            if wait > 0:
                self._sleep(wait)
                now = self._clock()
        self._last_request = now

    @staticmethod
    def _extract_score(payload) -> float:
        if isinstance(payload, dict):
            payload = payload.get("score")
        if isinstance(payload, bool) or not isinstance(payload, (int, float)):
            raise ProtocolError(f"service payload is not a numeric score: {payload!r}")
        score = float(payload)
        if not 0.0 <= score <= 1.0:
            raise ProtocolError(f"service score {score} outside [0, 1]")
        return score

    def _request_score(self, user_id: str) -> float:
        transport = self._get_transport()
        headers = {"Accept": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        last_failure = "no attempt made"
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                self._sleep(self.backoff_base * (2 ** (attempt - 1)))
            with self._lock:
                self._throttle()
                try:
                    response = transport.get(
                        self.endpoint,
                        params={"user_id": user_id},
                        headers=headers,
                        timeout=self.timeout,
                    )
                except Exception as exc:  # network-level failure, retryable
                    last_failure = f"transport error: {exc}"
                    log.debug("bot-score request for %s failed: %s", user_id, exc)
                    continue
            status = getattr(response, "status_code", None)
            if status == 200:
                try:
                    payload = response.json()
                except ValueError as exc:
                    raise ProtocolError(f"service returned non-JSON body: {exc}") from exc
                return self._extract_score(payload)
            if status in RETRYABLE_STATUSES:
                last_failure = f"status {status}"
                continue
            raise ProtocolError(f"service returned status {status}")
        raise ScoreUnavailableError(
            f"no score for user {user_id!r} after {self.max_retries + 1} attempts ({last_failure})"
        )

    # -- public API ----------------------------------------------------

    def fetch_into(self, table: BotScoreTable, user_ids: Iterable[str]) -> int:
        """Fetch scores for ``user_ids`` into ``table``; returns how many were unavailable.

        Each score is read through the disk cache: a cached score, else a
        service request whose answer is written to the cache. Once
        ``GIVE_UP_AFTER`` requested users in a row got no score (cache hits
        between them do not count), the remaining users are read from the
        cache only and the others count as unavailable.
        """
        unavailable = failures = not_requested = 0
        for user_id in user_ids:
            if user_id in table:
                continue
            score = self._cache_get(user_id)
            if score is None and failures >= GIVE_UP_AFTER:
                not_requested += 1
            elif score is None:
                try:
                    score = self._request_score(user_id)
                except ScoreUnavailableError as exc:
                    log.warning("%s", exc)
                    failures += 1
                else:
                    failures = 0
                    self._cache_put(user_id, score, fetched_at=int(self._clock()))
            if score is None:
                unavailable += 1
            else:
                table.put(user_id, score)
        if not_requested:
            log.warning(
                "scoring service gave no score for %d users in a row; %d more user(s) "
                "not in the cache were not requested and count as unavailable",
                GIVE_UP_AFTER,
                not_requested,
            )
        return unavailable
