"""Tweet-record schema: one JSON object per line.

Fields: ``tweet_id`` (string), ``author_id`` (string), ``timestamp``
(integer epoch seconds), optional ``retweeted_author_id`` /
``retweeted_tweet_id`` (both present or both absent), ``urls`` (array of
strings, may be omitted). Unknown fields are ignored.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

from rtscope.errors import InputError


@dataclass(frozen=True, slots=True)
class TweetRecord:
    tweet_id: str
    author_id: str
    timestamp: int
    retweeted_author_id: str | None = None
    retweeted_tweet_id: str | None = None
    urls: tuple[str, ...] = ()

    @property
    def is_retweet(self) -> bool:
        return self.retweeted_author_id is not None


class MalformedRecord(ValueError):
    """One line violates the record schema. Recoverable: tallied, not fatal."""


@dataclass
class ParseReport:
    """Tallies for one parse run; malformed lines are never dropped silently."""

    lines: int = 0
    parsed: int = 0
    malformed: int = 0
    duplicates: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)

    MAX_RECORDED_ERRORS = 50

    def note_error(self, line_no: int, reason: str) -> None:
        self.malformed += 1
        if len(self.errors) < self.MAX_RECORDED_ERRORS:
            self.errors.append((line_no, reason))

    def as_dict(self) -> dict:
        return {
            "lines": self.lines,
            "parsed": self.parsed,
            "malformed": self.malformed,
            "duplicates": self.duplicates,
            "first_errors": [{"line": n, "reason": r} for n, r in self.errors],
        }


def _require_str(obj: dict, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise MalformedRecord(f"field {key!r} must be a non-empty string")
    return value


def record_from_obj(obj: dict) -> TweetRecord:
    if not isinstance(obj, dict):
        raise MalformedRecord("record is not an object")
    tweet_id = _require_str(obj, "tweet_id")
    author_id = _require_str(obj, "author_id")
    timestamp = obj.get("timestamp")
    if isinstance(timestamp, bool) or not isinstance(timestamp, int):
        raise MalformedRecord("field 'timestamp' must be an integer")

    rt_author = obj.get("retweeted_author_id")
    rt_tweet = obj.get("retweeted_tweet_id")
    if (rt_author is None) != (rt_tweet is None):
        raise MalformedRecord(
            "retweeted_author_id and retweeted_tweet_id must both be present or both absent"
        )
    if rt_author is not None:
        rt_author = _require_str(obj, "retweeted_author_id")
        rt_tweet = _require_str(obj, "retweeted_tweet_id")

    urls = obj.get("urls", [])
    if not isinstance(urls, list) or any(not isinstance(u, str) for u in urls):
        raise MalformedRecord("field 'urls' must be an array of strings")

    return TweetRecord(
        tweet_id=tweet_id,
        author_id=author_id,
        timestamp=timestamp,
        retweeted_author_id=rt_author,
        retweeted_tweet_id=rt_tweet,
        urls=tuple(urls),
    )


def _require_utf8(record: TweetRecord) -> None:
    for value in (record.tweet_id, record.author_id, record.retweeted_author_id or "",
                  record.retweeted_tweet_id or "", *record.urls):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedRecord(f"string {value!r} is not valid Unicode") from exc


def parse_tweet_line(line: str) -> TweetRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"invalid JSON: {exc.msg}") from exc
    record = record_from_obj(obj)
    # A lone surrogate, which no UTF-8 file can hold, enters through a \u
    # escape, or raw in a line that was not decoded from bytes.
    if "\\u" in line or not line.isascii():
        _require_utf8(record)
    return record


def parse_tweet_stream(
    source: IO[bytes] | IO[str] | Iterable[bytes | str],
    report: ParseReport | None = None,
) -> Iterator[TweetRecord]:
    """Yield records in file order; malformed or duplicate lines are tallied."""
    if report is None:
        report = ParseReport()
    seen: set[str] = set()
    try:
        for line_no, line in enumerate(source, start=1):
            if isinstance(line, bytes):
                try:
                    line = line.decode("utf-8")
                except UnicodeDecodeError:
                    report.lines += 1
                    report.note_error(line_no, "invalid UTF-8")
                    continue
            if not line.strip():
                continue
            report.lines += 1
            try:
                record = parse_tweet_line(line)
            except MalformedRecord as exc:
                report.note_error(line_no, str(exc))
                continue
            if record.tweet_id in seen:
                report.duplicates += 1
                continue
            seen.add(record.tweet_id)
            report.parsed += 1
            yield record
    except OSError as exc:
        raise InputError(f"unreadable tweet stream: {exc}") from exc


def record_to_obj(record: TweetRecord) -> dict:
    obj: dict = {
        "tweet_id": record.tweet_id,
        "author_id": record.author_id,
        "timestamp": record.timestamp,
    }
    if record.is_retweet:
        obj["retweeted_author_id"] = record.retweeted_author_id
        obj["retweeted_tweet_id"] = record.retweeted_tweet_id
    obj["urls"] = list(record.urls)
    return obj


def record_to_json(record: TweetRecord) -> str:
    return json.dumps(record_to_obj(record), ensure_ascii=False, separators=(",", ":"))


def write_tweet_stream(records: Iterable[TweetRecord], fh: IO[str]) -> int:
    count = 0
    for record in records:
        fh.write(record_to_json(record))
        fh.write("\n")
        count += 1
    return count


def read_tweet_file(path: Path | str) -> tuple[list[TweetRecord], ParseReport]:
    report = ParseReport()
    try:
        with open(path, "rb") as fh:
            records = list(parse_tweet_stream(fh, report))
    except OSError as exc:
        raise InputError(f"cannot read tweet file {path}: {exc}") from exc
    return records, report


def write_tweet_file(records: Iterable[TweetRecord], path: Path | str) -> int:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        return write_tweet_stream(records, fh)
