"""Tweet-record parsing, tallying, and round-trip serialization."""
from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtscope.ingest.records import (
    ParseReport,
    TweetRecord,
    parse_tweet_line,
    parse_tweet_stream,
    read_tweet_file,
    record_to_json,
    write_tweet_file,
    MalformedRecord,
)


def _stream(*lines: str) -> io.BytesIO:
    return io.BytesIO(("\n".join(lines) + "\n").encode("utf-8"))


class TestParsing:
    def test_minimal_record(self):
        rec = parse_tweet_line('{"tweet_id":"1","author_id":"a","timestamp":0,"urls":[]}')
        assert rec == TweetRecord(tweet_id="1", author_id="a", timestamp=0)
        assert not rec.is_retweet

    def test_retweet_pair_must_be_complete(self):
        with pytest.raises(MalformedRecord):
            parse_tweet_line(
                '{"tweet_id":"1","author_id":"a","timestamp":0,"retweeted_author_id":"b"}'
            )

    def test_malformed_lines_are_tallied(self):
        report = ParseReport()
        stream = _stream(
            '{"tweet_id":"1","author_id":"a","timestamp":0,"urls":[]}',
            "this is not json",
            '{"tweet_id":"2","author_id":"b","timestamp":1,"urls":["x.example/a"]}',
        )
        records = list(parse_tweet_stream(stream, report))
        assert len(records) == 2
        assert report.malformed == 1
        assert report.parsed == 2
        assert report.errors[0][0] == 2  # line number of the bad line

    @pytest.mark.parametrize(
        "line",
        [
            r'{"tweet_id":"1","author_id":"u\ud800x","timestamp":0}',
            r'{"tweet_id":"1","author_id":"a","timestamp":0,"urls":["x.example/\udfff"]}',
            r'{"tweet_id":"1","author_id":"a","timestamp":0,'
            r'"retweeted_author_id":"b","retweeted_tweet_id":"\ud83d"}',
            '{"tweet_id":"1","author_id":"u\ud800x","timestamp":0}',  # raw, in a str source
        ],
        ids=["author", "url", "retweeted-tweet", "raw"],
    )
    def test_lone_surrogate_is_malformed(self, line):
        report = ParseReport()
        ok = '{"tweet_id":"2","author_id":"b","timestamp":1}'
        records = list(parse_tweet_stream([line, ok], report))
        assert [r.tweet_id for r in records] == ["2"]
        assert report.malformed == 1
        assert "not valid Unicode" in report.errors[0][1]

    def test_escaped_pair_and_unused_field_surrogate_are_kept(self):
        rec = parse_tweet_line(
            r'{"tweet_id":"1","author_id":"😀","timestamp":0,"note":"\ud800"}'
        )
        assert rec.author_id == "\U0001f600"

    def test_duplicate_ids_are_tallied(self):
        report = ParseReport()
        line = '{"tweet_id":"1","author_id":"a","timestamp":0,"urls":[]}'
        records = list(parse_tweet_stream(_stream(line, line), report))
        assert len(records) == 1
        assert report.duplicates == 1

    def test_unknown_fields_ignored(self):
        rec = parse_tweet_line(
            '{"tweet_id":"1","author_id":"a","timestamp":5,"lang":"it","urls":["u.example"]}'
        )
        assert rec.urls == ("u.example",)

    def test_timestamp_must_be_integer(self):
        with pytest.raises(MalformedRecord):
            parse_tweet_line('{"tweet_id":"1","author_id":"a","timestamp":"0"}')
        with pytest.raises(MalformedRecord):
            parse_tweet_line('{"tweet_id":"1","author_id":"a","timestamp":true}')

    def test_urls_defaults_to_empty(self):
        rec = parse_tweet_line('{"tweet_id":"1","author_id":"a","timestamp":0}')
        assert rec.urls == ()

    def test_blank_lines_skipped(self):
        report = ParseReport()
        records = list(
            parse_tweet_stream(
                _stream('{"tweet_id":"1","author_id":"a","timestamp":0}', "", "  "), report
            )
        )
        assert len(records) == 1
        assert report.malformed == 0


_records = st.builds(
    TweetRecord,
    tweet_id=st.uuids().map(str),
    author_id=st.from_regex(r"u[0-9]{1,6}", fullmatch=True),
    timestamp=st.integers(min_value=0, max_value=2_000_000_000),
    retweeted_author_id=st.none(),
    retweeted_tweet_id=st.none(),
    urls=st.lists(
        st.from_regex(r"[a-z]{2,8}\.example(/[a-z0-9]{1,5}){0,2}", fullmatch=True), max_size=3
    ).map(tuple),
)
_retweets = _records.flatmap(
    lambda r: st.tuples(
        st.from_regex(r"v[0-9]{1,6}", fullmatch=True), st.uuids().map(str)
    ).map(
        lambda pair: TweetRecord(
            tweet_id=r.tweet_id,
            author_id=r.author_id,
            timestamp=r.timestamp,
            retweeted_author_id=pair[0],
            retweeted_tweet_id=pair[1],
            urls=r.urls,
        )
    )
)


class TestRoundTrip:
    @given(st.lists(st.one_of(_records, _retweets), max_size=20, unique_by=lambda r: r.tweet_id))
    @settings(max_examples=100, deadline=None)
    def test_lossless(self, records):
        report = ParseReport()
        lines = [record_to_json(r) for r in records]
        parsed = list(parse_tweet_stream(iter(lines), report))
        assert parsed == records
        assert report.malformed == 0

    def test_file_round_trip(self, tmp_path):
        records = [
            TweetRecord("1", "a", 0, urls=("x.example/α",)),
            TweetRecord("2", "b", 1, retweeted_author_id="a", retweeted_tweet_id="1"),
        ]
        path = tmp_path / "tweets.jsonl"
        write_tweet_file(records, path)
        loaded, report = read_tweet_file(path)
        assert loaded == records
        assert report.parsed == 2

    def test_serialized_form_is_flat_json(self):
        obj = json.loads(record_to_json(TweetRecord("1", "a", 0)))
        assert obj == {"tweet_id": "1", "author_id": "a", "timestamp": 0, "urls": []}
