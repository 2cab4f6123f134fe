"""Bot-score tables and the rate-limited scoring-service client."""
from __future__ import annotations

import hashlib
import json
import logging
import sys
import threading

import pytest
import requests

from rtscope.errors import InputError, ProtocolError
from rtscope.ingest.botscores import (
    GIVE_UP_AFTER,
    BotScoreClient,
    BotScoreTable,
    load_bot_scores,
)


class TestLoadBotScores:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "bs.csv"
        path.write_text("user_id,bot_score\nu1,0.39\n", encoding="utf-8")
        table = load_bot_scores(path)
        assert table.get("u1") == 0.39

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bs.csv"
        path.write_text("user_id,bot_score\nu1,0.5\nu2,1.5\nu3,-0.1\n", encoding="utf-8")
        table = load_bot_scores(path)
        assert len(table) == 1
        assert len(table.rejected_rows) == 2

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bs.csv"
        path.write_text("user_id,bot_score\nu1,high\n", encoding="utf-8")
        table = load_bot_scores(path)
        assert len(table) == 0
        assert table.rejected_rows == [(2, "non-numeric score 'high'")]

    def test_header_only_is_empty_not_error(self, tmp_path):
        path = tmp_path / "bs.csv"
        path.write_text("user_id,bot_score\n", encoding="utf-8")
        assert len(load_bot_scores(path)) == 0

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(InputError):
            load_bot_scores(tmp_path / "nope.csv")

    def test_bad_header_fatal(self, tmp_path):
        path = tmp_path / "bs.csv"
        path.write_text("id,score\nu1,0.5\n", encoding="utf-8")
        with pytest.raises(InputError):
            load_bot_scores(path)

    def test_put_validates_range(self):
        table = BotScoreTable()
        with pytest.raises(ValueError):
            table.put("u", 1.2)


class _Response:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class _ScriptedTransport:
    """Plays back a scripted response sequence and records every request's full URL."""

    def __init__(self, script):
        self.script = list(script)
        self.calls: list[str] = []

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls.append(requests.Request("GET", url, params=params).prepare().url)
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class _DownTransport:
    """An unreachable service: every request fails at the network level."""

    def __init__(self):
        self.calls = 0

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls += 1
        raise OSError("connection refused")


class _FakeClock:
    def __init__(self):
        self.now = 1000.0
        self.sleeps: list[float] = []

    def time(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def _client(tmp_path, script, endpoint="https://scores.example/api", **kwargs):
    clock = _FakeClock()
    transport = _ScriptedTransport(script)
    client = BotScoreClient(
        endpoint=endpoint,
        token="sekrit",
        cache_dir=tmp_path / "cache",
        transport=transport,
        sleep=clock.sleep,
        clock=clock.time,
        **kwargs,
    )
    return client, transport, clock


def _fetch(client, user_id):
    """One user through ``fetch_into``; the score, or None when it was unavailable."""
    table = BotScoreTable()
    unavailable = client.fetch_into(table, [user_id])
    assert unavailable == (0 if user_id in table else 1)
    return table.get(user_id)


class TestBotScoreClient:
    def test_fetch_and_cache_write_through(self, tmp_path):
        client, transport, _ = _client(tmp_path, [_Response(200, {"score": 0.42})])
        assert _fetch(client, "u1") == 0.42
        assert len(transport.calls) == 1
        assert "user_id=u1" in transport.calls[0]
        # second fetch is a cache hit: zero network calls
        assert _fetch(client, "u1") == 0.42
        assert len(transport.calls) == 1

    def test_cache_survives_new_client(self, tmp_path):
        client, _, _ = _client(tmp_path, [_Response(200, {"score": 0.1})])
        _fetch(client, "u9")
        fresh, transport, _ = _client(tmp_path, [])
        assert _fetch(fresh, "u9") == 0.1
        assert transport.calls == []

    def test_cache_entry_format(self, tmp_path):
        client, _, clock = _client(tmp_path, [_Response(200, {"score": 0.42})])
        _fetch(client, "u1")
        files = list((tmp_path / "cache").iterdir())
        assert [p.name for p in files] == [hashlib.sha1(b"u1").hexdigest() + ".json"]
        assert json.loads(files[0].read_text(encoding="utf-8")) == {
            "user_id": "u1", "score": 0.42, "fetched_at": int(clock.now)
        }

    def test_concurrent_cache_writes_do_not_collide(self, tmp_path):
        # Clients sharing a cache dir write the same user's entry at once;
        # every write must land whole, with no temp file left behind.
        clients = [_client(tmp_path, [])[0] for _ in range(8)]
        errors: list[BaseException] = []

        def hammer(client, score):
            try:
                for _ in range(50):
                    client._cache_put("u1", score, fetched_at=1)
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(c, i / 10)) for i, c in enumerate(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old_interval)
        assert errors == []
        assert [p.suffix for p in (tmp_path / "cache").iterdir()] == [".json"]
        assert _fetch(clients[0], "u1") in {i / 10 for i in range(8)}

    def test_user_id_is_one_query_parameter(self, tmp_path):
        client, transport, _ = _client(
            tmp_path, [_Response(200, 0.5)], endpoint="http://svc/score?v=2"
        )
        assert _fetch(client, "a&user_id=evil#x") == 0.5
        assert transport.calls == ["http://svc/score?v=2&user_id=a%26user_id%3Devil%23x"]

    def test_zero_score_stored(self, tmp_path):
        client, _, _ = _client(tmp_path, [_Response(200, 0.0)])
        table = BotScoreTable()
        assert client.fetch_into(table, ["u0"]) == 0
        assert table.get("u0") == 0.0

    def test_backoff_after_throttling(self, tmp_path):
        # 429 twice, then success: the scripted oracle asserts the call
        # sequence and that the score lands after exponential backoff.
        # The high rpm keeps throttle pauses out of the sleep log.
        client, transport, clock = _client(
            tmp_path,
            [_Response(429), _Response(429), _Response(200, {"score": 0.8})],
            backoff_base=0.5,
            requests_per_minute=6000.0,
        )
        assert _fetch(client, "u2") == 0.8
        assert len(transport.calls) == 3
        assert clock.sleeps == [0.5, 1.0]

    def test_retries_exhausted(self, tmp_path):
        client, transport, _ = _client(
            tmp_path, [_Response(503)] * 3, max_retries=2, backoff_base=0.01
        )
        assert _fetch(client, "u3") is None
        assert len(transport.calls) == 3

    def test_out_of_range_payload_is_protocol_error(self, tmp_path):
        client, _, _ = _client(tmp_path, [_Response(200, {"score": 1.7})])
        with pytest.raises(ProtocolError):
            _fetch(client, "u4")

    def test_non_numeric_payload_is_protocol_error(self, tmp_path):
        client, _, _ = _client(tmp_path, [_Response(200, {"score": "high"})])
        with pytest.raises(ProtocolError):
            _fetch(client, "u5")

    def test_unexpected_status_is_protocol_error(self, tmp_path):
        client, _, _ = _client(tmp_path, [_Response(404)])
        with pytest.raises(ProtocolError):
            _fetch(client, "u6")

    def test_rate_limit_spacing(self, tmp_path):
        client, _, clock = _client(
            tmp_path,
            [_Response(200, {"score": 0.1}), _Response(200, {"score": 0.2})],
            requests_per_minute=30.0,  # 2s minimum spacing
        )
        _fetch(client, "a")
        _fetch(client, "b")
        assert any(abs(s - 2.0) < 1e-9 for s in clock.sleeps)

    @pytest.mark.parametrize("rpm", [0.0, -1.0, float("nan"), float("inf")])
    def test_rate_must_be_positive_and_finite(self, tmp_path, rpm):
        # nan or inf would make every throttle wait non-positive: no spacing at all
        with pytest.raises(ValueError):
            _client(tmp_path, [], requests_per_minute=rpm)

    def test_network_errors_retry_then_give_up(self, tmp_path):
        client, transport, _ = _client(
            tmp_path,
            [OSError("boom"), OSError("boom"), OSError("boom")],
            max_retries=2,
            backoff_base=0.01,
        )
        assert _fetch(client, "u7") is None
        assert len(transport.calls) == 3

    def test_fetch_into_counts_unavailable(self, tmp_path):
        client, _, _ = _client(
            tmp_path,
            [_Response(200, {"score": 0.3}), _Response(503), _Response(503)],
            max_retries=1,
            backoff_base=0.01,
        )
        table = BotScoreTable()
        unavailable = client.fetch_into(table, ["ok", "down"])
        assert unavailable == 1
        assert table.get("ok") == 0.3
        assert table.get("down") is None

    def test_every_cached_score_in_range(self, tmp_path):
        client, _, _ = _client(
            tmp_path,
            [_Response(200, {"score": s}) for s in (0.0, 0.25, 1.0)],
        )
        for i, expected in enumerate((0.0, 0.25, 1.0)):
            assert _fetch(client, f"u{i}") == expected
        for entry in (tmp_path / "cache").glob("*.json"):
            score = json.loads(entry.read_text())["score"]
            assert 0.0 <= score <= 1.0

    def test_unreachable_service_stops_requesting_but_reads_the_cache(self, tmp_path, caplog):
        warm, _, _ = _client(tmp_path, [_Response(200, {"score": 0.6}), _Response(200, 0.2)])
        assert (_fetch(warm, "c1"), _fetch(warm, "c2")) == (0.6, 0.2)
        client, _, clock = _client(
            tmp_path, [], max_retries=1, backoff_base=0.5, requests_per_minute=6000.0
        )
        client._transport = down = _DownTransport()
        table = BotScoreTable()
        users = ["u1", "u2", "c1", "u3", "u4", "c2", "u5"]
        with caplog.at_level(logging.WARNING, logger="rtscope.ingest.botscores"):
            unavailable = client.fetch_into(table, users)
        # u1-u3 are requested (two attempts each); the cache hit between them
        # does not reset the count, and u4 and u5 are never requested.
        assert GIVE_UP_AFTER == 3
        assert down.calls == 3 * 2
        assert clock.sleeps.count(0.5) == 3  # one backoff per requested user
        assert unavailable == 5
        assert (table.get("c1"), table.get("c2"), len(table)) == (0.6, 0.2, 2)
        assert "2 more user(s)" in caplog.text

    def test_a_scored_request_resets_the_give_up_count(self, tmp_path):
        script = [OSError("down")] * 2 + [_Response(200, 0.4)] + [OSError("down")] * 3
        client, transport, _ = _client(tmp_path, script, max_retries=0)
        table = BotScoreTable()
        assert client.fetch_into(table, ["a", "b", "ok", "c", "d", "e", "f"]) == 6
        assert table.get("ok") == 0.4
        # a and b fail, ok resets the count, then c, d and e fail; f is not requested
        assert len(transport.calls) == 6
