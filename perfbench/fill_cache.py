"""Warm a scoring-service disk cache without a service.

Usage: python3 fill_cache.py ENDPOINT CACHE_DIR NODES_CSV BOT_SCORES_CSV

Runs the public ``BotScoreClient.fetch_into`` over every node of the graph
cache, with a stub transport that answers from the generated bot-score CSV,
so the cache holds exactly what a real service would have returned. Prints
the number of unavailable users, which must be 0.
"""
from __future__ import annotations

import csv
import sys
from urllib.parse import parse_qs, urlsplit

from rtscope.ingest.botscores import BotScoreClient, BotScoreTable, load_bot_scores


class _Response:
    status_code = 200

    def __init__(self, score: float) -> None:
        self._score = score

    def json(self) -> dict:
        return {"score": self._score}


class _StubTransport:
    """Answers ``GET endpoint?user_id=...`` (in the URL or in ``params``) from a table."""

    def __init__(self, table: BotScoreTable) -> None:
        self.table = table
        self.requests = 0

    def get(self, url: str, params: dict | None = None, **_kwargs) -> _Response:
        self.requests += 1
        user_id = (params or {}).get("user_id")
        if user_id is None:
            user_id = parse_qs(urlsplit(url).query)["user_id"][0]
        return _Response(self.table.get(user_id))


def main(argv: list[str]) -> int:
    endpoint, cache_dir, nodes_csv, bot_scores_csv = argv
    with open(nodes_csv, newline="", encoding="utf-8") as fh:
        users = [row[1] for row in list(csv.reader(fh))[1:]]
    transport = _StubTransport(load_bot_scores(bot_scores_csv))
    client = BotScoreClient(
        endpoint, cache_dir=cache_dir, requests_per_minute=1e12, transport=transport
    )
    unavailable = client.fetch_into(BotScoreTable(), users)
    print(f"users={len(users)} requests={transport.requests} unavailable={unavailable}")
    return 0 if unavailable == 0 and transport.requests == len(users) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
