"""Input handling: tweet records, their columns, URL normalization, catalogs, bot scores."""

from rtscope.ingest.botscores import BotScoreClient, BotScoreTable, load_bot_scores
from rtscope.ingest.catalog import SourceCatalog, SourceClass, classify_domain, load_source_catalog
from rtscope.ingest.columns import TweetColumns, build_columns, read_columns
from rtscope.ingest.records import (
    ParseReport,
    TweetRecord,
    parse_tweet_stream,
    read_tweet_file,
    write_tweet_file,
)
from rtscope.ingest.urls import NormalizedUrl, normalize_url

__all__ = [
    "BotScoreClient",
    "BotScoreTable",
    "NormalizedUrl",
    "ParseReport",
    "SourceCatalog",
    "SourceClass",
    "TweetColumns",
    "TweetRecord",
    "build_columns",
    "classify_domain",
    "load_bot_scores",
    "load_source_catalog",
    "normalize_url",
    "parse_tweet_stream",
    "read_columns",
    "read_tweet_file",
    "write_tweet_file",
]
