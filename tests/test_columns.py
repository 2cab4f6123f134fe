"""The tweet columns: the builder, the .npz cache, and its validation on load."""
from __future__ import annotations

import time
import zipfile

import numpy as np
import pytest

from rtscope.errors import InputError
from rtscope.ingest import columns as columns_mod
from rtscope.ingest.columns import build_columns, load_columns, save_columns
from rtscope.ingest.records import TweetRecord
from rtscope.ingest.urls import NormalizedUrl

SHA = "ab" * 32


def _records() -> list[TweetRecord]:
    return [
        TweetRecord("1", "ann", 0, urls=("https://www.news.example/a/?utm_source=x", "", "b.example")),
        TweetRecord("2", "bob", 1, "ann", "1", ("news.example/a", "news.example/a/")),
        TweetRecord("3", "cé", 2, "dan", "9"),  # dan appears only as a retweeted author
        TweetRecord("4", "bob", 3, "bob", "2", ("http://",)),  # a self-retweet
        TweetRecord("5", "ann", 4),
    ]


def test_builder_columns():
    columns = build_columns(_records())
    assert columns.names == ["ann", "bob", "cé", "dan"]
    assert columns.author.tolist() == [0, 1, 2, 1, 0]
    assert columns.retweeted.tolist() == [-1, 0, 3, 1, -1]
    assert [u.canonical for u in columns.urls] == ["news.example/a", "b.example"]
    assert columns.url_ptr.tolist() == [0, 2, 3, 3, 3, 3]
    assert columns.url_ids.tolist() == [0, 1, 0]  # deduplicated within a record


@pytest.mark.parametrize("records", [_records(), []], ids=["records", "empty"])
def test_round_trip(records, tmp_path):
    columns = build_columns(records)
    save_columns(columns, tmp_path / "columns.npz", "tweets.jsonl", SHA)
    loaded, name, sha = load_columns(tmp_path / "columns.npz")
    assert (name, sha) == ("tweets.jsonl", SHA)
    assert loaded.names == columns.names
    assert list(loaded.urls) == columns.urls
    assert [loaded.urls[i] for i in range(-len(columns.urls), 0)] == columns.urls
    for key in ("author", "retweeted", "url_ptr", "url_ids"):
        assert np.array_equal(getattr(loaded, key), getattr(columns, key)), key
        assert getattr(loaded, key).dtype == getattr(columns, key).dtype, key


def test_cache_is_a_plain_npz(tmp_path):
    save_columns(build_columns(_records()), tmp_path / "columns.npz", "t.jsonl", SHA)
    with np.load(tmp_path / "columns.npz", allow_pickle=False) as data:
        assert data["author"].tolist() == [0, 1, 2, 1, 0]
    with zipfile.ZipFile(tmp_path / "columns.npz") as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}


def test_same_columns_give_identical_bytes(monkeypatch, tmp_path):
    columns = build_columns(_records())
    save_columns(columns, tmp_path / "a.npz", "t.jsonl", SHA)
    now = time.time()
    monkeypatch.setattr(time, "time", lambda: now + 86_400.0)
    save_columns(columns, tmp_path / "b.npz", "t.jsonl", SHA)
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


@pytest.mark.parametrize(
    "payload", [b"", b"not a zip", b"PK\x03\x04" + bytes(60), b"\x93NUMPY\x01\x00"],
    ids=["empty", "text", "zip-header", "npy-magic"],
)
def test_unreadable_bytes_are_input_errors(payload, tmp_path):
    path = tmp_path / "columns.npz"
    path.write_bytes(payload)
    with pytest.raises(InputError, match="columns.npz"):
        load_columns(path)


def test_member_with_another_dtype_is_refused(tmp_path):
    path = tmp_path / "columns.npz"
    save_columns(build_columns(_records()), path, "t.jsonl", SHA)
    with np.load(path) as data:
        arrays = dict(data)
    arrays["author"] = arrays["author"].astype(np.int64)
    np.savez(path, **arrays)
    with pytest.raises(InputError, match="expected a 1-D <i4 array"):
        load_columns(path)


def test_damaged_npy_header_is_an_input_error(tmp_path):
    # Seven NUL bytes over "ape': (" of a member larger than zipfile's 4 KiB
    # read-ahead: numpy's header parser fails (SyntaxError, then
    # tokenize.TokenError) before the member's CRC is checked.
    path = tmp_path / "columns.npz"
    records = [TweetRecord(str(i), f"user{i:07d}", i, urls=(f"s{i % 7}.example/p{i}",))
               for i in range(1000)]
    save_columns(build_columns(records), path, "t.jsonl", SHA)
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as zf:
        member = zf.getinfo("names.npy")
    assert member.file_size > 4096
    at = data.index(b"ape': (", member.header_offset)
    data[at:at + 7] = bytes(7)
    path.write_bytes(bytes(data))
    with pytest.raises(InputError, match="columns.npz"):
        load_columns(path)


def test_loaded_urls_are_built_only_when_read(monkeypatch, tmp_path):
    save_columns(build_columns(_records()), tmp_path / "columns.npz", "t.jsonl", SHA)
    built = []

    def counting(canonical):
        built.append(canonical)
        return NormalizedUrl(canonical)

    monkeypatch.setattr(columns_mod, "NormalizedUrl", counting)
    loaded, _, _ = load_columns(tmp_path / "columns.npz")
    assert len(loaded.urls) == 2 and built == []
    assert loaded.urls[1] == NormalizedUrl("b.example")
    assert built == ["b.example"]
    with pytest.raises(IndexError):
        loaded.urls[2]


def _save_with(path, change) -> None:
    save_columns(build_columns(_records()), path, "t.jsonl", SHA)
    with np.load(path) as data:
        arrays = dict(data)
    change(arrays)
    np.savez(path, **arrays)


def _multibyte_first_url(arrays) -> None:
    """The first URL gains a leading "é" (two bytes)."""
    arrays["canonical"] = np.concatenate([np.frombuffer("é".encode(), np.uint8),
                                          arrays["canonical"]])
    arrays["canonical_offsets"][1:] += 2


def test_valid_multibyte_urls_load(tmp_path):
    _save_with(tmp_path / "columns.npz", _multibyte_first_url)
    loaded, _, _ = load_columns(tmp_path / "columns.npz")
    assert [u.canonical for u in loaded.urls] == ["énews.example/a", "b.example"]


def _invalid_byte_in_last_url(arrays) -> None:
    arrays["canonical"][-1] = 0xFF


def _offset_inside_a_character(arrays) -> None:
    _multibyte_first_url(arrays)
    arrays["canonical_offsets"][1] = 1  # the whole blob still decodes


@pytest.mark.parametrize(
    "change, message",
    [(_invalid_byte_in_last_url, "can't decode byte 0xff"),
     (_offset_inside_a_character, "canonical offsets split a UTF-8 character")],
)
def test_undecodable_url_is_refused_before_any_read(change, message, tmp_path):
    _save_with(tmp_path / "columns.npz", change)
    with pytest.raises(InputError, match=f"columns.npz: invalid column cache: .*{message}"):
        load_columns(tmp_path / "columns.npz")


def test_cache_from_a_build_with_url_domains_is_refused(tmp_path):
    # Older builds also stored each URL's registered domain as a string table.
    _save_with(tmp_path / "columns.npz", lambda arrays: arrays.update(
        domain=np.zeros(0, np.uint8), domain_offsets=np.zeros(3, np.int64)))
    with pytest.raises(InputError, match="columns.npz: invalid column cache: members"):
        load_columns(tmp_path / "columns.npz")
