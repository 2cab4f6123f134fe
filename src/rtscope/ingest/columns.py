"""Integer columns of a tweet file: who posted each record, whom it retweets, its URLs.

``build_columns`` is the one walk over ``TweetRecord``s. Every later
computation (the retweet graph, the user tallies, the URL table) reads its
columns instead of the records. The ``ingest`` stage builds them from the
parse stream and caches them with ``save_columns``; standalone stages read
them back with ``load_columns`` instead of parsing the tweet file again.

The cache is an uncompressed ``.npz`` of 1-D little-endian arrays (strings as
one UTF-8 ``uint8`` blob plus ``int64`` offsets), written with fixed zip
timestamps so that equal columns give equal bytes. ``load_columns`` reads
only the member layout and dtypes it writes, never unpickles, and checks
every index range and string, so a damaged cache is an ``InputError`` on
load. A loaded cache builds each ``NormalizedUrl`` only when it is read.
"""
from __future__ import annotations

import tokenize
import zipfile
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from rtscope.errors import InputError, InvalidUrlError
from rtscope.ingest.records import ParseReport, TweetRecord, parse_tweet_stream
from rtscope.ingest.urls import NormalizedUrl, normalize_url


@dataclass(frozen=True, eq=False)
class TweetColumns:
    """One row per record, in file order.

    ``names`` interns every author and then every retweeted author in record
    order, which is the retweet graph's node order. ``author`` and
    ``retweeted`` (int32) index ``names``; ``retweeted`` is -1 for an
    original. Row ``r``'s canonical URL ids are
    ``url_ids[url_ptr[r]:url_ptr[r + 1]]``, each once, in order of
    appearance; they index ``urls``, which is numbered in first-seen order.
    """

    names: list[str]
    author: np.ndarray
    retweeted: np.ndarray
    url_ptr: np.ndarray
    url_ids: np.ndarray
    urls: Sequence[NormalizedUrl]


def build_columns(records: Iterable[TweetRecord]) -> TweetColumns:
    """One walk over the records; each distinct raw URL is normalized once."""
    id_of_name: dict[str, int] = {}
    id_of_raw: dict[str, int] = {}  # -1 marks an unparseable URL
    id_of_canonical: dict[str, int] = {}
    urls: list[NormalizedUrl] = []
    author, retweeted, ends, ids = array("i"), array("i"), array("q", [0]), array("i")
    for record in records:
        author.append(id_of_name.setdefault(record.author_id, len(id_of_name)))
        target = record.retweeted_author_id
        retweeted.append(-1 if target is None else id_of_name.setdefault(target, len(id_of_name)))
        if record.urls:
            row: list[int] = []
            for raw in record.urls:
                uid = id_of_raw.get(raw)
                if uid is None:
                    try:
                        normalized = normalize_url(raw)
                    except InvalidUrlError:
                        uid = -1
                    else:
                        uid = id_of_canonical.setdefault(normalized.canonical, len(urls))
                        if uid == len(urls):
                            urls.append(normalized)
                    id_of_raw[raw] = uid
                if uid >= 0 and uid not in row:
                    row.append(uid)
            ids.extend(row)
        ends.append(len(ids))
    return TweetColumns(
        names=list(id_of_name),
        author=np.array(author, dtype=np.int32),
        retweeted=np.array(retweeted, dtype=np.int32),
        url_ptr=np.array(ends, dtype=np.int64),
        url_ids=np.array(ids, dtype=np.int32),
        urls=urls,
    )


def as_columns(tweets: TweetColumns | Iterable[TweetRecord]) -> TweetColumns:
    """Columns as given, or built from records."""
    return tweets if isinstance(tweets, TweetColumns) else build_columns(tweets)


def read_columns(path: Path | str, report: ParseReport) -> TweetColumns:
    """Stream a tweet file into columns, tallying its lines into ``report``."""
    try:
        with open(path, "rb") as fh:
            return build_columns(parse_tweet_stream(fh, report))
    except OSError as exc:
        raise InputError(f"cannot read tweet file {path}: {exc}") from exc


# -- the .npz cache -------------------------------------------------------------

_I32, _I64, _U8 = np.dtype("<i4"), np.dtype("<i8"), np.dtype("|u1")
# Members in write order. Each string table ``t`` is a blob ``t`` plus ``t_offsets``.
_MEMBERS = {
    "source_name": _U8,
    "source_sha256": _U8,
    "names": _U8,
    "names_offsets": _I64,
    "author": _I32,
    "retweeted": _I32,
    "url_ptr": _I64,
    "url_ids": _I32,
    "canonical": _U8,
    "canonical_offsets": _I64,
}
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def _pack(key: str, strings: list[str]) -> dict[str, np.ndarray]:
    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=_I64)
    np.cumsum(np.fromiter(map(len, encoded), dtype=_I64, count=len(encoded)), out=offsets[1:])
    return {key: np.frombuffer(b"".join(encoded), dtype=_U8), f"{key}_offsets": offsets}


def save_columns(
    columns: TweetColumns, path: Path | str, source_name: str, source_sha256: str
) -> None:
    """Write the columns and the name and sha256 of the tweet file they come from."""
    arrays = {
        "source_name": np.frombuffer(source_name.encode("utf-8", "surrogatepass"), dtype=_U8),
        "source_sha256": np.frombuffer(bytes.fromhex(source_sha256), dtype=_U8),
        **_pack("names", columns.names),
        "author": columns.author,
        "retweeted": columns.retweeted,
        "url_ptr": columns.url_ptr,
        "url_ids": columns.url_ids,
        **_pack("canonical", [u.canonical for u in columns.urls]),
    }
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for key, dtype in _MEMBERS.items():
            info = zipfile.ZipInfo(f"{key}.npy", date_time=_ZIP_EPOCH)
            with zf.open(info, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asarray(arrays[key], dtype=dtype),
                                          allow_pickle=False)


def _read_member(fh: IO[bytes], dtype: np.dtype) -> np.ndarray:
    """One ``.npy`` member that must hold a 1-D array of exactly ``dtype``."""
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("unsupported .npy format version")
    shape, _, got = np.lib.format.read_array_header_1_0(fh)
    if got != dtype or len(shape) != 1:
        raise ValueError(f"expected a 1-D {dtype.str} array, got {got.str} of shape {shape}")
    data = fh.read()
    if len(data) != shape[0] * dtype.itemsize:
        raise ValueError(f"{len(data)} data bytes for {shape[0]} items")
    return np.frombuffer(data, dtype=dtype)


def _check_offsets(offsets: np.ndarray, total: int, what: str) -> None:
    if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != total:
        raise ValueError(f"{what} do not span 0..{total}")
    if (np.diff(offsets) < 0).any():
        raise ValueError(f"{what} decrease")


def _string_table(arrays: dict[str, np.ndarray], key: str) -> tuple[str, np.ndarray]:
    """A string table as one text and each string's character offsets into it.

    The whole blob must decode, and no string may start at a continuation
    byte: together these hold exactly when every string decodes on its own.
    """
    blob, offsets = arrays[key], arrays[f"{key}_offsets"]
    _check_offsets(offsets, blob.size, f"{key} offsets")
    text = str(blob.data, "utf-8")
    continuation = np.flatnonzero((blob & 0xC0) == 0x80)
    if np.isin(offsets, continuation).any():
        raise ValueError(f"{key} offsets split a UTF-8 character")
    return text, offsets - np.searchsorted(continuation, offsets)


class _CachedUrls(Sequence[NormalizedUrl]):
    """A loaded cache's URL table; each ``NormalizedUrl`` is built when it is read."""

    def __init__(self, text: str, at: np.ndarray) -> None:
        self._text, self._at = text, at

    def __len__(self) -> int:
        return self._at.size - 1

    def __getitem__(self, i: int) -> NormalizedUrl:
        i = range(len(self))[i]
        return NormalizedUrl(self._text[self._at[i]:self._at[i + 1]])

    def __iter__(self) -> Iterator[NormalizedUrl]:
        at = self._at.tolist()
        for start, end in zip(at, at[1:]):
            yield NormalizedUrl(self._text[start:end])


def _in_range(values: np.ndarray, low: int, high: int) -> bool:
    return not values.size or (int(values.min()) >= low and int(values.max()) < high)


def load_columns(path: Path | str) -> tuple[TweetColumns, str, str]:
    """Read a column cache: ``(columns, source name, source sha256)``.

    Any departure from the layout ``save_columns`` writes (a missing or extra
    member, another dtype, an index out of range) is an ``InputError`` naming
    the file.
    """
    try:
        with zipfile.ZipFile(path) as zf:
            infos = zf.infolist()
            if sorted(i.filename for i in infos) != sorted(f"{k}.npy" for k in _MEMBERS):
                raise ValueError(f"members {sorted(i.filename for i in infos)}")
            arrays = {}
            for info in infos:
                if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
                    raise ValueError(f"{info.filename} is compressed or encrypted")
                with zf.open(info) as fh:
                    arrays[info.filename[:-4]] = _read_member(fh, _MEMBERS[info.filename[:-4]])
        text, offsets = _string_table(arrays, "names")
        bounds = offsets.tolist()
        names = [text[a:b] for a, b in zip(bounds, bounds[1:])]
        urls = _CachedUrls(*_string_table(arrays, "canonical"))
        author, retweeted = arrays["author"], arrays["retweeted"]
        url_ptr, url_ids = arrays["url_ptr"], arrays["url_ids"]
        if len(set(names)) != len(names):
            raise ValueError("author names repeat")
        if retweeted.size != author.size or url_ptr.size != author.size + 1:
            raise ValueError("record columns differ in length")
        _check_offsets(url_ptr, url_ids.size, "URL offsets")
        if not (_in_range(author, 0, len(names)) and _in_range(retweeted, -1, len(names))):
            raise ValueError("an author index is out of range")
        if not _in_range(url_ids, 0, len(urls)):
            raise ValueError("a URL id is out of range")
        if arrays["source_sha256"].size != 32:
            raise ValueError("source sha256 is not 32 bytes")
        source_name = arrays["source_name"].tobytes().decode("utf-8", "surrogatepass")
    except (OSError, EOFError, ValueError, NotImplementedError, zipfile.BadZipFile,
            SyntaxError, tokenize.TokenError) as exc:  # the last two: a damaged .npy header
        raise InputError(f"{path}: invalid column cache: {exc}") from exc
    columns = TweetColumns(
        names=names,
        author=author,
        retweeted=retweeted,
        url_ptr=url_ptr,
        url_ids=url_ids,
        urls=urls,
    )
    return columns, source_name, arrays["source_sha256"].tobytes().hex()
