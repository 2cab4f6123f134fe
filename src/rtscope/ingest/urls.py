"""URL normalization.

Canonical form (the identity used when counting shares of a link):
- scheme, userinfo and port dropped; host lowercased; leading "www." stripped
- fragment dropped
- tracking parameters removed: any name starting with "utm_" (compared
  case-insensitively), plus "fbclid" and "gclid"; everything else in the
  query is kept, in order
- trailing slashes stripped from the path ("/a/" -> "/a", bare "/" -> "")

Normalization is idempotent: feeding a canonical string back in returns it
unchanged. Shortened URLs are not resolved; they normalize like any other
host and typically classify as unknown.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from urllib.parse import parse_qsl, urlencode, urlsplit

from rtscope.errors import InvalidUrlError

_TRACKING_NAMES = frozenset({"fbclid", "gclid"})


@dataclass(frozen=True, slots=True)
class NormalizedUrl:
    canonical: str

    @property
    def host(self) -> str:
        return self.canonical.split("/", 1)[0].split("?", 1)[0]


def _keep_param(name: str) -> bool:
    lowered = name.lower()
    return not lowered.startswith("utm_") and lowered not in _TRACKING_NAMES


@lru_cache(maxsize=1 << 16)
def normalize_url(raw: str) -> NormalizedUrl:
    """Normalize ``raw`` into its canonical form.

    Raises InvalidUrlError when no host can be extracted.
    """
    text = raw.strip()
    if not text:
        raise InvalidUrlError("empty URL")
    parts = urlsplit(text)
    if not parts.netloc:
        if "://" in text:
            raise InvalidUrlError(f"no host in {raw!r}")
        # Scheme-less input like "example.com/a": parse the authority explicitly.
        parts = urlsplit("//" + text)
    try:
        host = parts.hostname
    except ValueError as exc:
        raise InvalidUrlError(f"unparseable host in {raw!r}: {exc}") from exc
    if not host:
        raise InvalidUrlError(f"no host in {raw!r}")
    if any(ch.isspace() for ch in host):
        raise InvalidUrlError(f"whitespace in host of {raw!r}")
    if host.startswith("www.") and len(host) > 4:
        host = host[4:]

    path = parts.path.rstrip("/")
    kept = [(k, v) for k, v in parse_qsl(parts.query, keep_blank_values=True) if _keep_param(k)]
    query = urlencode(kept)
    canonical = host + path + (f"?{query}" if query else "")
    return NormalizedUrl(canonical)
