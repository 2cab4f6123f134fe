"""URL normalization and source-catalog classification."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtscope.errors import InputError, InvalidUrlError
from rtscope.ingest.catalog import (
    SourceCatalog,
    SourceClass,
    classify_domain,
    host_suffixes,
    load_source_catalog,
)
from rtscope.ingest.urls import normalize_url


class TestNormalizeUrl:
    def test_strips_scheme_www_tracking_and_fragment(self):
        u = normalize_url("HTTPS://WWW.Example.com/a/?utm_source=x#frag")
        assert u.canonical == "example.com/a"
        assert u.host == "example.com"

    def test_identity_on_canonical_input(self):
        u = normalize_url("example.com/a")
        assert u.canonical == "example.com/a"

    def test_keeps_significant_query_and_full_host(self):
        # Hand application of the rules: drop fbclid, keep id, host stays whole.
        u = normalize_url("http://sub.news.it/p?id=3&fbclid=Z")
        assert u.canonical == "sub.news.it/p?id=3"
        assert u.host == "sub.news.it"

    def test_root_path_collapses(self):
        assert normalize_url("http://example.com/").canonical == "example.com"

    def test_uppercase_utm_stripped(self):
        assert normalize_url("example.com/x?UTM_Source=1&q=2").canonical == "example.com/x?q=2"

    def test_no_host_rejected(self):
        with pytest.raises(InvalidUrlError):
            normalize_url("http://")
        with pytest.raises(InvalidUrlError):
            normalize_url("")

    def test_host_property(self):
        assert normalize_url("a.b.example.org/x/y?z=1").host == "a.b.example.org"

    @given(
        host=st.from_regex(r"[a-z][a-z0-9]{0,8}(\.[a-z][a-z0-9]{0,8}){1,3}", fullmatch=True),
        path=st.from_regex(r"(/[a-zA-Z0-9._~-]{0,6}){0,3}/?", fullmatch=True),
        params=st.lists(
            st.tuples(
                st.from_regex(r"[a-zA-Z][a-zA-Z0-9_]{0,7}", fullmatch=True),
                st.from_regex(r"[a-zA-Z0-9 %+._-]{0,8}", fullmatch=True),
            ),
            max_size=4,
        ),
        scheme=st.sampled_from(["", "http://", "https://", "HTTPS://"]),
        www=st.booleans(),
        fragment=st.sampled_from(["", "#frag", "#a/b"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent_on_own_output(self, host, path, params, scheme, www, fragment):
        query = "&".join(f"{k}={v}" for k, v in params)
        raw = f"{scheme}{'www.' if www else ''}{host}{path}"
        if query:
            raw += f"?{query}"
        raw += fragment
        once = normalize_url(raw)
        twice = normalize_url(once.canonical)
        assert twice == once

    def test_cache_returns_equal_values(self):
        assert normalize_url("example.com/a") is normalize_url("example.com/a")


class TestClassifyDomain:
    CATALOG = SourceCatalog.from_domains(
        ["blacklisted.it", "fake.example"], ["news.it", "paper.example"]
    )

    def test_unreliable(self):
        assert classify_domain(normalize_url("fake.example/x"), self.CATALOG) is SourceClass.UNRELIABLE

    def test_unknown(self):
        assert classify_domain(normalize_url("neutral.example/x"), self.CATALOG) is SourceClass.UNKNOWN

    def test_parent_domain_match(self):
        # Suffix walk by hand: news.blacklisted.it -> blacklisted.it is listed.
        url = normalize_url("http://news.blacklisted.it/story")
        assert list(host_suffixes("news.blacklisted.it")) == [
            "news.blacklisted.it",
            "blacklisted.it",
            "it",
        ]
        assert classify_domain(url, self.CATALOG) is SourceClass.UNRELIABLE

    def test_reliable_subdomain(self):
        assert classify_domain(normalize_url("media.news.it/a"), self.CATALOG) is SourceClass.RELIABLE

    @given(
        domain=st.from_regex(r"[a-z]{1,6}\.[a-z]{2,3}", fullmatch=True),
        sub=st.from_regex(r"([a-z]{1,5}\.){0,2}", fullmatch=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_blacklisted_never_reliable(self, domain, sub):
        catalog = SourceCatalog.from_domains([domain], [domain, "other.example"])
        url = normalize_url(f"https://{sub}{domain}/x")
        assert classify_domain(url, catalog) is not SourceClass.RELIABLE


class TestLoadCatalog:
    def test_counts_and_overlap(self, tmp_path):
        bad = tmp_path / "bad.txt"
        good = tmp_path / "good.txt"
        bad.write_text(
            "\n".join(f"fake{i:02d}.example" for i in range(24)) + "\n", encoding="utf-8"
        )
        good.write_text(
            "# whitelist\n\nwww.Paper.example\nfake00.example\nnews.example\n", encoding="utf-8"
        )
        catalog = load_source_catalog(bad, good)
        assert len(catalog.unreliable) == 24
        # the overlapping domain stays only on the unreliable side
        assert "fake00.example" in catalog.unreliable
        assert "fake00.example" not in catalog.reliable
        assert catalog.reliable == frozenset({"paper.example", "news.example"})

    def test_missing_file_fatal(self, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text("a.example\n", encoding="utf-8")
        with pytest.raises(InputError):
            load_source_catalog(tmp_path / "nope.txt", good)

    def test_empty_blacklist_fatal(self, tmp_path):
        bad = tmp_path / "bad.txt"
        good = tmp_path / "good.txt"
        bad.write_text("# only comments\n", encoding="utf-8")
        good.write_text("a.example\n", encoding="utf-8")
        with pytest.raises(InputError):
            load_source_catalog(bad, good)
