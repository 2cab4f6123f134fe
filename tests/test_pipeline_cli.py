"""End-to-end pipeline runs, stage-wise runs, config handling, exit codes."""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rtscope
from rtscope import cli
from rtscope.errors import ConfigError
from rtscope.pipeline import (
    CONFIG_KEYS,
    STAGES,
    RunConfig,
    config_from_sources,
    load_config_file,
    run_pipeline,
    run_stage,
)
from rtscope.synth import SyntheticSpec, UrlCascadePlan, generate_synthetic

FIXTURE_SPEC = SyntheticSpec(
    community_sizes=(40, 40, 40),
    intra_p=0.25,
    inter_p=0.01,
    bot_fraction=0.1,
    unreliable_rate=(0.6, 0.05, 0.05),
    url_tweets_per_user=(3, 6),
    url_plans=(
        UrlCascadePlan(count=4, origin_community=0, breadth=1, unreliable=True,
                       op_from_bots=True, retweets_min=25, retweets_max=35),
        UrlCascadePlan(count=6, origin_community=1, breadth=2, unreliable=False,
                       retweets_min=25, retweets_max=40),
        UrlCascadePlan(count=4, origin_community=2, breadth=3, unreliable=False,
                       retweets_min=30, retweets_max=45),
    ),
)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("fixture")
    generate_synthetic(FIXTURE_SPEC, seed=1234, out_dir=path)
    return path


def _config(fixture_dir: Path, out_dir: Path, **overrides) -> RunConfig:
    values = dict(
        tweets=fixture_dir / "tweets.jsonl",
        unreliable_sources=fixture_dir / "sources_unreliable.txt",
        reliable_sources=fixture_dir / "sources_reliable.txt",
        bot_scores=fixture_dir / "bot_scores.csv",
        min_shares=10,
        n_reshuffles=20,
        out_dir=out_dir,
    )
    values.update(overrides)
    config = RunConfig(**values)
    config.validate()
    return config


# sha256 of every file of the fixture bundle but manifest.json, which echoes
# input paths. A change that alters the outputs on purpose updates this list.
FIXTURE_DIGESTS = {
    "columns.npz": "54ba3d31fe340164bee7a73899fea531585b4506fe4652c51c4199301cc46eb7",
    "communities.csv": "7eecc34db2e3367b10c4da923903f2cca5f5dffa4006da073e23223fc557314a",
    "communities_report.json": "7db466b20f5393a78d2c4bfd5d690a003a74dccd0743838e54b3a21bdb9e832f",
    "curve_feature_hist.csv": "70bb47494750db72c1fa084b3e0aeaead9a262d58f95852c4f560c1d01f49e14",
    "curves.csv": "0957b0cf56e8556942fd72e0f4922404ab04357125d8903ce61c280306d9a313",
    "curves_report.json": "31fa6156cd7bdedbec2396846e64fe79e0951e61646bc8eb24902b9a5aa99148",
    "curves_zero_filled.csv": "6a671a7d95533f404da1191d7fd40a3e95a2e388b686992062571ca9775034bb",
    "edges.csv": "aa87191bd66dee3e131436fe7badb19f1ba227f0b1925af5a2a8e1ccd31fdbf2",
    "graph_report.json": "fdd3ea62b5ab72adee9905479a2fa500364ff5bfe8969c21f08269005c97ebb4",
    "nodes.csv": "2009a81f87bf7cdf70f530ffae6dae84ea0bb6af5dc1688b935ac7844ec814e5",
    "nulltest_bs.csv": "f0f5abfc7111deb7e6f3d9e4a54eda2dea17cdc34728bb2f91b5c6941f86f1e9",
    "nulltest_report.json": "e307e2c0403bfc8d5a0f716305ccdd9b469cb31f6490bbfef59fd260f8dd0a88",
    "nulltest_u.csv": "45030c8c66ca65d1787e2a26b964d6e583fd801807dd464826651107037ce37f",
    "parse_report.json": "0b2ee7aa71770be3a972c975d78cca111edf34ee4193d6dcf84593cba81c11a2",
    "partition.csv": "b54456a13e8231b2bb49fc1d90f73c5fd611edee527ef3d136c92538740d6526",
    "scores_report.json": "262f8f3308dea4af03122554dcd3a5e5abc8972143023f51ea4ca38fadc34a64",
    "url_report.csv": "cfb49debd7eb86b947b870d894615cdf6be3993277391cfe3b76c076b4f18d23",
    "url_report_high_bs_ops.csv": "946e2c4d2d22767046b78d7648bbac289ae0674f05e4b47d275447f31537e795",
    "urls_report.json": "2fc8f00c39cdaaa9359ffb0206218a8712942178a9895887782fab99d29aeba3",
    "user_scores.csv": "d6201902063735a45dbf34254174c85321d40ad9d75faf703a0741176c2311db",
}

EXPECTED_ARTIFACTS = [
    "parse_report.json",
    "columns.npz",
    "nodes.csv",
    "edges.csv",
    "graph_report.json",
    "partition.csv",
    "communities.csv",
    "communities_report.json",
    "user_scores.csv",
    "scores_report.json",
    "url_report.csv",
    "url_report_high_bs_ops.csv",
    "urls_report.json",
    "nulltest_u.csv",
    "nulltest_bs.csv",
    "nulltest_report.json",
    "curves.csv",
    "curves_zero_filled.csv",
    "curve_feature_hist.csv",
    "curves_report.json",
    "manifest.json",
]


class TestRunPipeline:
    def test_full_run_produces_every_artifact(self, fixture_dir, tmp_path):
        config = _config(fixture_dir, tmp_path / "out")
        manifest = run_pipeline(config)
        for name in EXPECTED_ARTIFACTS:
            assert (tmp_path / "out" / name).exists(), name
        assert manifest["reconciliation"]["consistent"]

    def test_manifest_counts_match_fixture(self, fixture_dir, tmp_path):
        config = _config(fixture_dir, tmp_path / "out")
        manifest = run_pipeline(config)
        with open(fixture_dir / "tweets.jsonl", "rb") as fh:
            n_lines = sum(1 for _ in fh)
        assert manifest["stages"]["ingest"]["parsed"] == n_lines
        assert manifest["stages"]["ingest"]["malformed"] == 0
        assert manifest["stages"]["graph"]["nodes"] == 120
        truth = json.loads((fixture_dir / "ground_truth.json").read_text())
        assert manifest["stages"]["urls"]["urls_filtered"] >= len(truth["urls"])

    def test_rerun_is_byte_identical(self, fixture_dir, tmp_path):
        config_a = _config(fixture_dir, tmp_path / "a")
        config_b = _config(fixture_dir, tmp_path / "b")
        run_pipeline(config_a)
        run_pipeline(config_b)
        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_empty_tweet_file_aborts_at_graph_stage(self, fixture_dir, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        config = _config(fixture_dir, tmp_path / "out", tweets=empty)
        with pytest.raises(Exception) as err:
            run_pipeline(config)
        assert "graph" in str(err.value)
        assert "edgeless" in str(err.value)
        assert err.value.exit_code == 3

    def test_stagewise_run_matches_full_run(self, fixture_dir, tmp_path):
        config_full = _config(fixture_dir, tmp_path / "full")
        run_pipeline(config_full)
        config_stage = _config(fixture_dir, tmp_path / "staged")
        for name in STAGES:
            run_stage(config_stage, name)
        staged = sorted(p.name for p in (tmp_path / "staged").iterdir())
        full = sorted(p.name for p in (tmp_path / "full").iterdir())
        assert set(full) - set(staged) == {"manifest.json"}
        assert set(staged) < set(full)
        for name in staged:
            assert (tmp_path / "staged" / name).read_bytes() == (
                tmp_path / "full" / name
            ).read_bytes(), name

    def test_url_report_schema(self, fixture_dir, tmp_path):
        config = _config(fixture_dir, tmp_path / "out")
        run_pipeline(config)
        with open(tmp_path / "out" / "url_report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "url", "total_shares", "entropy", "entropy_class", "n_ops",
            "avg_U_retweeters", "avg_BS_retweeters", "avg_U_ops", "avg_BS_ops",
            "successful",
        ]
        assert len(rows) > 1

    def test_curves_schema_and_zero_fill(self, fixture_dir, tmp_path):
        config = _config(fixture_dir, tmp_path / "out")
        run_pipeline(config)
        with open(tmp_path / "out" / "curves.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "entropy_class", "x", "probability", "n_conditioning"]
        with open(tmp_path / "out" / "curves_zero_filled.csv", newline="") as fh:
            zrows = list(csv.reader(fh))
        assert len(zrows) == len(rows)
        for row, zrow in zip(rows[1:], zrows[1:]):
            if row[3] == "":
                assert zrow[3] == "0.0" and row[4] == "0"
            else:
                assert row == zrow


def _corrupt_second_line(path: Path, field: int | None, value: str | None) -> None:
    """Replace one field of the first data row, or with value None cut the row to one field.

    With field None the row is repeated on the next line instead, its last
    field set to "1", so the repeat may disagree with the first row.
    """
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    if field is None:
        repeated = lines[1].rstrip("\n").split(",")[:-1] + ["1"]
        lines.insert(2, ",".join(repeated) + "\n")
        path.write_text("".join(lines), encoding="utf-8")
        return
    row = lines[1].rstrip("\n").split(",")
    lines[1] = (row[0] if value is None else ",".join(row[:field] + [value] + row[field + 1:])) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(rtscope.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "rtscope.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _stage_args(stage: str, fixture_dir: Path, out: Path, tweets: Path | None = None) -> list[str]:
    return [
        stage,
        "--tweets", str(tweets or fixture_dir / "tweets.jsonl"),
        "--unreliable-sources", str(fixture_dir / "sources_unreliable.txt"),
        "--reliable-sources", str(fixture_dir / "sources_reliable.txt"),
        "--n-reshuffles", "5",
        "-o", str(out),
    ]


@pytest.fixture(scope="module")
def full_run_dir(fixture_dir, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cached")
    run_pipeline(_config(fixture_dir, out))
    return out


def test_fixture_bundle_digests(full_run_dir):
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in full_run_dir.iterdir()
        if path.name != "manifest.json"
    }
    assert digests == FIXTURE_DIGESTS


class TestCorruptStageCache:
    @pytest.mark.parametrize(
        "stage, cache_file, field, value",
        [
            ("nulltest", "partition.csv", 1, "not-an-int"),
            ("nulltest", "partition.csv", None, "duplicate"),
            ("nulltest", "partition.csv", 1, "-3"),
        ],
    )
    def test_corrupt_cache_exits_2_without_traceback(
        self, fixture_dir, full_run_dir, tmp_path, stage, cache_file, field, value
    ):
        out = tmp_path / "out"
        shutil.copytree(full_run_dir, out)
        _corrupt_second_line(out / cache_file, field, value)
        proc = _run_cli(*_stage_args(stage, fixture_dir, out))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        line = 3 if field is None else 2  # a repeated row is refused where it repeats
        assert f"{cache_file}:{line}:" in proc.stderr


# The stages after `graph`, and every file they write.
LATER_OUTPUTS = [name for name in EXPECTED_ARTIFACTS if name not in (
    "parse_report.json", "columns.npz", "nodes.csv", "edges.csv", "graph_report.json",
    "manifest.json",
)]
LATER_STAGES = ["communities", "scores", "urls", "nulltest", "curves"]


class TestGraphFromColumns:
    """Every stage takes the graph from the checked columns, never from nodes.csv/edges.csv."""

    @pytest.mark.parametrize("damage", ["damaged", "deleted"])
    def test_graph_files_are_never_read_back(self, fixture_dir, full_run_dir, tmp_path, damage):
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(full_run_dir / "columns.npz", out)
        if damage == "damaged":
            for name in ("nodes.csv", "edges.csv"):
                (out / name).write_text("index,author_id\n0,x\nnot,a,row\n", encoding="utf-8")
        config = _config(fixture_dir, out)
        for name in LATER_STAGES:
            run_stage(config, name)
        written = sorted(p.name for p in out.iterdir())
        assert written == sorted(["columns.npz", *LATER_OUTPUTS] + (
            ["edges.csv", "nodes.csv"] if damage == "damaged" else []))
        for name in LATER_OUTPUTS:
            assert (out / name).read_bytes() == (full_run_dir / name).read_bytes(), name

    def test_communities_after_a_new_ingest_sees_the_new_tweets(
        self, fixture_dir, full_run_dir, tmp_path
    ):
        lines = (fixture_dir / "tweets.jsonl").read_bytes().splitlines(keepends=True)
        truncated = tmp_path / "tweets.jsonl"
        truncated.write_bytes(b"".join(lines[: 4 * len(lines) // 5]))
        stale = tmp_path / "stale"
        shutil.copytree(full_run_dir, stale)
        run_stage(_config(fixture_dir, stale, tweets=truncated), "ingest")
        run_stage(_config(fixture_dir, stale, tweets=truncated), "communities")
        fresh = tmp_path / "fresh"
        run_pipeline(_config(fixture_dir, fresh, tweets=truncated))
        report = "communities_report.json"  # its modularity tells the two graphs apart
        assert (fresh / report).read_bytes() != (full_run_dir / report).read_bytes()
        for name in ("partition.csv", "communities_report.json"):
            assert (stale / name).read_bytes() == (fresh / name).read_bytes(), name


# The stages after `scores`, and the files each writes.
AFTER_SCORES = {
    "urls": ["url_report.csv", "url_report_high_bs_ops.csv", "urls_report.json"],
    "nulltest": ["nulltest_u.csv", "nulltest_bs.csv", "nulltest_report.json"],
    "curves": ["curves.csv", "curves_zero_filled.csv", "curve_feature_hist.csv",
               "curves_report.json"],
}


def _wrong_untrustworthiness(path: Path) -> None:
    """A well-formed user_scores.csv whose every untrustworthiness is 0.5."""
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [rows[0]] + [row[:5] + ["0.5"] + row[6:] for row in rows[1:]]
        )


class TestProfilesFromColumns:
    """Every stage computes the user profiles; user_scores.csv is an output only."""

    @pytest.mark.parametrize("damage", ["wrong-values", "malformed", "deleted"])
    def test_user_scores_is_never_read_back(self, fixture_dir, full_run_dir, tmp_path, damage):
        out = tmp_path / "out"
        config = _config(fixture_dir, out)
        for name in ("ingest", "communities"):
            run_stage(config, name)
        if damage == "wrong-values":
            shutil.copy(full_run_dir / "user_scores.csv", out)
            _wrong_untrustworthiness(out / "user_scores.csv")
        elif damage == "malformed":
            (out / "user_scores.csv").write_text("author_id\nnot,a,row\n", encoding="utf-8")
        damaged = (out / "user_scores.csv").read_bytes() if damage != "deleted" else None
        for stage, outputs in AFTER_SCORES.items():
            run_stage(config, stage)
            for name in outputs:
                assert (out / name).read_bytes() == (full_run_dir / name).read_bytes(), name
        if damaged is None:
            assert not (out / "user_scores.csv").exists()
        else:
            assert (out / "user_scores.csv").read_bytes() == damaged

    def test_a_catalog_change_reaches_urls_and_nulltest(self, fixture_dir, full_run_dir, tmp_path):
        lines = (fixture_dir / "sources_unreliable.txt").read_text(encoding="utf-8").splitlines()
        unreliable = tmp_path / "sources_unreliable.txt"
        unreliable.write_text("\n".join(lines[:4]) + "\n", encoding="utf-8")
        fresh = tmp_path / "fresh"
        run_pipeline(_config(fixture_dir, fresh, unreliable_sources=unreliable))
        for name in ("user_scores.csv", "nulltest_u.csv"):
            assert (fresh / name).read_bytes() != (full_run_dir / name).read_bytes(), name
        stale = tmp_path / "stale"
        shutil.copytree(full_run_dir, stale)
        config = _config(fixture_dir, stale, unreliable_sources=unreliable)
        for stage in ("urls", "nulltest"):
            run_stage(config, stage)
            for name in AFTER_SCORES[stage]:
                assert (stale / name).read_bytes() == (fresh / name).read_bytes(), name


def _url_id_past_the_end(arrays):
    arrays["url_ids"][0] = arrays["canonical_offsets"].size - 1


def _decreasing_offsets(arrays):
    arrays["url_ptr"][1] = arrays["url_ptr"][-1] + 1


def _author_out_of_range(arrays):
    arrays["author"][0] = arrays["names_offsets"].size - 1


def _pickled_array(arrays):
    arrays["canonical"] = np.array(["x"] * arrays["canonical"].size, dtype=object)


def _missing_member(arrays):
    del arrays["retweeted"]


def _invalid_utf8_in_canonical(arrays):
    arrays["canonical"][0] = 0xFF


def _canonical_offset_inside_a_character(arrays):
    # The first URL gains a leading "é" (two bytes); its end then moves between them.
    arrays["canonical"] = np.concatenate([np.frombuffer("é".encode(), np.uint8),
                                          arrays["canonical"]])
    arrays["canonical_offsets"][1:] += 2
    arrays["canonical_offsets"][1] = 1


@pytest.fixture(scope="module")
def fuzz_run_dir(full_run_dir, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("fuzz") / "out"
    shutil.copytree(full_run_dir, out)
    return out


def _main_stderr(args: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    return code, err.getvalue()


class TestColumnCache:
    @pytest.mark.parametrize(
        "defect",
        [_url_id_past_the_end, _decreasing_offsets, _author_out_of_range, _pickled_array,
         _missing_member, _invalid_utf8_in_canonical, _canonical_offset_inside_a_character],
    )
    def test_defective_cache_exits_2_naming_it(
        self, fixture_dir, full_run_dir, tmp_path, defect
    ):
        out = tmp_path / "out"
        shutil.copytree(full_run_dir, out)
        with np.load(out / "columns.npz") as data:
            arrays = {key: data[key].copy() for key in data.files}
        defect(arrays)
        np.savez(out / "columns.npz", **arrays)
        proc = _run_cli(*_stage_args("scores", fixture_dir, out))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "columns.npz: invalid column cache" in proc.stderr

    def test_lone_surrogate_in_names_exits_2(self, fixture_dir, full_run_dir, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(full_run_dir, out)
        with np.load(out / "columns.npz") as data:
            arrays = {key: data[key].copy() for key in data.files}
        # The first author name gains the UTF-8-style encoding of U+D800.
        surrogate = np.frombuffer(b"\xed\xa0\x80", np.uint8)
        arrays["names"] = np.concatenate([surrogate, arrays["names"]])
        arrays["names_offsets"][1:] += 3
        np.savez(out / "columns.npz", **arrays)
        proc = _run_cli(*_stage_args("graph", fixture_dir, out))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "columns.npz" in proc.stderr

    def test_changed_tweet_file_is_refused(self, fixture_dir, full_run_dir, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(full_run_dir, out)
        tweets = tmp_path / "tweets.jsonl"
        data = bytearray((fixture_dir / "tweets.jsonl").read_bytes())
        data[len(data) // 2] ^= 1
        tweets.write_bytes(bytes(data))
        proc = _run_cli(*_stage_args("scores", fixture_dir, out, tweets))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "columns.npz" in proc.stderr and "sha256" in proc.stderr

    def test_missing_cache_asks_for_ingest(self, fixture_dir, full_run_dir, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(full_run_dir, out)
        (out / "columns.npz").unlink()
        proc = _run_cli(*_stage_args("graph", fixture_dir, out))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "run the 'ingest' stage first" in proc.stderr

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=st.binary(max_size=4096))
    def test_arbitrary_bytes_exit_2(self, fixture_dir, fuzz_run_dir, payload):
        (fuzz_run_dir / "columns.npz").write_bytes(payload)
        code, err = _main_stderr(_stage_args("scores", fixture_dir, fuzz_run_dir))
        assert code == 2, err
        assert "columns.npz" in err

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(at=st.floats(0.0, 1.0, exclude_max=True), patch=st.binary(min_size=1, max_size=8))
    def test_damaged_cache_exits_0_or_2(self, fixture_dir, full_run_dir, fuzz_run_dir, at, patch):
        data = bytearray((full_run_dir / "columns.npz").read_bytes())
        start = int(at * len(data))
        data[start:start + len(patch)] = patch
        (fuzz_run_dir / "columns.npz").write_bytes(bytes(data))
        code, err = _main_stderr(_stage_args("scores", fixture_dir, fuzz_run_dir))
        assert code in (0, 2), err


class TestConfig:
    def test_file_plus_override(self, fixture_dir, tmp_path):
        config_file = tmp_path / "run.conf"
        config_file.write_text(
            f"""
# run configuration
tweets = {fixture_dir / 'tweets.jsonl'}
unreliable_sources = {fixture_dir / 'sources_unreliable.txt'}
reliable_sources = {fixture_dir / 'sources_reliable.txt'}
min_shares = 10
top_k = 3
""",
            encoding="utf-8",
        )
        values = load_config_file(config_file)
        assert values["min_shares"] == "10"  # raw text; config_from_sources parses it
        config = config_from_sources(values, {"min_shares": "25", "out_dir": str(tmp_path)})
        assert config.min_shares == 25  # CLI override wins
        assert config.top_k == 3
        assert config.tweets == fixture_dir / "tweets.jsonl"

    def test_unknown_key_rejected(self, tmp_path):
        config_file = tmp_path / "run.conf"
        config_file.write_text("frobnicate = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config_file(config_file)

    def test_domain_validation(self):
        with pytest.raises(ConfigError):
            config_from_sources({}, {"success_quantile": "1.5"})
        with pytest.raises(ConfigError):
            config_from_sources({}, {"entropy_low": "0.9", "entropy_high": "0.4"})
        # a non-finite rate would leave the scoring-service client unthrottled
        for rpm in ("0", "nan", "inf"):
            with pytest.raises(ConfigError, match="service_rpm"):
                config_from_sources({}, {"service_rpm": rpm})

    def test_unparsable_file_value_rejected(self, tmp_path):
        config_file = tmp_path / "run.conf"
        config_file.write_text("top_k = many\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="top_k"):
            config_from_sources(load_config_file(config_file))


class TestConfigDeclaration:
    """RunConfig declares each key once; README and the CLI follow it."""

    def test_readme_lists_every_key_in_field_order(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = readme.split("\nConfig keys", 1)[1].split("\n\n", 1)[0]
        key_list = paragraph.split("):", 1)[1].split(".", 1)[0]
        assert tuple(re.findall(r"`([^`]+)`", key_list)) == CONFIG_KEYS

    @pytest.mark.parametrize("command", [*STAGES, "all"])
    def test_every_key_has_help_and_a_flag(self, command):
        parser = cli.build_parser()
        for f in fields(RunConfig):
            assert f.metadata["help"].strip(), f.name
            args = parser.parse_args([command, "--" + f.name.replace("_", "-"), "7"])
            assert getattr(args, f.name) == "7"


class TestCli:
    def test_all_subcommand_exit_zero(self, fixture_dir, tmp_path, capsys):
        code = cli.main(
            [
                "all",
                "--tweets", str(fixture_dir / "tweets.jsonl"),
                "--unreliable-sources", str(fixture_dir / "sources_unreliable.txt"),
                "--reliable-sources", str(fixture_dir / "sources_reliable.txt"),
                "--bot-scores", str(fixture_dir / "bot_scores.csv"),
                "--min-shares", "10",
                "--n-reshuffles", "10",
                "-o", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload["reconciliation"]["consistent"]

    def test_lone_surrogate_record_is_tallied_not_fatal(self, tmp_path):
        reliable, unreliable = "http://n.example/", "http://f.example/"
        records = [
            dict(tweet_id="t1", author_id="a", timestamp=1,
                 urls=[reliable + "1", reliable + "2", unreliable + "3", unreliable + "4"]),
            dict(tweet_id="t2", author_id="b", timestamp=2, retweeted_author_id="a",
                 retweeted_tweet_id="t1", urls=[reliable + "1", reliable + "2", unreliable + "3"]),
            dict(tweet_id="t3", author_id="c", timestamp=3, retweeted_author_id="a",
                 retweeted_tweet_id="t1", urls=[reliable + "1"]),
            dict(tweet_id="t4", author_id="d", timestamp=4,
                 urls=[unreliable + "3", unreliable + "4"]),
            dict(tweet_id="t5", author_id="e", timestamp=5, retweeted_author_id="d",
                 retweeted_tweet_id="t4", urls=[unreliable + "4"]),
        ]
        lines = [json.dumps(r) for r in records]
        lines.append('{"tweet_id":"t6","author_id":"u\\ud800x","timestamp":6,'
                     '"retweeted_author_id":"d","retweeted_tweet_id":"t4"}')
        (tmp_path / "tweets.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (tmp_path / "unreliable.txt").write_text("f.example\n", encoding="utf-8")
        (tmp_path / "reliable.txt").write_text("n.example\n", encoding="utf-8")
        proc = _run_cli(
            "all", "--tweets", str(tmp_path / "tweets.jsonl"),
            "--unreliable-sources", str(tmp_path / "unreliable.txt"),
            "--reliable-sources", str(tmp_path / "reliable.txt"),
            "--min-shares", "1", "--n-reshuffles", "2", "-o", str(tmp_path / "out"),
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        report = json.loads((tmp_path / "out" / "parse_report.json").read_text(encoding="utf-8"))
        assert (report["parsed"], report["malformed"]) == (5, 1)

    @pytest.mark.parametrize("rpm", ["nan", "inf"])
    def test_non_finite_service_rpm_exit_1_before_any_stage(self, fixture_dir, tmp_path, rpm):
        out = tmp_path / "out"
        code, err = _main_stderr([*_stage_args("scores", fixture_dir, out), "--service-rpm", rpm])
        assert code == 1, err
        assert "service_rpm" in err
        assert not out.exists()

    def test_validation_error_exit_1(self, tmp_path, capsys):
        code = cli.main(["all", "--success-quantile", "2.0", "-o", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_input_exit_2(self, tmp_path, capsys):
        code = cli.main(["all", "--tweets", str(tmp_path / "none.jsonl"), "-o", str(tmp_path)])
        assert code == 2

    def test_degenerate_input_exit_3(self, fixture_dir, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = cli.main(
            [
                "all",
                "--tweets", str(empty),
                "--unreliable-sources", str(fixture_dir / "sources_unreliable.txt"),
                "--reliable-sources", str(fixture_dir / "sources_reliable.txt"),
                "-o", str(tmp_path / "out"),
            ]
        )
        assert code == 3

    def test_synth_subcommand(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(FIXTURE_SPEC.to_json(), encoding="utf-8")
        code = cli.main(
            ["synth", "--spec", str(spec_path), "--seed", "5", "-o", str(tmp_path / "synth")]
        )
        assert code == 0
        assert (tmp_path / "synth" / "tweets.jsonl").exists()
        assert (tmp_path / "synth" / "ground_truth.json").exists()

    def test_synth_invalid_spec_exit_1(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(
            json.dumps({"community_sizes": [1], "intra_p": 0.5}), encoding="utf-8"
        )
        code = cli.main(
            ["synth", "--spec", str(spec_path), "--seed", "1", "-o", str(tmp_path / "x")]
        )
        assert code == 1

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
    def test_openblas_threads_default_to_one(self, preset, want):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(rtscope.__file__).parents[1])
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os, rtscope.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == want


class TestNegativeSeeds:
    @pytest.mark.parametrize("flag", ["--louvain-seed", "--null-seed"])
    def test_negative_run_seed_exit_1_before_any_stage(self, fixture_dir, tmp_path, flag):
        out = tmp_path / "out"
        proc = _run_cli(
            "all",
            "--tweets", str(fixture_dir / "tweets.jsonl"),
            "--unreliable-sources", str(fixture_dir / "sources_unreliable.txt"),
            "--reliable-sources", str(fixture_dir / "sources_reliable.txt"),
            flag, "-1",
            "-o", str(out),
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "must be non-negative" in proc.stderr
        assert not out.exists()

    def test_negative_synth_seed_exit_1(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(FIXTURE_SPEC.to_json(), encoding="utf-8")
        out = tmp_path / "synth"
        proc = _run_cli("synth", "--spec", str(spec_path), "--seed", "-1", "-o", str(out))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "must be non-negative" in proc.stderr
        assert not out.exists()
