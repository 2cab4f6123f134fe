"""End-to-end pipeline runs, stage-wise runs, config handling, exit codes."""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rtscope
from rtscope import cli
from rtscope.errors import ConfigError
from rtscope.pipeline import (
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


EXPECTED_ARTIFACTS = [
    "parse_report.json",
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

    With field None the row is repeated on the next line instead.
    """
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    if field is None:
        lines.insert(2, lines[1])
        path.write_text("".join(lines), encoding="utf-8")
        return
    row = lines[1].rstrip("\n").split(",")
    lines[1] = (row[0] if value is None else ",".join(row[:field] + [value] + row[field + 1:])) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


@pytest.fixture(scope="module")
def full_run_dir(fixture_dir, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cached")
    run_pipeline(_config(fixture_dir, out))
    return out


class TestCorruptStageCache:
    @pytest.mark.parametrize(
        "stage, cache_file, field, value",
        [
            ("nulltest", "user_scores.csv", 4, "not-a-float"),
            ("nulltest", "user_scores.csv", 5, "nan"),
            ("nulltest", "partition.csv", 1, "not-an-int"),
            ("communities", "nodes.csv", 0, None),
            ("communities", "edges.csv", 2, "not-an-int"),
            ("communities", "edges.csv", None, "duplicate"),
        ],
    )
    def test_corrupt_cache_exits_2_without_traceback(
        self, fixture_dir, full_run_dir, tmp_path, stage, cache_file, field, value
    ):
        out = tmp_path / "out"
        shutil.copytree(full_run_dir, out)
        _corrupt_second_line(out / cache_file, field, value)
        env = dict(os.environ, PYTHONPATH=str(Path(rtscope.__file__).parents[1]))
        proc = subprocess.run(
            [
                sys.executable, "-m", "rtscope.cli", stage,
                "--tweets", str(fixture_dir / "tweets.jsonl"),
                "--unreliable-sources", str(fixture_dir / "sources_unreliable.txt"),
                "--reliable-sources", str(fixture_dir / "sources_reliable.txt"),
                "--n-reshuffles", "5",
                "-o", str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        line = 3 if field is None else 2  # a repeated row is refused where it repeats
        assert f"{cache_file}:{line}:" in proc.stderr


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
        with pytest.raises(ConfigError):
            config_from_sources({}, {"service_rpm": "0"})


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
