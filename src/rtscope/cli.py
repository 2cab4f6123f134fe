"""Command-line interface: one subcommand per pipeline stage plus `synth` and `all`."""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from rtscope import pipeline
from rtscope.errors import ToolkitError

_FLAG_HELP = {
    "tweets": "line-delimited tweet record file",
    "unreliable_sources": "blacklist of unreliable domains, one per line",
    "reliable_sources": "whitelist of reliable domains, one per line",
    "bot_scores": "CSV of user_id,bot_score",
    "service_endpoint": "HTTP endpoint of a bot-scoring service",
    "service_token_env": "environment variable holding the service token",
    "service_rpm": "scoring-service requests per minute",
    "service_cache_dir": "on-disk cache directory for fetched scores",
    "louvain_seed": "seed for the community-detection sweep order",
    "null_seed": "seed for null-model reshuffles",
    "n_reshuffles": "number of pooled reshuffles in the null model",
    "top_k": "how many largest communities to report (RT1..RTk)",
    "min_shares": "keep URLs shared strictly more than this many times",
    "entropy_low": "upper bound of the low entropy class",
    "entropy_high": "upper bound of the medium entropy class",
    "success_quantile": "retweet-count quantile defining success",
    "op_bs_cutoff": "OP bot-score cutoff for the high-BS URL report",
    "curve_points": "number of thresholds on each success curve",
    "out_dir": "output directory for all artifacts",
}

_STAGES = (*pipeline.STAGES, "all")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="flat key = value config file")
    for key, help_text in _FLAG_HELP.items():
        flag = "--" + key.replace("_", "-")
        if key == "out_dir":
            parser.add_argument("-o", flag, dest=key, default=None, help=help_text)
        else:
            parser.add_argument(flag, dest=key, default=None, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtscope",
        description=(
            "Reconstruct a retweet network, detect its communities, and measure "
            "how unreliable content and bot activity shape URL diffusion."
        ),
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _STAGES:
        stage_parser = sub.add_parser(name, help=f"run the {name} stage")
        _add_config_flags(stage_parser)

    synth_parser = sub.add_parser("synth", help="generate a synthetic scenario")
    synth_parser.add_argument("--spec", type=Path, required=True, help="JSON scenario spec")
    synth_parser.add_argument("--seed", type=int, default=0)
    synth_parser.add_argument("-o", "--out-dir", type=Path, required=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> pipeline.RunConfig:
    file_values = pipeline.load_config_file(args.config) if args.config else {}
    overrides = {key: getattr(args, key) for key in _FLAG_HELP if getattr(args, key) is not None}
    return pipeline.config_from_sources(file_values, overrides)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING if args.verbose == 0 else (
        logging.INFO if args.verbose == 1 else logging.DEBUG
    )
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        if args.command == "synth":
            result = pipeline.stage_synth(args.spec, args.seed, args.out_dir)
        else:
            config = _config_from_args(args)
            if args.command == "all":
                result = pipeline.run_pipeline(config)
            else:
                result = pipeline.run_stage(config, args.command)
        print(json.dumps(result, indent=2, sort_keys=True, default=str))
        return 0
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
