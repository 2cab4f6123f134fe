"""Command-line interface: one subcommand per pipeline stage plus `synth` and `all`."""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

# rtscope calls no BLAS routine, so one OpenBLAS thread spares the CPU that
# more threads burn when numpy is imported, as the next import does. A value
# set by the user still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from rtscope import pipeline
from rtscope.errors import ToolkitError

_STAGES = (*pipeline.STAGES, "all")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="flat key = value config file")
    for f in fields(pipeline.RunConfig):
        flags = ["--" + f.name.replace("_", "-")]
        if f.name == "out_dir":
            flags.insert(0, "-o")
        parser.add_argument(*flags, dest=f.name, default=None, help=f.metadata["help"])


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
    overrides = {key: getattr(args, key) for key in pipeline.CONFIG_KEYS}
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
