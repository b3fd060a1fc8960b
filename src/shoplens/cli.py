"""Command-line entry point.

Every pipeline stage is a subcommand; a JSON config file provides the
defaults and any flag given on the command line overrides it. The resolved
config is written into the run directory alongside the artifacts.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import graph as graph_mod
from .pipeline import (STAGES, MissingStageError, PipelineConfig, emit_plot_data,
                       run_all, run_stage)


def _base_config(args) -> PipelineConfig:
    paths = {name: getattr(args, flag, None)
             for name, flag in (("input_path", "input"), ("output_dir", "out"))}
    paths = {name: value for name, value in paths.items() if value}
    if not args.config and not paths:
        raise SystemExit("either --config or --input/--out is required")
    cfg = replace(PipelineConfig.load(args.config) if args.config else PipelineConfig(),
                  **paths)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed,
                      lasso=replace(cfg.lasso, seed=None),
                      nmf=replace(cfg.nmf, seed=None))
    return cfg


# Config overrides: (flag, config section, field, argparse kwargs, the
# subcommands that take the flag). The argparse dest is the flag's name.
_OVERRIDES = [
    ("--encoding", "ingest", "encoding", {}, ("ingest",)),
    ("--cancellation-prefix", "ingest", "cancellation_prefix", {}, ("ingest",)),
    ("--min-purchases", "ingest", "frequent_min_purchases", {"type": int}, ("ingest",)),
    ("--wholesale-threshold", "ingest", "wholesale_quantity_threshold", {"type": int},
     ("ingest",)),
    ("--w-recency", "rfm", "w_recency", {"type": float}, ("rfm",)),
    ("--w-frequency", "rfm", "w_frequency", {"type": float}, ("rfm",)),
    ("--w-monetary", "rfm", "w_monetary", {"type": float}, ("rfm",)),
    ("--alpha-grid", "lasso", "alpha_grid", {"type": float, "nargs": "+"},
     ("select-features", "run-all")),
    ("--folds", "lasso", "folds", {"type": int}, ("select-features", "run-all")),
    ("--slack", "lasso", "slack", {"type": float}, ("select-features", "run-all")),
    ("--k-min", "nmf", "k_min", {"type": int}, ("grid-search", "run-all")),
    ("--k-max", "nmf", "k_max", {"type": int}, ("grid-search", "run-all")),
    ("--k", "nmf", "k", {"type": int, "help": "latent dimension (skips grid best)"},
     ("factorize",)),
    ("--alpha-m", "nmf", "alpha_m", {"type": float}, ("factorize",)),
    ("--l1-ratio", "nmf", "l1_ratio", {"type": float}, ("factorize",)),
    ("--min-cluster-size", "cluster", "min_cluster_size", {"type": int},
     ("cluster", "run-all")),
    ("--row-normalize", "cluster", "row_normalize", {"action": "store_true"},
     ("cluster", "run-all")),
    ("--threshold", "graph", "affinity_threshold",
     {"type": float, "help": "minimum affinity edge weight"}, ("export-graph",)),
]


def _apply_overrides(cfg: PipelineConfig, args) -> PipelineConfig:
    sections: dict[str, dict] = {}
    for flag, section, name, _, _ in _OVERRIDES:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None or value is False:  # not given (False: store_true)
            continue
        over = sections.setdefault(section, {})
        over[name] = tuple(value) if isinstance(value, list) else value
        if name == "k":
            over["use_grid_best"] = False
    for section, over in sections.items():
        cfg = replace(cfg, **{section: replace(getattr(cfg, section), **over)})
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shoplens",
        description="Frequent-shopper characterization pipeline")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="global seed applied to every stage")
    sub = parser.add_subparsers(dest="command", required=True)

    subcommands = [(name, stage.help) for name, stage in STAGES.items()]
    for stage, help_text in subcommands + [("run-all", "run every stage in order")]:
        p = sub.add_parser(stage, help=help_text)
        p.add_argument("--input", help="invoice-line CSV (ingest input)")
        p.add_argument("--out", help="run directory")
        for flag, _, _, kwargs, stages in _OVERRIDES:
            if stage in stages:
                p.add_argument(flag, **kwargs)

    p = sub.add_parser("query-similar", help="rank nodes by embedding similarity")
    p.add_argument("--out", help="run directory", required=False)
    p.add_argument("--node", required=True)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--graph", choices=["purchase", "affinity"], default="affinity")

    p = sub.add_parser("plot-data", help="emit plot-ready data for a figure")
    p.add_argument("--out", help="run directory", required=False)
    p.add_argument("--kind", required=True)
    p.add_argument("--file", required=True, help="output file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    try:
        if args.command == "query-similar":
            graph_dir = Path(_base_config(args).output_dir) / "graph"
            paths = [graph_dir / f"{args.graph}_{part}.jsonl" for part in ("nodes", "edges")]
            for path in paths:
                if not path.is_file():
                    raise MissingStageError("export-graph", path)
            doc = graph_mod.import_jsonl(*paths)
            for node_id, score in graph_mod.similar_nodes(doc, args.node, args.top):
                print(f"{node_id}\t{score:.6f}")
            return 0

        if args.command == "plot-data":
            cfg = _base_config(args)
            path = emit_plot_data(cfg.output_dir, args.kind, args.file)
            print(f"wrote {path}")
            return 0

        cfg = _apply_overrides(_base_config(args), args)
        entries = (run_all(cfg) if args.command == "run-all"
                   else [run_stage(args.command, cfg)])
        for entry in entries:
            print(f"[{entry['name']}] {json.dumps(entry['metrics'], sort_keys=True)}")
        return 0
    except MissingStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
