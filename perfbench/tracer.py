"""Outside-in span tracer for the shoplens CLI.

Run as ``python3 perfbench/tracer.py --spans FILE --run-id ID -- <shoplens
args>``: it imports the CLI, wraps the public functions of each pipeline
module listed in ``TRACED`` from here (nothing under ``src/`` changes), runs
the command, restores the originals and writes every span to FILE.

A span records its name, start, end, parent span and the run id, plus any
counters read from the call's arguments or result. Spans stay in memory until
the command ends. A function imported with ``from ... import`` is wrapped in
every module that holds a reference to it, because that is where the call
looks it up. Per-element helpers (``UNWRAPPED``) are called millions of times
and are never wrapped: their cost stays inside their caller's span.
"""

import argparse
import functools
import importlib
import json
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path


def _len_pair(_args, _kwargs, result):
    lines, rejects = result
    return {"lines": len(lines), "rejects": len(rejects)}


def _stage_rss(args, kwargs, _result):
    stage = args[0] if args else kwargs["name"]
    # ru_maxrss is in KiB on Linux: the process high-water mark so far.
    return {"stage": stage,
            "rss_hwm_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _bytes_written(args, kwargs, _result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _solver(_args, _kwargs, result):
    return {"n_iter": int(result.n_iter), "converged": bool(result.converged)}


# (module, function, counters read after the call); span name is
# "<layer>.<function>" with the layer named after the module.
TRACED = [
    ("pipeline", "run_stage", _stage_rss),
    ("ingest", "parse_invoice_csv", _len_pair),
    ("ingest", "clean_transactions", None),
    ("ingest", "segment_customers", None),
    ("ingest", "build_incidence_matrix", lambda a, k, r: {"nnz": r.nnz}),
    ("ingest", "write_matrix", None),
    ("ingest", "write_rejects", None),
    ("ingest", "write_transactions", None),
    ("ingest", "write_segments", None),
    ("ingest", "read_transactions", None),
    ("ingest", "read_segments", None),
    ("ingest", "read_matrix", None),
    ("rfm", "score_customers", lambda a, k, r: {"customers": len(r[0])}),
    ("rfm", "boxcox_lambda_mle", None),
    ("lasso", "standardize", None),
    ("lasso", "cross_validate_alpha", None),
    ("lasso", "fit_lasso", _solver),
    ("lasso", "drop_experiment", lambda a, k, r: {"support": len(r.support)}),
    ("lasso", "residual_diagnostics", None),
    ("nmf", "grid_search", lambda a, k, r: {"failed": len(r.failures)}),
    ("nmf", "fit_nmf", _solver),
    ("nmf", "make_holdout_mask", None),
    ("nmf", "imputation_mse", None),
    ("nmf", "normalize_dictionary", None),
    ("nmf", "top_items_per_element", None),
    ("cluster", "cluster_rows", lambda a, k, r: {"points": len(r.labels),
                                                 "n_clusters": r.n_clusters}),
    ("cluster", "core_distances", None),
    ("cluster", "mutual_reachability_mst", None),
    ("cluster", "extract_clusters", None),
    ("graph", "build_purchase_graph", None),
    ("graph", "build_affinity_graph", None),
    ("graph", "attach_embeddings", lambda a, k, r: {"nodes": len(r.nodes),
                                                    "edges": len(r.edges)}),
    ("graph", "export_jsonl", None),
    ("graph", "export_graphml", None),
    ("_fmt", "write_csv", _bytes_written),
    ("_fmt", "dump_json", _bytes_written),
    ("_fmt", "dump_jsonl", _bytes_written),
    ("_fmt", "read_csv", None),
    ("_fmt", "file_digest", None),
]

# Functions whose peak traced memory is recorded (tracemalloc) as "peak_mb".
MEMORY_TRACED = {("cluster", "cluster_rows")}

UNWRAPPED = {("_fmt", "fmt_float"), ("lasso", "_soft_threshold")}


class Tracer:
    """In-memory span recorder that patches functions and undoes it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counters, memory: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            if memory:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if memory:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
            if counters is not None:
                span.update(counters(args, kwargs, result))
            return result
        return wrapper

    def install(self, package: str = "shoplens") -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for module_name, func_name, counters in TRACED:
            if (module_name, func_name) in UNWRAPPED:
                raise ValueError(f"{module_name}.{func_name} must stay unwrapped")
            home = importlib.import_module(f"{package}.{module_name}")
            original = getattr(home, func_name)
            layer = module_name.lstrip("_")
            wrapper = self._wrap(f"{layer}.{func_name}", original, counters,
                                 (module_name, func_name) in MEMORY_TRACED)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def patched(self) -> list[str]:
        return sorted(f"{m.__name__}.{attr}" for m, attr, _ in self._patches)

    def restore(self) -> bool:
        """Put every original back; True when each one is in place again."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        restored = all(getattr(m, attr) is original for m, attr, original in self._patches)
        self._patches.clear()
        return restored


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run the shoplens CLI traced")
    parser.add_argument("--spans", required=True, help="output JSON file")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from shoplens import cli

    tracer = Tracer(args.run_id)
    tracer.install()
    patched = tracer.patched()
    try:
        code = cli.main(cli_args)
    finally:
        restored = tracer.restore()
        Path(args.spans).write_text(json.dumps(
            {"run": args.run_id, "argv": cli_args, "patched": patched,
             "restored": restored, "spans": tracer.spans}), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
