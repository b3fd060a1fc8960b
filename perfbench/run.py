"""shoplens benchmark: generate a workload from a seed, run the shoplens CLI
on it in child processes, check the outputs, and print the metrics.

    python3 perfbench/run.py --workload {paper,grid,crowd} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a shoplens checkout; the program under test is
``src/shoplens`` of that checkout, imported from source. Every line but the
last is a JSON record of the environment and the samples; the last line is
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1`` they
are the per-layer ones from runs under ``tracer.py``, interleaved with
untraced runs so the tracing overhead is measured too. See NOTES.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402  (sibling module of this script)

# BLAS/OpenMP threads for every child. One thread keeps timings steady on a
# small shared host; the value is reported with the results.
THREADS = 1
# setup_s samples taken before each repetition, so that they spread over the
# run the way the repetitions do.
SETUP_SAMPLES = 2
# Untimed first child: loads the CLI and the module select-features imports
# lazily, so the file cache and bytecode are warm before anything is timed.
WARM_UP = "import shoplens.cli, scipy.stats"
RUN_LIMIT_S = 170.0   # every run, child processes included, ends before this
STAGES = ["ingest", "rfm", "select-features", "grid-search", "factorize",
          "cluster", "export-graph"]
INGEST_CHECKED = ["parsed_lines", "rejected_rows", "clean_transactions",
                  "registered_customers", "frequent_shoppers", "matrix_rows",
                  "matrix_cols", "matrix_nnz"]

# Pinned pipeline configs. The CV paths are short but their small end still
# reaches alphas whose fits stop at max_iter, so unconverged fits stay visible.
WORKLOADS = {
    "paper": {
        "input": "invoices",
        "stages": STAGES,
        "config": {
            "seed": 42,
            "lasso": {"grid_size": 8, "grid_lo_ratio": 0.03, "folds": 3,
                      "max_iter": 300},
            # m' varies from 2 to ~100 across seeds, so k = 1 keeps every
            # cell valid (a cell with k > m' is recorded as failed).
            "nmf": {"k_min": 1, "k_max": 1, "alpha_grid": [0.0, 0.5, 1.0, 2.0],
                    "l1_grid": [0.0, 0.5], "max_iter": 200},
        },
    },
    "grid": {
        "input": "p_prime",
        "stages": ["grid-search", "factorize", "cluster", "export-graph"],
        "config": {
            "seed": 42,
            # The paper's alpha_m x l1_ratio grid (the pipeline defaults).
            "nmf": {"k_min": 2, "k_max": 5, "alpha_grid": [0.0, 0.1, 0.5, 1.0, 2.0],
                    "l1_grid": [0.0, 0.1, 0.5, 0.9, 1.0], "max_iter": 50},
        },
    },
    "crowd": {
        "input": "invoices",
        "stages": STAGES,
        "config": {
            "seed": 42,
            "lasso": {"grid_size": 4, "grid_lo_ratio": 0.3, "folds": 3,
                      "max_iter": 300},
            "nmf": {"k_min": 4, "k_max": 4, "alpha_grid": [0.0, 1.0],
                    "l1_grid": [0.0], "max_iter": 50},
        },
    },
}


def log(record: dict) -> None:
    print(json.dumps(record, sort_keys=True), flush=True)


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas_threads": THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


class Child:
    """One child process: wall time, exit code, and its own peak RSS and CPU
    time from wait4, which, unlike RUSAGE_CHILDREN, covers only this child."""

    def __init__(self, argv, env, log_path: Path, timeout: float):
        self.argv = argv
        self.timed_out = False
        start = time.perf_counter()
        with open(log_path, "wb") as out:
            proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.1), self._kill, (proc,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0     # KiB on Linux
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.log_path = log_path

    def _kill(self, proc) -> None:
        self.timed_out = True
        proc.kill()

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.timed_out

    def tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-600:]


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(THREADS)
        self.env["PYTHONHASHSEED"] = "0"
        self.children = 0

    # ---------------------------------------------------------- inputs ----
    def prepare(self) -> dict:
        t = time.perf_counter()
        config = dict(self.spec["config"], input_path="", output_dir="")
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        if self.spec["input"] == "invoices":
            self.input_path = self.work / "invoices.csv"
            self.calibration = gen.write_invoices(self.input_path, self.name, self.seed)
        else:
            self.input_path = self.work / "seed_run"
            self.calibration = gen.write_p_prime(self.input_path, self.seed)
        self.gen_s = time.perf_counter() - t
        return self.calibration

    def commands(self, run_dir: Path) -> list[list[str]]:
        base = ["--config", str(self.config_path)]
        if self.spec["input"] == "invoices":
            return [base + ["run-all", "--input", str(self.input_path),
                            "--out", str(run_dir)]]
        return [base + [stage, "--out", str(run_dir)] for stage in self.spec["stages"]]

    # --------------------------------------------------------- children ----
    def child(self, argv) -> Child:
        self.children += 1
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        return Child([sys.executable] + argv, self.env,
                     self.work / f"child{self.children}.log", remaining)

    def setup_samples(self, count: int, code: str = "import shoplens.cli") -> list[float]:
        """Wall times of ``count`` fresh interpreters running ``code``."""
        samples = []
        for _ in range(count):
            c = self.child(["-c", code])
            if not c.ok:
                raise RuntimeError(f"{code!r} failed:\n{c.tail()}")
            samples.append(c.wall_s)
        return samples

    def iteration(self, index: int, traced: bool) -> dict:
        run_dir = self.work / f"run{index}"
        if self.spec["input"] == "p_prime":
            shutil.copytree(self.input_path, run_dir)
        result = {"traced": traced, "wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0,
                  "errors": [], "spans": []}
        for n, args in enumerate(self.commands(run_dir)):
            if traced:
                spans_path = self.work / f"spans{index}_{n}.json"
                argv = [str(BENCH_DIR / "tracer.py"), "--spans", str(spans_path),
                        "--run-id", f"{self.name}-{self.seed}-{index}", "--"] + args
            else:
                argv = ["-m", "shoplens"] + args
            c = self.child(argv)
            result["wall_s"] += c.wall_s
            result["cpu_s"] += c.cpu_s
            result["rss_mb"] = max(result["rss_mb"], c.rss_mb)
            if not c.ok:
                why = "timed out" if c.timed_out else f"exit {c.code}"
                result["errors"].append(f"{args[2]}: {why}: {c.tail()}")
                break
            if traced:
                try:
                    doc = json.loads(spans_path.read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    result["errors"].append(f"{args[2]}: no span file: {exc!r}")
                    break
                result["errors"] += trace_errors(doc)
                result["spans"].append(doc)
        if not result["errors"]:
            try:
                self.check(run_dir, result)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                result["errors"].append(f"output check: {exc!r}")
        shutil.rmtree(run_dir, ignore_errors=True)
        return result

    # ----------------------------------------------------------- checks ----
    def check(self, run_dir: Path, result: dict) -> None:
        errors = result["errors"]
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        entries = {s["name"]: s for s in manifest["stages"]}
        if [s["name"] for s in manifest["stages"]] != self.spec["stages"]:
            errors.append(f"manifest stages {list(entries)} != {self.spec['stages']}")
            return
        digests = {}
        for entry in manifest["stages"]:
            for rel, digest in entry["outputs"].items():
                if _sha256(run_dir / rel) != digest:
                    errors.append(f"{rel}: digest differs from the manifest")
                digests[rel] = digest
        result["digests"] = digests

        cal = self.calibration
        if "ingest" in entries:
            got = entries["ingest"]["metrics"]
            for key in INGEST_CHECKED:
                if got[key] != cal[key]:
                    errors.append(f"ingest {key} = {got[key]}, generator says {cal[key]}")
            m_prime = entries["select-features"]["metrics"]["m_prime"]
            result["holdout_mse"] = entries["select-features"]["metrics"]["holdout_mse_selected"]
        else:
            m_prime = cal["items"]
        rows = cal["frequent_shoppers"]
        nmf = self.spec["config"]["nmf"]
        cells = ((nmf["k_max"] - nmf["k_min"] + 1) * len(nmf["alpha_grid"])
                 * len(nmf["l1_grid"]))
        grid = entries["grid-search"]["metrics"]
        if _rows(run_dir / "grid-search/grid.csv") != cells or grid["failed_cells"]:
            errors.append(f"grid-search: expected {cells} cells and no failures")
        result["imputation_mse"] = grid["best_mse"]
        result["outputs"] = {"m_prime": m_prime, "k": entries["factorize"]["metrics"]["k"],
                             "n_clusters": entries["cluster"]["metrics"]["n_clusters"],
                             "imputation_mse": grid["best_mse"],
                             "holdout_mse": result.get("holdout_mse")}
        if _rows(run_dir / "factorize/W.csv") != rows:
            errors.append("factorize: W does not have one row per shopper")
        if _rows(run_dir / "cluster/labels.csv") != rows:
            errors.append("cluster: labels do not cover every shopper")
        graph = entries["export-graph"]["metrics"]
        k = result["outputs"]["k"]
        if graph["purchase_nodes"] != rows + m_prime or graph["affinity_nodes"] != rows + k:
            errors.append(f"export-graph: node counts {graph}")


# ------------------------------------------------------------- metrics ----

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> int:
    with open(path, "rb") as f:
        return sum(1 for _ in f) - 1


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


# Names bound by ``from ... import`` that the tracer must wrap where they are
# looked up, and per-element helpers it must leave alone.
MUST_PATCH = {"shoplens.pipeline.write_csv", "shoplens.ingest.write_csv",
              "shoplens.pipeline.read_csv", "shoplens.pipeline.file_digest",
              "shoplens.cli.run_stage"}
MUST_NOT_PATCH = {"shoplens._fmt.fmt_float", "shoplens.pipeline.fmt_float",
                  "shoplens.lasso._soft_threshold"}


def trace_errors(doc: dict) -> list[str]:
    """Tracer invariants: wrapping, restoring, and span nesting."""
    errors = []
    patched = set(doc["patched"])
    if MUST_PATCH - patched or MUST_NOT_PATCH & patched:
        errors.append(f"tracer wrapped the wrong names: missing "
                      f"{sorted(MUST_PATCH - patched)}, extra {sorted(MUST_NOT_PATCH & patched)}")
    if not doc["restored"]:
        errors.append("tracer did not restore the original functions")
    spans = doc["spans"]
    for s in spans:
        parent = spans[s["parent"]] if s["parent"] is not None else None
        if s["end"] < s["start"] or parent and not (
                parent["start"] <= s["start"] and s["end"] <= parent["end"]):
            errors.append(f"span {s['name']} is not nested in its parent")
            break
    return errors


def layer_metrics(docs: list[dict]) -> dict:
    """Per-layer numbers from the span files of one traced iteration."""
    spans = [s for doc in docs for s in doc["spans"]]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def dur(*names) -> float:
        return sum(s["end"] - s["start"] for n in names for s in by_name[n])

    def total(name, key) -> float:
        return sum(s.get(key, 0) for s in by_name[name])

    layer_busy = {}
    for layer in ("ingest", "rfm", "lasso", "nmf", "cluster", "graph", "fmt"):
        layer_busy[layer] = sum(
            _union([(s["start"], s["end"]) for s in doc["spans"]
                    if s["name"].split(".")[0] == layer]) for doc in docs)

    m = {}
    self_time = 0.0
    for doc in docs:
        kids = defaultdict(list)
        for s in doc["spans"]:
            if s["parent"] is not None:
                kids[s["parent"]].append((s["start"], s["end"]))
        for s in doc["spans"]:
            if s["name"] == "pipeline.run_stage":
                self_time += (s["end"] - s["start"]) - _union(kids[s["id"]])
    for stage in STAGES:
        runs = [s for s in by_name["pipeline.run_stage"] if s.get("stage") == stage]
        m[f"pipeline.{stage}_s"] = sum(s["end"] - s["start"] for s in runs)
        m[f"pipeline.{stage}.rss_hwm_mb"] = max((s["rss_hwm_mb"] for s in runs), default=0.0)
    m["pipeline.self_s"] = self_time

    m.update({
        "ingest.parse_s": dur("ingest.parse_invoice_csv"),
        "ingest.lines": total("ingest.parse_invoice_csv", "lines"),
        "ingest.rejects": total("ingest.parse_invoice_csv", "rejects"),
        "ingest.clean_s": dur("ingest.clean_transactions"),
        "ingest.segment_s": dur("ingest.segment_customers"),
        "ingest.matrix_s": dur("ingest.build_incidence_matrix"),
        "ingest.write_s": dur("ingest.write_matrix", "ingest.write_rejects",
                              "ingest.write_transactions", "ingest.write_segments"),
        "ingest.read_s": dur("ingest.read_transactions", "ingest.read_segments",
                             "ingest.read_matrix"),
        "ingest.matrix_nnz": total("ingest.build_incidence_matrix", "nnz"),
        "rfm.score_s": dur("rfm.score_customers"),
        "rfm.boxcox_s": dur("rfm.boxcox_lambda_mle"),
        "rfm.customers": total("rfm.score_customers", "customers"),
    })

    fits = by_name["lasso.fit_lasso"]
    converged = sum(1 for s in fits if s["converged"])
    m.update({
        "lasso.standardize_s": dur("lasso.standardize"),
        "lasso.cv_s": dur("lasso.cross_validate_alpha"),
        "lasso.fit_s": dur("lasso.fit_lasso"),
        "lasso.fits": len(fits),
        "lasso.sweeps": total("lasso.fit_lasso", "n_iter"),
        "lasso.unconverged_fits": len(fits) - converged,
        "lasso.converged_ratio": converged / len(fits) if fits else 0.0,
        "lasso.drop_s": dur("lasso.drop_experiment"),
        "lasso.diagnostics_s": dur("lasso.residual_diagnostics"),
        "lasso.support": total("lasso.drop_experiment", "support"),
    })

    nmf_fits = by_name["nmf.fit_nmf"]
    nmf_durations = sorted(s["end"] - s["start"] for s in nmf_fits)
    nmf_converged = sum(1 for s in nmf_fits if s["converged"])
    m.update({
        "nmf.grid_s": dur("nmf.grid_search"),
        "nmf.fit_s": sum(nmf_durations),
        "nmf.fits": len(nmf_fits),
        "nmf.iterations": total("nmf.fit_nmf", "n_iter"),
        "nmf.unconverged_fits": len(nmf_fits) - nmf_converged,
        "nmf.converged_ratio": nmf_converged / len(nmf_fits) if nmf_fits else 0.0,
        "nmf.failed_cells": total("nmf.grid_search", "failed"),
        "nmf.fit_s_p50": statistics.median(nmf_durations) if nmf_durations else 0.0,
        "nmf.fit_s_max": nmf_durations[-1] if nmf_durations else 0.0,
        "nmf.mask_s": dur("nmf.make_holdout_mask"),
        "nmf.impute_s": dur("nmf.imputation_mse"),
        "nmf.profile_s": dur("nmf.normalize_dictionary", "nmf.top_items_per_element"),
        "cluster.rows_s": dur("cluster.cluster_rows"),
        "cluster.core_s": dur("cluster.core_distances"),
        "cluster.mst_s": dur("cluster.mutual_reachability_mst"),
        "cluster.extract_s": dur("cluster.extract_clusters"),
        "cluster.points": total("cluster.cluster_rows", "points"),
        "cluster.n_clusters": total("cluster.cluster_rows", "n_clusters"),
        "cluster.peak_mb": max((s["peak_mb"] for s in by_name["cluster.cluster_rows"]),
                               default=0.0),
        "graph.build_s": dur("graph.build_purchase_graph", "graph.build_affinity_graph"),
        "graph.embed_s": dur("graph.attach_embeddings"),
        "graph.jsonl_s": dur("graph.export_jsonl"),
        "graph.graphml_s": dur("graph.export_graphml"),
        "graph.nodes": total("graph.attach_embeddings", "nodes"),
        "graph.edges": total("graph.attach_embeddings", "edges"),
        "fmt.write_csv_s": dur("fmt.write_csv"),
        "fmt.read_csv_s": dur("fmt.read_csv"),
        "fmt.digest_s": dur("fmt.file_digest"),
        "fmt.bytes_written": sum(total(n, "bytes") for n in
                                 ("fmt.write_csv", "fmt.dump_json", "fmt.dump_jsonl")),
        "trace.spans": len(spans),
    })
    for layer, seconds in layer_busy.items():
        m[f"{layer}.busy_s"] = seconds
    return m


def median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="shoplens benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # A terminated benchmark unwinds normally, so the running child is killed
    # and reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "shoplens" / "cli.py").is_file():
        print(f"error: {root} holds no shoplens source (src/shoplens); run the "
              "benchmark from the root of a shoplens checkout", file=sys.stderr)
        return 2

    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        return measure(Bench(root, args.workload, args.seed, work), args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(bench: Bench, args) -> int:
    calibration = bench.prepare()
    log({"environment": environment(), "workload": args.workload, "seed": args.seed,
         "calibration": calibration, "generate_s": bench.gen_s})
    setup, iterations, elapsed = [], [], 0.0
    try:
        bench.setup_samples(1, WARM_UP)
        while True:
            if not args.trace:
                setup += bench.setup_samples(SETUP_SAMPLES)
            started = time.perf_counter()
            iterations.append(bench.iteration(len(iterations), traced=False))
            if args.trace:
                iterations.append(bench.iteration(len(iterations), traced=True))
            elapsed += time.perf_counter() - started
            rounds = len(iterations) // (2 if args.trace else 1)
            # Repeat while the next repetition would end mostly inside the
            # window; at least twice untraced, so repeats can be compared.
            enough = args.trace or rounds >= 2
            if any(it["errors"] for it in iterations) or (
                    enough and elapsed + 0.5 * elapsed / rounds > args.seconds):
                break
    except RuntimeError as exc:
        log({"errors": [str(exc)]})
        print(json.dumps({"correct": False, "attempted": len(iterations) + 1,
                          "failed": 1, "metrics": {}}))
        return 0

    errors = [e for it in iterations for e in it["errors"]]
    reference = iterations[0].get("digests")
    for i, it in enumerate(iterations[1:], start=1):
        if not it["errors"] and it.get("digests") != reference:
            kind = "traced" if it["traced"] else "repeated"
            it["errors"].append(f"{kind} run {i} artifacts differ from run 0")
            errors.append(it["errors"][-1])
    failed = sum(1 for it in iterations if it["errors"])
    attempted = len(iterations)
    plain = [it for it in iterations if not it["traced"]]

    log({"samples": {"setup_s": setup, "wall_s": [it["wall_s"] for it in iterations],
                     "traced": [it["traced"] for it in iterations],
                     "rss_mb": [it["rss_mb"] for it in iterations]},
         "outputs": iterations[0].get("outputs"),
         "fail_rate": failed / attempted, "errors": errors[:5]})
    if failed:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 0

    if not args.trace:
        metrics = {
            "wall_s": statistics.median(it["wall_s"] for it in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(it["rss_mb"] for it in plain),
        }
    else:
        traced = [it for it in iterations if it["traced"]]
        layers = median_of([layer_metrics(it["spans"]) for it in traced])
        traced_wall = statistics.median(it["wall_s"] for it in traced)
        plain_wall = statistics.median(it["wall_s"] for it in plain)
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead"] = traced_wall / plain_wall - 1.0
        layers["process.cpu_s"] = statistics.median(it["cpu_s"] for it in plain)
        layers["lasso.holdout_mse"] = plain[0].get("holdout_mse", 0.0)
        layers["nmf.best_mse"] = plain[0]["imputation_mse"]
        metrics = layers
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    raise SystemExit(main())
