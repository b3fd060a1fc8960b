"""Stage orchestration: one configuration drives the whole pipeline, every
stage reads and writes plain files under a run directory, and a manifest
records digests, timings, and achieved metrics per stage.

All randomness flows from the seeds recorded in the (canonicalized) config,
so re-running a stage with the same config and inputs reproduces its output
files byte for byte.
"""

import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import cluster as cluster_mod
from . import graph as graph_mod
from . import ingest as ingest_mod
from . import lasso as lasso_mod
from . import nmf as nmf_mod
from . import rfm as rfm_mod
from ._fmt import dump_json, file_digest, fmt_float, read_csv, write_csv

STAGE_ORDER = ["ingest", "rfm", "select-features", "grid-search",
               "factorize", "cluster", "export-graph"]

PLOT_KINDS = ["drop-curve", "feature-importance", "grid-mse",
              "dictionary-profile", "cluster-sizes", "centroid-profile"]


class MissingStageError(RuntimeError):
    """An upstream artifact is absent; names the stage that produces it."""

    def __init__(self, required_stage: str, path: Path):
        self.required_stage = required_stage
        super().__init__(
            f"missing artifact {path}; run the '{required_stage}' stage first")


@dataclass(frozen=True)
class IngestSettings:
    encoding: str = "utf-8"
    schema: dict = field(default_factory=dict)
    cancellation_prefix: str = "C"
    frequent_min_purchases: int = 5
    wholesale_quantity_threshold: int = 1000


@dataclass(frozen=True)
class RfmSettings:
    w_recency: float = 0.15
    w_frequency: float = 0.15
    w_monetary: float = 0.7
    boxcox_search: tuple[float, float] = (-5.0, 5.0)


@dataclass(frozen=True)
class LassoSettings:
    alpha_grid: tuple[float, ...] | None = None  # None -> 100-point log grid
    grid_size: int = 100
    grid_lo_ratio: float = 1e-4
    folds: int = 5
    seed: int | None = None
    slack: float = 0.05
    holdout_fraction: float = 0.2
    tol: float = 1e-7
    max_iter: int = 10000


@dataclass(frozen=True)
class NmfSettings:
    k: int = 5
    alpha_m: float = 1.0
    l1_ratio: float = 0.1
    seed: int | None = None
    tol: float = 1e-6
    max_iter: int = 500
    init: str = "random_uniform"
    k_min: int = 2
    k_max: int = 20
    alpha_grid: tuple[float, ...] = (0.0, 0.1, 0.5, 1.0, 2.0)
    l1_grid: tuple[float, ...] = (0.0, 0.1, 0.5, 0.9, 1.0)
    holdout_fraction: float = 1.0 / 3.0
    use_grid_best: bool = True
    top_n: int = 10


@dataclass(frozen=True)
class ClusterSettings:
    min_cluster_size: int = 5
    min_samples: int | None = None  # None -> min_cluster_size
    row_normalize: bool = False


@dataclass(frozen=True)
class GraphSettings:
    affinity_threshold: float = 0.0


@dataclass(frozen=True)
class PipelineConfig:
    input_path: str
    output_dir: str
    seed: int = 42
    ingest: IngestSettings = IngestSettings()
    rfm: RfmSettings = RfmSettings()
    lasso: LassoSettings = LassoSettings()
    nmf: NmfSettings = NmfSettings()
    cluster: ClusterSettings = ClusterSettings()
    graph: GraphSettings = GraphSettings()

    def resolved(self) -> "PipelineConfig":
        """Fill every optional seed/parameter from the global seed."""
        out = self
        if out.lasso.seed is None:
            out = replace(out, lasso=replace(out.lasso, seed=out.seed))
        if out.nmf.seed is None:
            out = replace(out, nmf=replace(out.nmf, seed=out.seed))
        if out.cluster.min_samples is None:
            out = replace(out, cluster=replace(
                out.cluster, min_samples=out.cluster.min_cluster_size))
        return out

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """Build a config; a key that names no section or field raises a
        ValueError, so a misspelling is never silently replaced by a default."""
        def check_keys(given, known_cls, where):
            known = [f.name for f in fields(known_cls)]
            unknown = sorted(set(given) - set(known))
            if unknown:
                raise ValueError(f"unknown {where} {', '.join(map(repr, unknown))}; "
                                 f"valid: {', '.join(known)}")

        def build(sub_cls, key):
            sub = dict(data.get(key) or {})
            check_keys(sub, sub_cls, f"field in config section {key!r}:")
            for name in ("alpha_grid", "l1_grid"):
                if isinstance(sub.get(name), list):
                    sub[name] = tuple(sub[name])
            if isinstance(sub.get("boxcox_search"), list):
                sub["boxcox_search"] = tuple(sub["boxcox_search"])
            return sub_cls(**sub)

        check_keys(data, cls, "config key")
        return cls(
            input_path=data["input_path"],
            output_dir=data["output_dir"],
            seed=data.get("seed", 42),
            ingest=build(IngestSettings, "ingest"),
            rfm=build(RfmSettings, "rfm"),
            lasso=build(LassoSettings, "lasso"),
            nmf=build(NmfSettings, "nmf"),
            cluster=build(ClusterSettings, "cluster"),
            graph=build(GraphSettings, "graph"),
        )

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def _require(run_dir: Path, relpath: str, stage: str) -> Path:
    path = run_dir / relpath
    if not path.exists():
        raise MissingStageError(stage, path)
    return path


# ------------------------------------------------------------- stages ----

def _stage_ingest(cfg: PipelineConfig, run_dir: Path):
    src = Path(cfg.input_path)
    if not src.exists():
        raise FileNotFoundError(f"input file not found: {src}")
    out = run_dir / "ingest"
    out.mkdir(parents=True, exist_ok=True)

    lines, rejects = ingest_mod.parse_invoice_csv(
        src, schema=cfg.ingest.schema or None, encoding=cfg.ingest.encoding)
    rules = ingest_mod.CleaningRules(cancellation_prefix=cfg.ingest.cancellation_prefix)
    txns = ingest_mod.clean_transactions(lines, rules)
    seg_cfg = ingest_mod.SegmentationConfig(
        frequent_min_purchases=cfg.ingest.frequent_min_purchases,
        wholesale_quantity_threshold=cfg.ingest.wholesale_quantity_threshold)
    segments = ingest_mod.segment_customers(txns, seg_cfg)
    frequent = [s.customer_id for s in segments
                if s.segment is ingest_mod.Segment.FREQUENT]
    if not frequent:
        raise ValueError("no frequent shoppers found; nothing to characterize")
    matrix = ingest_mod.build_incidence_matrix(txns, frequent)

    ingest_mod.write_transactions(txns, out / "transactions.csv")
    ingest_mod.write_segments(segments, out / "segments.csv")
    ingest_mod.write_rejects(rejects, out / "rejects.jsonl")
    outputs = [out / "transactions.csv", out / "segments.csv", out / "rejects.jsonl"]
    outputs += ingest_mod.write_matrix(matrix, out, "matrix")

    metrics = {
        "parsed_lines": len(lines),
        "rejected_rows": len(rejects),
        "clean_transactions": len(txns),
        "registered_customers": len(segments),
        "frequent_shoppers": len(frequent),
        "matrix_rows": matrix.shape[0],
        "matrix_cols": matrix.shape[1],
        "matrix_nnz": matrix.nnz,
    }
    return [src], outputs, metrics


def _stage_rfm(cfg: PipelineConfig, run_dir: Path):
    txn_path = _require(run_dir, "ingest/transactions.csv", "ingest")
    seg_path = _require(run_dir, "ingest/segments.csv", "ingest")
    out = run_dir / "rfm"
    out.mkdir(parents=True, exist_ok=True)

    txns = ingest_mod.read_transactions(txn_path)
    segments = ingest_mod.read_segments(seg_path)
    frequent = {s.customer_id for s in segments
                if s.segment is ingest_mod.Segment.FREQUENT}
    member_txns = txns.for_customers(frequent)
    as_of = max(member_txns.invoice_date.used())
    weights = rfm_mod.RfmWeights(cfg.rfm.w_recency, cfg.rfm.w_frequency,
                                 cfg.rfm.w_monetary)
    scores, params = rfm_mod.score_customers(member_txns, as_of, weights,
                                             cfg.rfm.boxcox_search)

    write_csv(out / "scores.csv", ["customer_id", "gamma", "gamma_prime"],
              ([s.customer_id, fmt_float(s.gamma), fmt_float(s.gamma_prime)]
               for s in scores))
    dump_json(out / "boxcox.json", {
        "lambda": params.lam, "shift": params.shift,
        "as_of": as_of.isoformat(),
        "weights": {"recency": weights.w_recency, "frequency": weights.w_frequency,
                    "monetary": weights.w_monetary},
    })
    metrics = {"lambda": params.lam, "shift": params.shift, "scored": len(scores)}
    return [txn_path, seg_path], [out / "scores.csv", out / "boxcox.json"], metrics


def _read_scores(path: Path) -> dict[str, float]:
    _, rows = read_csv(path)
    return {r[0]: float(r[2]) for r in rows}  # gamma_prime


def _stage_select_features(cfg: PipelineConfig, run_dir: Path):
    matrix_path = _require(run_dir, "ingest/matrix.triplets.csv", "ingest")
    _require(run_dir, "ingest/matrix.rows.txt", "ingest")
    _require(run_dir, "ingest/matrix.cols.txt", "ingest")
    scores_path = _require(run_dir, "rfm/scores.csv", "rfm")
    out = run_dir / "select-features"
    out.mkdir(parents=True, exist_ok=True)

    matrix = ingest_mod.read_matrix(run_dir / "ingest", "matrix")
    responses = _read_scores(scores_path)
    design = lasso_mod.standardize(matrix, responses)
    solver = lasso_mod.SolverConfig(tol=cfg.lasso.tol, max_iter=cfg.lasso.max_iter)

    n = len(design.y)
    rng = np.random.default_rng(cfg.lasso.seed)
    holdout_size = max(1, round(cfg.lasso.holdout_fraction * n))
    if holdout_size >= n:
        raise ValueError("holdout fraction leaves no training rows")
    holdout = np.sort(rng.choice(n, size=holdout_size, replace=False))
    train = np.setdiff1d(np.arange(n), holdout)

    if cfg.lasso.alpha_grid is not None:
        grid = np.asarray(cfg.lasso.alpha_grid, dtype=float)
    else:
        grid = lasso_mod.default_alpha_grid(design, cfg.lasso.grid_size,
                                            cfg.lasso.grid_lo_ratio, rows=train)
    cv_fits: list[tuple[int, bool]] = []
    alpha_best, cv_curve = lasso_mod.cross_validate_alpha(
        design, grid, cfg.lasso.folds, cfg.lasso.seed, solver, rows=train,
        fit_stats=cv_fits)
    model = lasso_mod.fit_lasso(design, alpha_best, solver, rows=train)
    curve = lasso_mod.drop_experiment(design, model, holdout)
    ranking = lasso_mod.select_features(curve, lasso_mod.SelectionRule(cfg.lasso.slack))
    if ranking.selected_count == 0:
        raise ValueError("feature selection kept 0 features; "
                         "the value signal is not explained by any item")

    selected_codes = [code for code, _ in ranking.ranked]
    col_pos = {c: j for j, c in enumerate(design.col_ids)}
    sel_idx = [col_pos[c] for c in selected_codes]
    intercept, coefs, _ = lasso_mod.ols_refit(design.x[train][:, sel_idx],
                                               design.y[train])
    predicted = intercept + design.x[holdout][:, sel_idx] @ coefs
    report = lasso_mod.residual_diagnostics(design.y[holdout], predicted)
    train_pred = intercept + design.x[train][:, sel_idx] @ coefs
    ss_res = float(((design.y[train] - train_pred) ** 2).sum())
    ss_tot = float(((design.y[train] - design.y[train].mean()) ** 2).sum())
    r2_train = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")

    p_prime = matrix.restrict_columns(selected_codes)

    write_csv(out / "cv_curve.csv", ["alpha", "mean_mse"],
              ([fmt_float(a), fmt_float(m)] for a, m in cv_curve))
    write_csv(out / "drop_curve.csv", ["n_features", "holdout_mse"],
              ([str(nf), fmt_float(m)] for nf, m in curve.points))
    write_csv(out / "ranking.csv", ["stock_code", "beta", "rank"],
              ([code, fmt_float(curve.betas[code]), str(i + 1)]
               for i, (code, _) in enumerate(ranking.ranked)))
    dump_json(out / "model.json", {
        "alpha": model.alpha,
        "intercept": model.intercept,
        "beta": {c: float(b) for c, b in zip(model.col_ids, model.beta) if b != 0},
        "n_iter": model.n_iter,
        "max_coord_delta": model.max_coord_delta,
        "converged": model.converged,
        "duality_gap": lasso_mod.duality_gap(design, model, rows=train),
        "dropped_constant_columns": design.dropped_cols,
        "holdout_rows": [design.row_ids[i] for i in holdout],
    })
    write_csv(out / "diagnostics_pred.csv", ["actual", "predicted"],
              ([fmt_float(a), fmt_float(p)]
               for a, p in zip(report.actual, report.predicted)))
    write_csv(out / "diagnostics_pp.csv", ["theoretical", "empirical"],
              ([fmt_float(t), fmt_float(e)]
               for t, e in zip(report.pp_theoretical, report.pp_empirical)))
    outputs = [out / "cv_curve.csv", out / "drop_curve.csv", out / "ranking.csv",
               out / "model.json", out / "diagnostics_pred.csv",
               out / "diagnostics_pp.csv"]
    outputs += ingest_mod.write_matrix(p_prime, out, "p_prime")

    holdout_mse = dict(curve.points).get(ranking.selected_count)
    metrics = {
        "alpha_best": alpha_best,
        "support_size": len(curve.support),
        "m_prime": ranking.selected_count,
        "r2_train_selected": r2_train,
        "holdout_mse_selected": holdout_mse,
        "diagnostics_degenerate": report.degenerate,
        "cv_fits": len(cv_fits),
        "cv_unconverged_fits": sum(1 for _, converged in cv_fits if not converged),
    }
    return [matrix_path, scores_path], outputs, metrics


def _stage_grid_search(cfg: PipelineConfig, run_dir: Path):
    p_path = _require(run_dir, "select-features/p_prime.triplets.csv", "select-features")
    out = run_dir / "grid-search"
    out.mkdir(parents=True, exist_ok=True)

    p_prime = ingest_mod.read_matrix(run_dir / "select-features", "p_prime")
    result = nmf_mod.grid_search(
        p_prime.to_dense(),
        range(cfg.nmf.k_min, cfg.nmf.k_max + 1),
        cfg.nmf.alpha_grid, cfg.nmf.l1_grid,
        seed=cfg.nmf.seed, tol=cfg.nmf.tol, max_iter=cfg.nmf.max_iter,
        init=cfg.nmf.init, holdout_fraction=cfg.nmf.holdout_fraction)

    write_csv(out / "grid.csv", ["k", "alpha_m", "l1_ratio", "imputation_mse"],
              ([str(k), fmt_float(a), fmt_float(l1), fmt_float(m)]
               for k, a, l1, m in result.table))
    dump_json(out / "best.json", {
        "k": result.best.k, "alpha_m": result.best.alpha_m,
        "l1_ratio": result.best.l1_ratio,
        "failures": [{"k": k, "alpha_m": a, "l1_ratio": l1, "error": e}
                     for k, a, l1, e in result.failures],
    })
    best_mse = min(m for *_, m in result.table if not np.isnan(m))
    metrics = {"best_k": result.best.k, "best_alpha_m": result.best.alpha_m,
               "best_l1_ratio": result.best.l1_ratio, "best_mse": best_mse,
               "failed_cells": len(result.failures), "fits": len(result.fits),
               "iterations": sum(n_iter for n_iter, _ in result.fits),
               "unconverged_cells": sum(1 for _, converged in result.fits if not converged)}
    return [p_path], [out / "grid.csv", out / "best.json"], metrics


def _stage_factorize(cfg: PipelineConfig, run_dir: Path):
    p_path = _require(run_dir, "select-features/p_prime.triplets.csv", "select-features")
    out = run_dir / "factorize"
    out.mkdir(parents=True, exist_ok=True)

    p_prime = ingest_mod.read_matrix(run_dir / "select-features", "p_prime")
    inputs = [p_path]
    k, alpha_m, l1_ratio = cfg.nmf.k, cfg.nmf.alpha_m, cfg.nmf.l1_ratio
    if cfg.nmf.use_grid_best:
        best_path = _require(run_dir, "grid-search/best.json", "grid-search")
        inputs.append(best_path)
        with open(best_path, "r", encoding="utf-8") as f:
            best = json.load(f)
        k, alpha_m, l1_ratio = best["k"], best["alpha_m"], best["l1_ratio"]

    nmf_cfg = nmf_mod.NmfConfig(k=k, alpha_m=alpha_m, l1_ratio=l1_ratio,
                                tol=cfg.nmf.tol, max_iter=cfg.nmf.max_iter,
                                seed=cfg.nmf.seed, init=cfg.nmf.init)
    f = replace(nmf_mod.fit_nmf(p_prime.to_dense(), nmf_cfg),
                row_ids=p_prime.row_ids, col_ids=p_prime.col_ids)
    h_norm, scales, zero_rows = nmf_mod.normalize_dictionary(f)
    profile = nmf_mod.top_items_per_element(h_norm, cfg.nmf.top_n, f.col_ids)

    element_ids = [f"e{t}" for t in range(k)]
    write_csv(out / "W.csv", ["customer_id"] + element_ids,
              ([rid] + [fmt_float(v) for v in f.w[i]]
               for i, rid in enumerate(f.row_ids)))
    write_csv(out / "H.csv", ["element_id"] + list(f.col_ids),
              ([element_ids[t]] + [fmt_float(v) for v in f.h[t]]
               for t in range(k)))
    write_csv(out / "H_normalized.csv", ["element_id"] + list(f.col_ids),
              ([element_ids[t]] + [fmt_float(v) for v in h_norm[t]]
               for t in range(k)))
    write_csv(out / "scales.csv", ["element_id", "scale"],
              ([element_ids[t], fmt_float(scales[t])] for t in range(k)))
    write_csv(out / "dictionary_profile.csv", ["element", "item", "weight"],
              ([element_ids[t], code, fmt_float(wgt)]
               for t in range(k) for code, wgt in profile[t]))
    write_csv(out / "objective_trace.csv", ["iteration", "objective"],
              ([str(i), fmt_float(v)] for i, v in enumerate(f.objective_trace)))
    dump_json(out / "nmf_config.json", {
        "k": k, "alpha_m": alpha_m, "l1_ratio": l1_ratio, "tol": nmf_cfg.tol,
        "max_iter": nmf_cfg.max_iter, "seed": nmf_cfg.seed, "init": nmf_cfg.init,
        "zero_dictionary_rows": zero_rows,
    })
    outputs = [out / "W.csv", out / "H.csv", out / "H_normalized.csv",
               out / "scales.csv", out / "dictionary_profile.csv",
               out / "objective_trace.csv", out / "nmf_config.json"]
    metrics = {
        "k": k, "alpha_m": alpha_m, "l1_ratio": l1_ratio,
        "n_iter": f.n_iter, "converged": f.converged,
        "final_objective": f.objective_trace[-1],
        "w_zero_fraction": float((f.w == 0).mean()),
        "h_zero_fraction": float((f.h == 0).mean()),
    }
    return inputs, outputs, metrics


def _read_w(run_dir: Path) -> tuple[list[str], np.ndarray]:
    header, rows = read_csv(run_dir / "factorize" / "W.csv")
    ids = [r[0] for r in rows]
    w = np.array([[float(v) for v in r[1:]] for r in rows])
    return ids, w


def _read_h(run_dir: Path) -> tuple[list[str], np.ndarray]:
    header, rows = read_csv(run_dir / "factorize" / "H.csv")
    col_ids = header[1:]
    h = np.array([[float(v) for v in r[1:]] for r in rows])
    return col_ids, h


def _stage_cluster(cfg: PipelineConfig, run_dir: Path):
    w_path = _require(run_dir, "factorize/W.csv", "factorize")
    out = run_dir / "cluster"
    out.mkdir(parents=True, exist_ok=True)

    ids, w = _read_w(run_dir)
    points = w
    if cfg.cluster.row_normalize:
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        points = np.where(norms > 0, points / np.where(norms > 0, norms, 1.0), points)
    params = cluster_mod.DensityParams(
        min_cluster_size=cfg.cluster.min_cluster_size,
        min_samples=cfg.cluster.min_samples or cfg.cluster.min_cluster_size)
    labeling = cluster_mod.cluster_rows(points, params)
    profiles = cluster_mod.profile_clusters(labeling, w)

    write_csv(out / "labels.csv", ["customer_id", "cluster_id"],
              ([cid, str(int(lab))] for cid, lab in zip(ids, labeling.labels)))
    write_csv(out / "sizes.csv", ["cluster_id", "size"],
              ([str(c), str(labeling.sizes[c])] for c in sorted(labeling.sizes)))
    write_csv(out / "centroids.csv",
              ["cluster_id", "element", "centroid", "normalized"],
              ([str(p.cluster_id), f"e{t}", fmt_float(p.centroid[t]),
                fmt_float(p.normalized_centroid[t])]
               for p in profiles for t in range(len(p.centroid))))
    outputs = [out / "labels.csv", out / "sizes.csv", out / "centroids.csv"]
    metrics = {
        "n_clusters": labeling.n_clusters,
        "sizes": {str(k): v for k, v in labeling.sizes.items()},
        "noise": labeling.sizes.get(-1, 0),
    }
    return [w_path], outputs, metrics


def _stage_export_graph(cfg: PipelineConfig, run_dir: Path, kinds=("purchase", "affinity")):
    p_path = _require(run_dir, "select-features/p_prime.triplets.csv", "select-features")
    w_path = _require(run_dir, "factorize/W.csv", "factorize")
    labels_path = _require(run_dir, "cluster/labels.csv", "cluster")
    out = run_dir / "graph"
    out.mkdir(parents=True, exist_ok=True)

    p_prime = ingest_mod.read_matrix(run_dir / "select-features", "p_prime")
    row_ids, w = _read_w(run_dir)
    col_ids, h = _read_h(run_dir)
    f = nmf_mod.Factorization(w=w, h=h, objective_trace=[], converged=True,
                              n_iter=0, row_ids=row_ids, col_ids=col_ids)
    _, label_rows = read_csv(labels_path)
    label_by_id = {r[0]: int(r[1]) for r in label_rows}
    labels = cluster_mod.ClusterLabeling(
        labels=np.array([label_by_id[r] for r in row_ids]),
        n_clusters=len({v for v in label_by_id.values() if v >= 0}),
        sizes={})

    outputs = []
    counts = {}
    if "purchase" in kinds:
        doc = graph_mod.attach_embeddings(graph_mod.build_purchase_graph(p_prime),
                                          f, labels)
        nodes_p, edges_p = graph_mod.export_jsonl(doc, out, "purchase")
        gml = graph_mod.export_graphml(doc, out / "purchase.graphml")
        outputs += [nodes_p, edges_p, gml]
        counts["purchase_nodes"] = len(doc.nodes)
        counts["purchase_edges"] = len(doc.edges)
    if "affinity" in kinds:
        doc = graph_mod.attach_embeddings(
            graph_mod.build_affinity_graph(f, cfg.graph.affinity_threshold),
            f, labels)
        nodes_a, edges_a = graph_mod.export_jsonl(doc, out, "affinity")
        gml = graph_mod.export_graphml(doc, out / "affinity.graphml")
        outputs += [nodes_a, edges_a, gml]
        counts["affinity_nodes"] = len(doc.nodes)
        counts["affinity_edges"] = len(doc.edges)
    return [p_path, w_path, labels_path], outputs, counts


_STAGE_FUNCS = {
    "ingest": _stage_ingest,
    "rfm": _stage_rfm,
    "select-features": _stage_select_features,
    "grid-search": _stage_grid_search,
    "factorize": _stage_factorize,
    "cluster": _stage_cluster,
    "export-graph": _stage_export_graph,
}


def run_stage(name: str, config: PipelineConfig, **kwargs) -> dict:
    """Execute one stage, write its artifacts, and update the manifest."""
    if name not in _STAGE_FUNCS:
        raise ValueError(f"unknown stage {name!r}; valid: {STAGE_ORDER}")
    cfg = config.resolved()
    run_dir = Path(cfg.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    dump_json(run_dir / "config.json", cfg.to_dict())

    started = time.perf_counter()
    inputs, outputs, metrics = _STAGE_FUNCS[name](cfg, run_dir, **kwargs)
    elapsed = time.perf_counter() - started

    def rel(p: Path) -> str:
        p = Path(p)
        try:
            return str(p.relative_to(run_dir))
        except ValueError:
            return str(p)

    entry = {
        "name": name,
        "inputs": {rel(p): file_digest(Path(p)) for p in inputs},
        "outputs": {rel(p): file_digest(Path(p)) for p in outputs},
        "elapsed_seconds": round(elapsed, 6),
        "metrics": metrics,
    }
    manifest_path = run_dir / "manifest.json"
    manifest = {"stages": []}
    if manifest_path.exists():
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    manifest["stages"] = [s for s in manifest["stages"] if s["name"] != name]
    manifest["stages"].append(entry)
    order = {n: i for i, n in enumerate(STAGE_ORDER)}
    manifest["stages"].sort(key=lambda s: order.get(s["name"], 99))
    dump_json(manifest_path, manifest)
    return entry


def run_all(config: PipelineConfig) -> list[dict]:
    return [run_stage(name, config) for name in STAGE_ORDER]


def emit_plot_data(run_dir: str | Path, kind: str, out_path: str | Path) -> Path:
    """Re-emit a stage artifact as a plain (x, y[, series]) delimited file."""
    run_dir = Path(run_dir)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    def passthrough(relpath: str, stage: str, columns: list[int], header: list[str]):
        src = _require(run_dir, relpath, stage)
        _, rows = read_csv(src)
        write_csv(out_path, header, ([r[c] for c in columns] for r in rows))

    if kind == "drop-curve":
        passthrough("select-features/drop_curve.csv", "select-features",
                    [0, 1], ["n_features", "holdout_mse"])
    elif kind == "feature-importance":
        src = _require(run_dir, "select-features/ranking.csv", "select-features")
        _, rows = read_csv(src)
        write_csv(out_path, ["rank", "abs_beta", "stock_code"],
                  ([r[2], fmt_float(abs(float(r[1]))), r[0]] for r in rows))
    elif kind == "grid-mse":
        passthrough("grid-search/grid.csv", "grid-search",
                    [0, 1, 2, 3], ["k", "alpha_m", "l1_ratio", "imputation_mse"])
    elif kind == "dictionary-profile":
        passthrough("factorize/dictionary_profile.csv", "factorize",
                    [0, 1, 2], ["element", "item", "weight"])
    elif kind == "cluster-sizes":
        passthrough("cluster/sizes.csv", "cluster", [0, 1], ["cluster_id", "size"])
    elif kind == "centroid-profile":
        src = _require(run_dir, "cluster/centroids.csv", "cluster")
        _, rows = read_csv(src)
        write_csv(out_path, ["cluster_id", "element", "normalized"],
                  ([r[0], r[1], r[3]] for r in rows))
    else:
        raise ValueError(f"unknown plot kind {kind!r}; valid: {PLOT_KINDS}")
    return out_path
