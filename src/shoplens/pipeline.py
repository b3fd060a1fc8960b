"""Stage orchestration: one configuration drives the whole pipeline, every
stage reads and writes plain files under a run directory, and a manifest
records digests, timings, and achieved metrics per stage.

All randomness flows from the seeds recorded in the (canonicalized) config,
so re-running a stage with the same config and inputs reproduces its output
files byte for byte.
"""

import json
import time
import types
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, get_args, get_origin

import numpy as np

from . import cluster as cluster_mod
from . import graph as graph_mod
from . import ingest as ingest_mod
from . import lasso as lasso_mod
from . import nmf as nmf_mod
from . import rfm as rfm_mod
from ._fmt import dump_json, file_digest, fmt_float, read_csv, write_csv


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
    # A customer is wholesale if any single invoice totals more than this
    # many units. The source data never labels wholesalers, so this is a
    # documented operational default, not a derived constant.
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


def _fits(value, tp) -> bool:
    """Whether a JSON value fits a field's declared type. A bool is not an
    int, an int is a float, and a list is a tuple whose elements fit."""
    if isinstance(tp, types.UnionType):
        return any(_fits(value, t) for t in get_args(tp))
    if get_origin(tp) is tuple:
        args = get_args(tp)
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if isinstance(value, bool):
        return tp is bool
    if tp is float:
        return isinstance(value, (int, float))
    return isinstance(value, tp)


@dataclass(frozen=True)
class PipelineConfig:
    input_path: str = ""
    output_dir: str = "run"
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
        """Build a config; a missing key, or a section given as null, takes
        its default. A key that names no section or field, a config or
        section that is not an object, or a value that does not fit its
        field's type raises a ValueError, so a misspelling is never silently
        replaced by a default and a wrong type never reaches a stage."""
        def check_keys(given, known_cls, where):
            known = [f.name for f in fields(known_cls)]
            unknown = sorted(set(given) - set(known))
            if unknown:
                raise ValueError(f"unknown {where} {', '.join(map(repr, unknown))}; "
                                 f"valid: {', '.join(known)}")

        def value(given, tp, where):
            if not _fits(given, tp):
                name = tp.__name__ if isinstance(tp, type) else str(tp)
                raise ValueError(f"config field {where!r} must be {name}, "
                                 f"got {type(given).__name__}")
            return tuple(given) if isinstance(given, list) else given

        def build(sub_cls, key):
            sub = {} if data[key] is None else data[key]
            if not isinstance(sub, dict):
                raise ValueError(f"config section {key!r} must be an object, "
                                 f"got {type(sub).__name__}")
            check_keys(sub, sub_cls, f"field in config section {key!r}:")
            return sub_cls(**{f.name: value(sub[f.name], f.type, f"{key}.{f.name}")
                              for f in fields(sub_cls) if f.name in sub})

        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        check_keys(data, cls, "config key")
        return cls(**{f.name: build(f.type, f.name) if is_dataclass(f.type)
                      else value(data[f.name], f.type, f.name)
                      for f in fields(cls) if f.name in data})

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


class _Inputs:
    """The files a stage reads. ``need`` checks that an upstream artifact is
    there and records it, and ``run_stage`` digests every recorded file, so
    the manifest lists each file the stage read."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.paths: list[Path] = []

    def need(self, relpath: str) -> Path:
        """``run_dir / relpath``. The path's first directory is the stage that
        writes it, and MissingStageError names that stage if the file is absent."""
        path = self.run_dir / relpath
        if not path.is_file():
            raise MissingStageError(relpath.split("/")[0], path)
        self.paths.append(path)
        return path

    def matrix(self, stage_dir: str, prefix: str) -> ingest_mod.PurchaseMatrix:
        """The matrix ``prefix`` that ``ingest.write_matrix`` wrote into
        ``stage_dir``, each of its files checked and recorded."""
        for path in ingest_mod.matrix_paths(stage_dir, prefix):
            self.need(path.as_posix())
        return ingest_mod.read_matrix(self.run_dir / stage_dir, prefix)


def _write_labelled(path: Path, corner: str, row_ids, col_ids, values) -> None:
    """A matrix as CSV: a header of ``corner`` and the column ids, then one
    row per row id followed by that row's values."""
    write_csv(path, [corner, *col_ids],
              ([rid] + [fmt_float(v) for v in row] for rid, row in zip(row_ids, values)))


def _read_labelled(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """``_write_labelled``'s file as (row ids, column ids, values)."""
    header, rows = read_csv(path)
    shape = len(rows), len(header[1:])
    values = np.fromiter(map(float, chain.from_iterable(r[1:] for r in rows)),
                         dtype=np.float64, count=shape[0] * shape[1])
    return [r[0] for r in rows], header[1:], values.reshape(shape)


# ------------------------------------------------------------- stages ----
# Each stage takes (config, run directory, inputs), reads upstream files only
# through ``inputs``, and returns (output paths, metrics).

def _stage_ingest(cfg: PipelineConfig, run_dir: Path, inputs: _Inputs):
    src = Path(cfg.input_path)
    lines, rejects = ingest_mod.parse_invoice_csv(
        src, schema=cfg.ingest.schema or None, encoding=cfg.ingest.encoding)
    inputs.paths.append(src)
    out = run_dir / "ingest"
    out.mkdir(parents=True, exist_ok=True)

    txns = ingest_mod.clean_transactions(
        lines, cancellation_prefix=cfg.ingest.cancellation_prefix)
    segments = ingest_mod.segment_customers(
        txns, frequent_min_purchases=cfg.ingest.frequent_min_purchases,
        wholesale_quantity_threshold=cfg.ingest.wholesale_quantity_threshold)
    frequent = [s.customer_id for s in segments
                if s.segment is ingest_mod.Segment.FREQUENT]
    if not frequent:
        wholesale = sum(s.segment is ingest_mod.Segment.WHOLESALE for s in segments)
        raise ValueError(f"ingest: no frequent shoppers among the {len(segments)} registered "
                         f"customers: {wholesale} wholesale, {len(segments) - wholesale} with "
                         f"fewer than {cfg.ingest.frequent_min_purchases} invoices")
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
    return outputs, metrics


def _stage_rfm(cfg: PipelineConfig, run_dir: Path, inputs: _Inputs):
    segments = ingest_mod.read_segments(inputs.need("ingest/segments.csv"))
    out = run_dir / "rfm"
    out.mkdir(parents=True, exist_ok=True)

    frequent = [s for s in segments if s.segment is ingest_mod.Segment.FREQUENT]
    if len(frequent) < 3:
        raise ValueError(f"rfm: the Box-Cox fit needs at least 3 frequent shoppers, "
                         f"got {len(frequent)}")
    as_of = max(s.last_purchase for s in frequent)
    weights = rfm_mod.RfmWeights(cfg.rfm.w_recency, cfg.rfm.w_frequency,
                                 cfg.rfm.w_monetary)
    scores, params = rfm_mod.score_customers(frequent, as_of, weights,
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
    return [out / "scores.csv", out / "boxcox.json"], metrics


def _read_scores(path: Path) -> dict[str, float]:
    _, rows = read_csv(path)
    return {r[0]: float(r[2]) for r in rows}  # gamma_prime


def _stage_select_features(cfg: PipelineConfig, run_dir: Path, inputs: _Inputs):
    matrix = inputs.matrix("ingest", "matrix")
    responses = _read_scores(inputs.need("rfm/scores.csv"))
    out = run_dir / "select-features"
    out.mkdir(parents=True, exist_ok=True)

    design = lasso_mod.standardize(matrix, responses)
    n = len(design.y)
    if not design.col_ids:
        raise ValueError(f"select-features: every item column is constant over the "
                         f"{n} frequent shoppers")

    rng = np.random.default_rng(cfg.lasso.seed)
    holdout_size = max(1, round(cfg.lasso.holdout_fraction * n))
    if holdout_size >= n:
        raise ValueError("holdout fraction leaves no training rows")
    holdout = np.sort(rng.choice(n, size=holdout_size, replace=False))
    training = design.take(np.setdiff1d(np.arange(n), holdout))

    if cfg.lasso.alpha_grid is not None:
        grid = np.asarray(cfg.lasso.alpha_grid, dtype=float)
    else:
        grid = lasso_mod.default_alpha_grid(training, cfg.lasso.grid_size,
                                            cfg.lasso.grid_lo_ratio)
    try:
        alpha_best, cv_curve, cv_fits = lasso_mod.cross_validate_alpha(
            training, grid, cfg.lasso.folds, cfg.lasso.seed,
            tol=cfg.lasso.tol, max_iter=cfg.lasso.max_iter)
    except ValueError as err:
        raise ValueError(f"select-features: {err} ({n} frequent shoppers, "
                         f"{holdout_size} held out)") from None
    model = lasso_mod.fit_lasso(training, alpha_best, tol=cfg.lasso.tol,
                                max_iter=cfg.lasso.max_iter)
    if not model.support():
        raise ValueError(f"select-features: the model at alpha_best = {alpha_best:.6g} "
                         f"(alpha_max = {lasso_mod.max_alpha(training):.6g}) has no "
                         f"nonzero coefficients")
    held = design.take(holdout)
    curve = lasso_mod.drop_experiment(training, held, model)
    ranking = lasso_mod.select_features(curve, slack=cfg.lasso.slack)
    if ranking.selected_count == 0:
        raise ValueError(f"select-features: the drop curve keeps 0 features: the "
                         f"intercept-only holdout MSE {curve.points[-1][1]:.6g} is within "
                         f"slack {cfg.lasso.slack:g} of the curve minimum "
                         f"{min(m for _, m in curve.points):.6g}")

    selected_codes = [code for code, _ in ranking.ranked]
    col_pos = {c: j for j, c in enumerate(design.col_ids)}
    sel_idx = [col_pos[c] for c in selected_codes]
    intercept, coefs, _ = lasso_mod.ols_refit(training.x[:, sel_idx], training.y)
    predicted = intercept + held.x[:, sel_idx] @ coefs
    report = lasso_mod.residual_diagnostics(held.y, predicted)
    train_pred = intercept + training.x[:, sel_idx] @ coefs
    ss_res = float(((training.y - train_pred) ** 2).sum())
    ss_tot = float(((training.y - training.y.mean()) ** 2).sum())
    r2_train = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")

    p_prime = matrix.restrict_columns(selected_codes)

    write_csv(out / "cv_curve.csv", ["alpha", "mean_mse"],
              ([fmt_float(a), fmt_float(m)] for a, m in cv_curve))
    write_csv(out / "cv_fits.csv", ["fold", "alpha", "n_iter", "converged", "duality_gap"],
              ([str(f.fold), fmt_float(f.alpha), str(f.n_iter), str(f.converged).lower(),
                fmt_float(f.duality_gap)] for f in cv_fits))
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
        "converged": model.converged,
        "duality_gap": lasso_mod.duality_gap(training, model),
        "dropped_constant_columns": design.dropped_cols,
        "holdout_rows": held.row_ids,
    })
    write_csv(out / "diagnostics_pred.csv", ["actual", "predicted"],
              ([fmt_float(a), fmt_float(p)]
               for a, p in zip(report.actual, report.predicted)))
    write_csv(out / "diagnostics_pp.csv", ["theoretical", "empirical"],
              ([fmt_float(t), fmt_float(e)]
               for t, e in zip(report.pp_theoretical, report.pp_empirical)))
    outputs = [out / "cv_curve.csv", out / "cv_fits.csv", out / "drop_curve.csv",
               out / "ranking.csv", out / "model.json", out / "diagnostics_pred.csv",
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
        "cv_unreached_fits": cfg.lasso.folds * len(cv_curve) - len(cv_fits),
        "cv_unconverged_fits": sum(1 for f in cv_fits if not f.converged),
        "cv_max_duality_gap": max(f.duality_gap for f in cv_fits),
    }
    return outputs, metrics


def _stage_grid_search(cfg: PipelineConfig, run_dir: Path, inputs: _Inputs):
    p_prime = inputs.matrix("select-features", "p_prime")
    out = run_dir / "grid-search"
    out.mkdir(parents=True, exist_ok=True)
    n, m = p_prime.shape
    if cfg.nmf.k_min > min(n, m):  # every cell would fail
        raise ValueError(f"grid-search: k_min = {cfg.nmf.k_min} exceeds min(n, m′) = "
                         f"{min(n, m)}, with n = {n} frequent shoppers and m′ = {m} "
                         f"selected items")

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
    return [out / "grid.csv", out / "best.json"], metrics


def _stage_factorize(cfg: PipelineConfig, run_dir: Path, inputs: _Inputs):
    p_prime = inputs.matrix("select-features", "p_prime")
    k, alpha_m, l1_ratio = cfg.nmf.k, cfg.nmf.alpha_m, cfg.nmf.l1_ratio
    if cfg.nmf.use_grid_best:
        best = json.loads(inputs.need("grid-search/best.json").read_text(encoding="utf-8"))
        k, alpha_m, l1_ratio = best["k"], best["alpha_m"], best["l1_ratio"]
    out = run_dir / "factorize"
    out.mkdir(parents=True, exist_ok=True)

    nmf_cfg = nmf_mod.NmfConfig(k=k, alpha_m=alpha_m, l1_ratio=l1_ratio,
                                tol=cfg.nmf.tol, max_iter=cfg.nmf.max_iter,
                                seed=cfg.nmf.seed, init=cfg.nmf.init)
    f = replace(nmf_mod.fit_nmf(p_prime.to_dense(), nmf_cfg),
                row_ids=p_prime.row_ids, col_ids=p_prime.col_ids)
    h_norm, scales, zero_rows = nmf_mod.normalize_dictionary(f)
    profile = nmf_mod.top_items_per_element(h_norm, cfg.nmf.top_n, f.col_ids)

    element_ids = [f"e{t}" for t in range(k)]
    _write_labelled(out / "W.csv", "customer_id", f.row_ids, element_ids, f.w)
    _write_labelled(out / "H.csv", "element_id", element_ids, f.col_ids, f.h)
    _write_labelled(out / "H_normalized.csv", "element_id", element_ids, f.col_ids, h_norm)
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
    return outputs, metrics


def _stage_cluster(cfg: PipelineConfig, run_dir: Path, inputs: _Inputs):
    ids, _, w = _read_labelled(inputs.need("factorize/W.csv"))
    out = run_dir / "cluster"
    out.mkdir(parents=True, exist_ok=True)

    points = w
    if cfg.cluster.row_normalize:
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        points = np.where(norms > 0, points / np.where(norms > 0, norms, 1.0), points)
    labeling = cluster_mod.cluster_rows(
        points, min_cluster_size=cfg.cluster.min_cluster_size,
        min_samples=cfg.cluster.min_samples)
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
    return outputs, metrics


def _stage_export_graph(cfg: PipelineConfig, run_dir: Path, inputs: _Inputs):
    p_prime = inputs.matrix("select-features", "p_prime")
    row_ids, _, w = _read_labelled(inputs.need("factorize/W.csv"))
    _, col_ids, h = _read_labelled(inputs.need("factorize/H.csv"))
    _, label_rows = read_csv(inputs.need("cluster/labels.csv"))
    out = run_dir / "graph"
    out.mkdir(parents=True, exist_ok=True)

    f = nmf_mod.Factorization(w=w, h=h, objective_trace=[], converged=True,
                              n_iter=0, row_ids=row_ids, col_ids=col_ids)
    label_by_id = {r[0]: int(r[1]) for r in label_rows}
    labels = np.array([label_by_id[r] for r in row_ids])

    builders = {
        "purchase": lambda: graph_mod.build_purchase_graph(p_prime),
        "affinity": lambda: graph_mod.build_affinity_graph(f, cfg.graph.affinity_threshold),
    }
    outputs, metrics = [], {}
    for kind, build in builders.items():
        doc = graph_mod.attach_embeddings(build(), f, labels)
        outputs += [*graph_mod.export_jsonl(doc, out, kind),
                    graph_mod.export_graphml(doc, out / f"{kind}.graphml")]
        metrics[f"{kind}_nodes"] = len(doc.nodes)
        metrics[f"{kind}_edges"] = len(doc.edges)
    return outputs, metrics


class Stage(NamedTuple):
    run: Callable[[PipelineConfig, Path, _Inputs], tuple[list[Path], dict]]
    help: str


# Every stage in run order; the CLI makes one subcommand of each.
STAGES = {
    "ingest": Stage(_stage_ingest, "parse, clean, segment, build the incidence matrix"),
    "rfm": Stage(_stage_rfm, "score customer value and fit the normalizing transform"),
    "select-features": Stage(_stage_select_features, "LASSO feature selection"),
    "grid-search": Stage(_stage_grid_search, "NMF hyperparameter search by imputation error"),
    "factorize": Stage(_stage_factorize, "fit the purchase dictionary and affinities"),
    "cluster": Stage(_stage_cluster, "density-cluster the affinity rows"),
    "export-graph": Stage(_stage_export_graph, "export bipartite graphs with embeddings"),
}


def run_stage(name: str, config: PipelineConfig) -> dict:
    """Execute one stage, write its artifacts, and update the manifest."""
    if name not in STAGES:
        raise ValueError(f"unknown stage {name!r}; valid: {list(STAGES)}")
    cfg = config.resolved()
    run_dir = Path(cfg.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    inputs = _Inputs(run_dir)
    started = time.perf_counter()
    outputs, metrics = STAGES[name].run(cfg, run_dir, inputs)
    elapsed = time.perf_counter() - started

    def rel(p: Path) -> str:
        try:
            return str(p.relative_to(run_dir))
        except ValueError:
            return str(p)

    entry = {
        "name": name,
        "inputs": {rel(p): file_digest(p) for p in inputs.paths},
        "outputs": {rel(p): file_digest(p) for p in outputs},
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
    order = {n: i for i, n in enumerate(STAGES)}
    manifest["stages"].sort(key=lambda s: order.get(s["name"], 99))
    # only a stage that ran records its config: a failed one leaves the
    # previous run's config beside the artifacts it left too
    dump_json(run_dir / "config.json", cfg.to_dict())
    dump_json(manifest_path, manifest)
    return entry


def run_all(config: PipelineConfig) -> list[dict]:
    return [run_stage(name, config) for name in STAGES]


# plot kind -> (stage artifact, row -> output cells, output header)
_PLOTS = {
    "drop-curve": ("select-features/drop_curve.csv", itemgetter(0, 1),
                   ["n_features", "holdout_mse"]),
    "feature-importance": ("select-features/ranking.csv",
                           lambda r: [r[2], fmt_float(abs(float(r[1]))), r[0]],
                           ["rank", "abs_beta", "stock_code"]),
    "grid-mse": ("grid-search/grid.csv", itemgetter(0, 1, 2, 3),
                 ["k", "alpha_m", "l1_ratio", "imputation_mse"]),
    "dictionary-profile": ("factorize/dictionary_profile.csv", itemgetter(0, 1, 2),
                           ["element", "item", "weight"]),
    "cluster-sizes": ("cluster/sizes.csv", itemgetter(0, 1), ["cluster_id", "size"]),
    "centroid-profile": ("cluster/centroids.csv", itemgetter(0, 1, 3),
                         ["cluster_id", "element", "normalized"]),
}


def emit_plot_data(run_dir: str | Path, kind: str, out_path: str | Path) -> Path:
    """Re-emit a stage artifact as a plain (x, y[, series]) delimited file."""
    if kind not in _PLOTS:
        raise ValueError(f"unknown plot kind {kind!r}; valid: {list(_PLOTS)}")
    relpath, cells, header = _PLOTS[kind]
    _, rows = read_csv(_Inputs(Path(run_dir)).need(relpath))
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out_path, header, (cells(r) for r in rows))
    return out_path
