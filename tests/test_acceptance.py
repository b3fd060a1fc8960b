"""Acceptance suite.

Part A runs on synthetic data only and must stay green in CI. Part B is the
dataset calibration pass: it runs only when the public UCI Online Retail
CSV is supplied via the UCI_ONLINE_RETAIL_CSV environment variable, logs the
achieved numbers, and checks the agreed bands.

Each criterion prints one `[PASS]`/`[FAIL]` line (run with `-s` to see the
lines for passing criteria too).
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from shoplens import cluster as cluster_mod
from shoplens import graph as graph_mod
from shoplens import ingest as ingest_mod
from shoplens import lasso as lasso_mod
from shoplens import nmf as nmf_mod
from shoplens import rfm as rfm_mod
from shoplens._fmt import file_digest
from shoplens.pipeline import PipelineConfig, run_all

from conftest import DATA_DIR, blobs_with_noise
from oracles import (boxcox_grid_lambda, partition_of,
                     projected_gradient_lasso, reference_density_partition)

UCI_ENV = "UCI_ONLINE_RETAIL_CSV"
needs_uci = pytest.mark.skipif(
    not os.environ.get(UCI_ENV),
    reason=f"set {UCI_ENV} to the UCI Online Retail CSV to run calibration")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _random_design(rng):
    n = int(rng.integers(20, 51))
    p = int(rng.integers(10, 81))
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    return lasso_mod.standardize(x, y)


class TestPartA:
    def test_a01_lasso_kkt_suite(self):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            design = _random_design(rng)
            alpha = float(rng.uniform(0.05, 0.6)) * lasso_mod.max_alpha(design)
            model = lasso_mod.fit_lasso(design, alpha)
            viol = max(lasso_mod.kkt_violations(design, model))
            worst = max(worst, viol)
        report("A1 lasso-kkt", worst < 1e-4,
               f"worst KKT violation {worst:.2e} over 20 seeded designs (tol 1e-4)")

    def test_a02_lasso_oracle_equivalence(self):
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            x = rng.standard_normal((6, 4))
            y = rng.standard_normal(6)
            design = lasso_mod.standardize(x, y)
            alpha = 0.05 * lasso_mod.max_alpha(design) + 0.02
            model = lasso_mod.fit_lasso(design, alpha, tol=1e-13, max_iter=200000)
            _, ref = projected_gradient_lasso(design.x, design.y, alpha, tol=1e-10)
            worst = max(worst, float(np.abs(model.beta - ref).max()))
        report("A2 lasso-oracle", worst < 1e-5,
               f"max coefficient gap to projected-gradient reference {worst:.2e} "
               "(tol 1e-5, 10 seeds)")

    def test_a03_soft_threshold_closed_form(self):
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            n, p = 30, 7
            q, _ = np.linalg.qr(rng.standard_normal((n, p)))
            x = np.sqrt(n) * q
            y = rng.standard_normal(n)
            y -= y.mean()
            design = lasso_mod.DesignMatrix(
                x=np.asfortranarray(x), y=y,
                row_ids=[f"r{i}" for i in range(n)],
                col_ids=[f"c{j}" for j in range(p)],
                column_means=np.zeros(p), column_scales=np.ones(p),
                dropped_cols=[])
            alpha = float(rng.uniform(0.05, 0.3))
            model = lasso_mod.fit_lasso(design, alpha, tol=1e-12)
            rho = x.T @ y / n
            analytic = np.sign(rho) * np.maximum(np.abs(rho) - alpha, 0.0)
            worst = max(worst, float(np.abs(model.beta - analytic).max()))
        report("A3 soft-threshold", worst < 1e-8,
               f"max gap to analytic soft-thresholding {worst:.2e} (tol 1e-8)")

    def test_a04_drop_experiment_signal_recovery(self):
        ratios = []
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            x = rng.standard_normal((60, 13))
            x = (x - x.mean(0)) / x.std(0)
            beta = np.zeros(13)
            beta[[0, 1, 2]] = (3.0, -2.0, 1.5)
            y = x @ beta + 0.05 * rng.standard_normal(60)
            design = lasso_mod.standardize(x, y)
            model = lasso_mod.fit_lasso(design, 0.02 * lasso_mod.max_alpha(design))
            holdout = np.arange(0, 60, 5)
            training = design.take(np.setdiff1d(np.arange(60), holdout))
            curve = lasso_mod.drop_experiment(training, design.take(holdout), model)
            mse = dict(curve.points)
            ratios.append(mse[2] / mse[3])
        ok = all(r >= 2.0 for r in ratios)
        report("A4 drop-recovery", ok,
               f"holdout MSE ratio below true support {[round(r, 1) for r in ratios]} "
               "(each must be >= 2.0)")

    def test_a05_nmf_objective_monotone(self):
        worst = -np.inf
        rng = np.random.default_rng(400)
        p = rng.uniform(0.2, 1.2, size=(30, 4)) @ rng.uniform(0.2, 1.2, size=(4, 20))
        configs = [
            (nmf_mod.NmfConfig(k=3, seed=1), None),
            (nmf_mod.NmfConfig(k=5, alpha_m=1.0, l1_ratio=0.1, seed=2), None),
            (nmf_mod.NmfConfig(k=4, alpha_m=2.0, l1_ratio=1.0, seed=3), None),
            (nmf_mod.NmfConfig(k=3, seed=4), nmf_mod.make_holdout_mask(p, seed=4)),
            (nmf_mod.NmfConfig(k=4, alpha_m=0.5, l1_ratio=0.5, seed=5),
             nmf_mod.make_holdout_mask(p, seed=5)),
            (nmf_mod.NmfConfig(k=3, seed=6, init="nndsvd"), None),
        ]
        for cfg, mask in configs:
            f = nmf_mod.fit_nmf(p, cfg, mask=mask)
            worst = max(worst, float(np.diff(f.objective_trace).max()))
        report("A5 nmf-monotone", worst <= 1e-10,
               f"largest objective increase {worst:.2e} across 6 fits "
               "(slack 1e-10, includes regularized and masked fits)")

    def test_a06_nmf_rank_recovery(self):
        hits = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            w = rng.uniform(0.2, 1.2, size=(30, 4))
            h = rng.uniform(0.2, 1.2, size=(4, 20))
            p = np.clip(w @ h + 0.05 * rng.standard_normal((30, 20)), 0.0, None)
            result = nmf_mod.grid_search(p, range(2, 9), [0.0], [0.0], seed=seed)
            hits.append(result.best.k == 4)
        report("A6 nmf-rank", sum(hits) >= 4,
               f"k=4 recovered in {sum(hits)}/5 seeds (need >= 4)")

    def test_a07_masked_fit_isolation(self):
        rng = np.random.default_rng(500)
        p = rng.uniform(0.2, 1.2, size=(30, 4)) @ rng.uniform(0.2, 1.2, size=(4, 20))
        mask = nmf_mod.make_holdout_mask(p, seed=7)
        cfg = nmf_mod.NmfConfig(k=3, alpha_m=0.3, l1_ratio=0.2, seed=7)
        f1 = nmf_mod.fit_nmf(p, cfg, mask=mask)
        perturbed = p.copy()
        for i, j in mask.held_out[:5]:
            perturbed[i, j] += 17.0
        f2 = nmf_mod.fit_nmf(perturbed, cfg, mask=mask)
        ok = np.array_equal(f1.w, f2.w) and np.array_equal(f1.h, f2.h)
        report("A7 masked-isolation", ok,
               "factors bit-identical after perturbing held-out entries")

    def test_a08_boxcox_branches_and_mle(self):
        values = np.linspace(0.1, 100, 143)
        branch_gap = 0.0
        for lam in (-2.0, -0.5, 0.5, 2.0):
            got = np.array([rfm_mod.boxcox_transform(v, rfm_mod.BoxCoxParams(lam=lam))
                            for v in values])
            branch_gap = max(branch_gap, float(
                np.abs(got - (values ** lam - 1.0) / lam).max()))
        got0 = np.array([rfm_mod.boxcox_transform(v, rfm_mod.BoxCoxParams(lam=0.0))
                         for v in values])
        branch_gap = max(branch_gap, float(np.abs(got0 - np.log(values)).max()))

        rng = np.random.default_rng(600)
        sample = np.exp(rng.standard_normal(10000))
        params = rfm_mod.boxcox_lambda_mle(sample)
        oracle = boxcox_grid_lambda(sample + params.shift)
        ok = branch_gap < 1e-12 and abs(params.lam) < 0.15 and abs(params.lam - oracle) <= 2e-3
        report("A8 boxcox", ok,
               f"branch error {branch_gap:.1e} (tol 1e-12); lognormal MLE "
               f"lambda {params.lam:+.4f} (|.| < 0.15), grid oracle gap "
               f"{abs(params.lam - oracle):.1e}")

    def test_a09_clustering_recovery(self):
        all_ok = True
        details = []
        for seed in range(5):
            points, truth = blobs_with_noise(seed)
            labeling = cluster_mod.cluster_rows(points, 5, 5)
            purity = 1.0
            for blob in (0, 1):
                got = labeling.labels[truth == blob]
                majority = np.bincount(got[got >= 0]).argmax() if (got >= 0).any() else -2
                purity = min(purity, float((got == majority).mean()))
            noise_frac = float((labeling.labels[truth == -1] == -1).mean())
            ok = labeling.n_clusters == 2 and purity >= 0.9 and noise_frac > 0.5
            all_ok &= ok
            details.append(f"seed{seed}: c={labeling.n_clusters} purity={purity:.2f} "
                           f"noise={noise_frac:.2f}")

        # small-instance equivalence with the exhaustive reference
        mismatches = 0
        for n in range(5, 13):
            for seed in (0, 1):
                rng = np.random.default_rng(7000 + 10 * n + seed)
                pts = rng.standard_normal((n, 2))
                for mcs in (2, 3):
                    got = cluster_mod.cluster_rows(pts, mcs, 1)
                    ref = reference_density_partition(pts, 1, mcs)
                    if partition_of(got.labels) != ref:
                        mismatches += 1
        all_ok &= mismatches == 0
        report("A9 clustering", all_ok,
               "; ".join(details) + f"; small-instance mismatches: {mismatches}")

    def test_a10_pipeline_determinism(self, tmp_path, monkeypatch):
        base_cfg = PipelineConfig.load(DATA_DIR / "fixture_config.json")
        snapshots = []
        for sub in ("one", "two"):
            workdir = tmp_path / sub
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            cfg = PipelineConfig.from_dict({
                **base_cfg.to_dict(),
                "input_path": str(DATA_DIR / "fixture_invoices.csv"),
                "output_dir": "run"})
            run_all(cfg)
            digests = {}
            for path in sorted((workdir / "run").rglob("*")):
                if path.is_file() and path.name != "manifest.json":
                    digests[str(path.relative_to(workdir))] = file_digest(path)
            manifest = json.loads((workdir / "run" / "manifest.json").read_text())
            digests["__manifest__"] = json.dumps(
                [(s["name"], s["inputs"], s["outputs"]) for s in manifest["stages"]])
            snapshots.append(digests)
        ok = snapshots[0] == snapshots[1]
        report("A10 determinism", ok,
               f"{len(snapshots[0]) - 1} artifacts byte-identical across two runs")

    def test_a11_graph_round_trip_and_similarity(self, tmp_path):
        rng = np.random.default_rng(700)
        ids = [f"c{i}" for i in range(10)]
        w = rng.uniform(0.1, 2.0, size=(10, 4))
        h = rng.uniform(0.1, 2.0, size=(4, 3))
        f = nmf_mod.Factorization(w=w, h=h, objective_trace=[], converged=True,
                                  n_iter=0, row_ids=ids, col_ids=["x", "y", "z"])
        doc = graph_mod.attach_embeddings(graph_mod.build_affinity_graph(f), f,
                                          np.zeros(10, dtype=int))
        n1, e1 = graph_mod.export_jsonl(doc, tmp_path, "g")
        doc2 = graph_mod.import_jsonl(n1, e1)
        n2, e2 = graph_mod.export_jsonl(doc2, tmp_path / "again", "g")
        stable = (n1.read_bytes() == n2.read_bytes()
                  and e1.read_bytes() == e2.read_bytes())

        sims_ok = True
        for query in ids:
            got = graph_mod.similar_nodes(doc2, query, 9)
            qi = ids.index(query)
            expected = sorted(
                ((ids[i], float(w[qi] @ w[i]
                                / (np.linalg.norm(w[qi]) * np.linalg.norm(w[i]))))
                 for i in range(10) if i != qi),
                key=lambda t: (-t[1], t[0]))
            if [g[0] for g in got] != [e[0] for e in expected]:
                sims_ok = False
            if max(abs(g[1] - e[1]) for g, e in zip(got, expected)) > 1e-9:
                sims_ok = False
        report("A11 graph", stable and sims_ok,
               f"round-trip byte-stable={stable}, "
               f"similarity matches brute-force cosine oracle={sims_ok}")


@needs_uci
class TestPartB:
    """Dataset calibration against the public UCI Online Retail file."""

    @pytest.fixture(scope="class")
    def uci(self):
        path = Path(os.environ[UCI_ENV])
        try:
            lines, rejects = ingest_mod.parse_invoice_csv(path)
        except ValueError:
            lines, rejects = ingest_mod.parse_invoice_csv(path, encoding="latin-1")
        txns = ingest_mod.clean_transactions(lines)
        segments = ingest_mod.segment_customers(txns)
        frequent = [s.customer_id for s in segments
                    if s.segment is ingest_mod.Segment.FREQUENT]
        matrix = ingest_mod.build_incidence_matrix(txns, frequent)
        return txns, segments, frequent, matrix

    @pytest.fixture(scope="class")
    def uci_design(self, uci):
        _, segments, _, matrix = uci
        members = [s for s in segments if s.segment is ingest_mod.Segment.FREQUENT]
        as_of = max(s.last_purchase for s in members)
        scores, params = rfm_mod.score_customers(members, as_of, rfm_mod.RfmWeights())
        print(f"  [B] fitted box-cox lambda={params.lam:.4f} shift={params.shift:.2e}")

        def skew(a):
            a = np.asarray(a) - np.mean(a)
            return float((a ** 3).mean() / (a ** 2).mean() ** 1.5)

        raw = skew([s.gamma for s in scores])
        transformed = skew([s.gamma_prime for s in scores])
        print(f"  [B] score skewness raw={raw:+.3f} transformed={transformed:+.3f}")
        assert abs(transformed) <= abs(raw), "transform worsened skewness"

        design = lasso_mod.standardize(
            matrix, {s.customer_id: s.gamma_prime for s in scores})
        return design

    @pytest.fixture(scope="class")
    def uci_selection(self, uci, uci_design):
        _, _, _, matrix = uci
        design = uci_design
        n = len(design.y)
        rng = np.random.default_rng(0)
        holdout = np.sort(rng.choice(n, size=max(1, round(0.2 * n)), replace=False))
        train = np.setdiff1d(np.arange(n), holdout)
        training = design.take(train)
        hi = lasso_mod.max_alpha(training)
        grid = hi * np.logspace(-4, 0, 100)
        alpha_best, _, _ = lasso_mod.cross_validate_alpha(training, grid, 5, 0)
        model = lasso_mod.fit_lasso(training, alpha_best)
        curve = lasso_mod.drop_experiment(training, design.take(holdout), model)
        ranking = lasso_mod.select_features(curve)
        if ranking.selected_count == 0:
            pytest.fail("feature selection kept nothing on this dataset; "
                        "downstream calibration cannot run")
        p_prime = matrix.restrict_columns([c for c, _ in ranking.ranked])
        return design, train, alpha_best, model, curve, ranking, p_prime

    def test_b12_segmentation_calibration(self, uci):
        _, segments, frequent, matrix = uci
        n_frequent = len(frequent)
        n_items = matrix.shape[1]
        ok = (abs(n_frequent - 447) <= 0.1 * 447
              and abs(n_items - 2664) <= 0.1 * 2664)
        report("B12 segmentation", ok,
               f"frequent shoppers {n_frequent} (target 447 +/- 10%), "
               f"items {n_items} (target 2664 +/- 10%), "
               f"registered {len(segments)}")

    def test_b13_lasso_calibration(self, uci_selection):
        design, train, alpha_best, model, curve, ranking, _ = uci_selection
        support = model.support()
        intercept, coefs, _ = lasso_mod.ols_refit(design.x[train][:, support],
                                                  design.y[train])
        pred = intercept + design.x[train][:, support] @ coefs
        ss_res = float(((design.y[train] - pred) ** 2).sum())
        ss_tot = float(((design.y[train] - design.y[train].mean()) ** 2).sum())
        r2 = 1.0 - ss_res / ss_tot

        # log the fit at the paper's alpha too; convention-dependent, not asserted
        paper_model = lasso_mod.fit_lasso(design.take(train), 0.22)
        psup = paper_model.support()
        if psup:
            pi, pc, _ = lasso_mod.ols_refit(design.x[train][:, psup],
                                            design.y[train])
            ppred = pi + design.x[train][:, psup] @ pc
            pr2 = 1.0 - float(((design.y[train] - ppred) ** 2).sum()) / ss_tot
            print(f"  [B] at alpha=0.22: support={len(psup)}, R2={pr2:.3f}")

        ok = r2 >= 0.80 and 1 <= ranking.selected_count <= 80
        report("B13 lasso", ok,
               f"alpha_best={alpha_best:.4f}, support={len(support)}, "
               f"R2={r2:.3f} (>= 0.80), m'={ranking.selected_count} (1..80; "
               "paper: 75 features, R2 0.855)")

    def test_b14_nmf_grid_calibration(self, uci_selection):
        *_, p_prime = uci_selection
        result = nmf_mod.grid_search(p_prime.to_dense(), range(2, 21),
                                     (0.0, 0.1, 0.5, 1.0, 2.0),
                                     (0.0, 0.1, 0.5, 0.9, 1.0), seed=0)
        best = result.best
        by_k = {}
        for k, a, l1, mse in result.table:
            if (a, l1) == (best.alpha_m, best.l1_ratio) and not np.isnan(mse):
                by_k[k] = mse
        curve_ok = by_k[best.k] <= by_k[min(by_k)] and by_k[best.k] <= by_k[max(by_k)]
        ok = best.k in (4, 5, 6) and curve_ok
        report("B14 nmf-grid", ok,
               f"best k={best.k} (target 4..6; paper 5), alpha_m={best.alpha_m}, "
               f"l1_ratio={best.l1_ratio}, curve dips at best k: {curve_ok}")

    def test_b15_cluster_calibration(self, uci_selection):
        *_, p_prime = uci_selection
        result = nmf_mod.grid_search(p_prime.to_dense(), range(2, 21),
                                     (0.0, 0.1, 0.5, 1.0, 2.0),
                                     (0.0, 0.1, 0.5, 0.9, 1.0), seed=0)
        f = nmf_mod.fit_nmf(p_prime.to_dense(), result.best)
        labeling = cluster_mod.cluster_rows(f.w, 5, 5)
        noise = labeling.sizes.get(-1, 0)
        ok = labeling.n_clusters >= 3 and noise > f.w.shape[0] / 2
        report("B15 clustering", ok,
               f"clusters={labeling.n_clusters} (>= 3), sizes={labeling.sizes} "
               f"(paper: 5 clusters, noise 338 of 447)")
