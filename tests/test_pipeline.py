import inspect
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shoplens import cluster, ingest, lasso
from shoplens._fmt import file_digest, read_csv
from shoplens.cli import _apply_overrides, _base_config, build_parser
from shoplens.cli import main as cli_main
from shoplens.ingest import read_matrix
from shoplens.pipeline import (STAGES, MissingStageError, PipelineConfig,
                               emit_plot_data, run_all, run_stage)

from conftest import DATA_DIR
from oracles import reference_grid_search


def fixture_config(fixture_csv, fixture_config_path, out_dir) -> PipelineConfig:
    cfg = PipelineConfig.load(fixture_config_path)
    return PipelineConfig.from_dict({
        **cfg.to_dict(), "input_path": str(fixture_csv), "output_dir": str(out_dir)})


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One shared full pipeline run over the bundled fixture."""
    out = tmp_path_factory.mktemp("full") / "run"
    cfg = fixture_config(DATA_DIR / "fixture_invoices.csv",
                         DATA_DIR / "fixture_config.json", out)
    entries = run_all(cfg)
    return cfg, out, entries


class TestStageOrdering:
    def test_rfm_before_ingest_names_ingest(self, fixture_csv,
                                            fixture_config_path, tmp_path):
        cfg = fixture_config(fixture_csv, fixture_config_path, tmp_path / "r")
        with pytest.raises(MissingStageError) as err:
            run_stage("rfm", cfg)
        assert err.value.required_stage == "ingest"
        assert "ingest" in str(err.value)

    def test_cluster_before_factorize_names_factorize(self, fixture_csv,
                                                      fixture_config_path,
                                                      tmp_path):
        cfg = fixture_config(fixture_csv, fixture_config_path, tmp_path / "r")
        run_stage("ingest", cfg)
        with pytest.raises(MissingStageError) as err:
            run_stage("cluster", cfg)
        assert err.value.required_stage == "factorize"

    def test_unknown_stage(self, fixture_csv, fixture_config_path, tmp_path):
        cfg = fixture_config(fixture_csv, fixture_config_path, tmp_path / "r")
        with pytest.raises(ValueError, match="unknown stage"):
            run_stage("shuffle", cfg)


# Runs the CLI with an audit hook that records, per stage, every file the
# stage function opens under the run directory or at the input. Digests are
# taken after the function returns, so every open recorded is a read.
AUDIT_OPENS = """
import json, os, sys
from pathlib import Path
from shoplens import cli, pipeline

run_dir, source = Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()
current, opened = [None], {}

def hook(event, args):
    if event == "open" and current[0]:
        path = Path(os.fsdecode(args[0])).resolve()
        if path == source or run_dir in path.parents:
            opened[current[0]].add((str(path), args[1]))

def traced(name, run):
    def stage(*args):
        current[0], opened[name] = name, set()
        try:
            return run(*args)
        finally:
            current[0] = None
    return stage

for name, stage in pipeline.STAGES.items():
    pipeline.STAGES[name] = stage._replace(run=traced(name, stage.run))
sys.addaudithook(hook)
rc = cli.main(sys.argv[3:])
print(json.dumps([rc, {name: sorted(path for path, mode in paths if mode == "r")
                       for name, paths in opened.items()}]))
"""


class TestStageInputs:
    def test_manifest_inputs_are_the_files_each_stage_opens(
            self, fixture_csv, fixture_config_path, tmp_path):
        import shoplens
        run_dir = tmp_path / "run"
        env = dict(os.environ)
        src = str(Path(shoplens.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", AUDIT_OPENS, str(run_dir), str(fixture_csv),
             "--config", str(fixture_config_path), "run-all",
             "--input", str(fixture_csv), "--out", str(run_dir)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        rc, opened = json.loads(proc.stdout.splitlines()[-1])
        assert rc == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        declared = {s["name"]: sorted(str((run_dir / rel).resolve()) for rel in s["inputs"])
                    for s in manifest["stages"]}
        assert list(opened) == list(declared)
        for name, paths in declared.items():
            assert opened[name] == paths, name
        assert declared["rfm"] == [str((run_dir / "ingest" / "segments.csv").resolve())]

    def test_rfm_does_not_read_the_transactions(self, full_run, fixture_config_path,
                                                tmp_path):
        _, out, _ = full_run
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        (run_dir / "ingest" / "transactions.csv").unlink()
        (run_dir / "rfm" / "scores.csv").unlink()
        rc = cli_main(["--config", str(fixture_config_path), "rfm", "--out", str(run_dir)])
        assert rc == 0
        assert (run_dir / "rfm" / "scores.csv").read_bytes() == \
            (out / "rfm" / "scores.csv").read_bytes()

    def test_stale_segments_name_the_file(self, full_run, fixture_config_path,
                                          tmp_path, capsys):
        # The three columns segments.csv had before it carried the purchase summary.
        _, out, _ = full_run
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        path = run_dir / "ingest" / "segments.csv"
        path.write_text("".join(",".join(line.split(",")[:3]) + "\n" for line in
                                path.read_text(encoding="utf-8").splitlines()),
                        encoding="utf-8")
        rc = cli_main(["--config", str(fixture_config_path), "rfm", "--out", str(run_dir)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {path}: columns ['customer_id', 'segment', "
                              f"'n_purchases'], expected")
        assert "re-run the 'ingest' stage" in err

    @pytest.mark.parametrize("stage, deleted, named", [
        ("export-graph", "factorize/H.csv", "factorize"),
        ("grid-search", "select-features/p_prime.rows.txt", "select-features"),
    ])
    def test_missing_sidecar_names_its_stage(self, full_run, fixture_config_path,
                                             tmp_path, capsys, stage, deleted, named):
        _, out, _ = full_run
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        (run_dir / deleted).unlink()
        rc = cli_main(["--config", str(fixture_config_path), stage, "--out", str(run_dir)])
        assert rc == 2
        assert f"run the '{named}' stage first" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, relpath", [
        ("rfm", "ingest/segments.csv"),
        ("select-features", "rfm/scores.csv"),
        ("cluster", "factorize/W.csv"),
        ("export-graph", "cluster/labels.csv"),
    ])
    def test_short_row_in_an_input_names_the_file(self, full_run, fixture_config_path,
                                                  tmp_path, capsys, stage, relpath):
        _, out, _ = full_run
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        path = run_dir / relpath
        header, first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join([header, first.rsplit(",", 1)[0] + "\n", *rest]),
                        encoding="utf-8")
        rc = cli_main(["--config", str(fixture_config_path), stage, "--out", str(run_dir)])
        width = header.count(",") + 1
        assert (rc, capsys.readouterr().err) == (
            1, f"error: {path}: a row does not have {width} cells\n")


class TestFullRun:
    def test_manifest_has_seven_stage_entries(self, full_run):
        _, out, entries = full_run
        assert len(entries) == 7
        manifest = json.loads((out / "manifest.json").read_text())
        assert [s["name"] for s in manifest["stages"]] == [
            "ingest", "rfm", "select-features", "grid-search",
            "factorize", "cluster", "export-graph"]

    def test_manifest_digests_verify(self, full_run):
        _, out, _ = full_run
        manifest = json.loads((out / "manifest.json").read_text())
        for stage in manifest["stages"]:
            for rel, digest in stage["outputs"].items():
                assert file_digest(out / rel) == digest, rel

    def test_rerun_single_stage_reproduces_digests(self, full_run):
        cfg, out, entries = full_run
        before = next(e for e in entries if e["name"] == "factorize")["outputs"]
        after = run_stage("factorize", cfg)["outputs"]
        assert before == after

    def test_config_written_canonically(self, full_run):
        cfg, out, _ = full_run
        stored = json.loads((out / "config.json").read_text())
        assert stored == json.loads(json.dumps(cfg.resolved().to_dict()))
        assert stored["lasso"]["seed"] is not None  # seeds are explicit

    def test_metrics_recorded(self, full_run):
        _, out, entries = full_run
        by_name = {e["name"]: e["metrics"] for e in entries}
        assert by_name["ingest"]["frequent_shoppers"] == 32
        assert by_name["rfm"]["lambda"] is not None
        assert by_name["select-features"]["m_prime"] >= 1
        assert by_name["cluster"]["n_clusters"] >= 0

    def test_fit_counts_recorded(self, full_run):
        cfg, out, entries = full_run
        cfg = cfg.resolved()
        by_name = {e["name"]: e["metrics"] for e in entries}
        grid = by_name["grid-search"]
        p_prime = read_matrix(out / "select-features", "p_prime")
        _, fits = reference_grid_search(
            p_prime.to_dense(), range(cfg.nmf.k_min, cfg.nmf.k_max + 1), cfg.nmf.alpha_grid,
            cfg.nmf.l1_grid, seed=cfg.nmf.seed, tol=cfg.nmf.tol,
            max_iter=cfg.nmf.max_iter, init=cfg.nmf.init,
            holdout_fraction=cfg.nmf.holdout_fraction)
        assert grid["fits"] == len(fits)
        assert grid["iterations"] == sum(n_iter for n_iter, _ in fits)
        assert grid["unconverged_cells"] == sum(1 for _, c in fits if not c)
        select = by_name["select-features"]
        _, curve = read_csv(out / "select-features" / "cv_curve.csv")
        assert select["cv_fits"] + select["cv_unreached_fits"] == cfg.lasso.folds * len(curve)
        assert all(float(m) == float(m) for _, m in curve) == (select["cv_unreached_fits"] == 0)
        assert 0 <= select["cv_unconverged_fits"] <= select["cv_fits"]
        header, rows = read_csv(out / "select-features" / "cv_fits.csv")
        assert header == ["fold", "alpha", "n_iter", "converged", "duality_gap"]
        assert len(rows) == select["cv_fits"]
        assert [int(r[0]) for r in rows] == sorted(int(r[0]) for r in rows)
        assert sum(r[3] == "false" for r in rows) == select["cv_unconverged_fits"]
        assert max(float(r[4]) for r in rows) == select["cv_max_duality_gap"]

    def test_drop_curve_matches_reference_refits(self, full_run):
        from oracles import reference_drop_experiment
        cfg, out, _ = full_run
        cfg = cfg.resolved()
        sel = out / "select-features"
        model_doc = json.loads((sel / "model.json").read_text(encoding="utf-8"))
        _, scores = read_csv(out / "rfm" / "scores.csv")
        design = lasso.standardize(read_matrix(out / "ingest", "matrix"),
                                   {r[0]: float(r[2]) for r in scores})
        held = set(model_doc["holdout_rows"])
        rows = np.arange(len(design.y))
        in_holdout = np.array([r in held for r in design.row_ids])
        training, holdout = design.take(rows[~in_holdout]), design.take(rows[in_holdout])
        model = lasso.fit_lasso(training, model_doc["alpha"], tol=cfg.lasso.tol,
                                max_iter=cfg.lasso.max_iter)
        got = lasso.drop_experiment(training, holdout, model)
        want = reference_drop_experiment(training, holdout, model)
        assert (got.dropped, got.ridge_fallback_steps) == (want.dropped,
                                                           want.ridge_fallback_steps)
        for (n_got, m_got), (n_want, m_want) in zip(got.points, want.points):
            assert n_got == n_want and abs(m_got - m_want) <= 1e-12 * m_want
        _, recorded = read_csv(sel / "drop_curve.csv")
        assert [(int(n), float(m)) for n, m in recorded] == got.points

    def test_factors_carry_p_prime_ids(self, full_run):
        _, out, _ = full_run
        rows = (out / "select-features" / "p_prime.rows.txt").read_text().splitlines()
        cols = (out / "select-features" / "p_prime.cols.txt").read_text().splitlines()
        _, w_rows = read_csv(out / "factorize" / "W.csv")
        h_header, _ = read_csv(out / "factorize" / "H.csv")
        assert [r[0] for r in w_rows] == rows
        assert h_header[1:] == cols

    def test_model_reports_duality_gap(self, full_run):
        _, out, _ = full_run
        model = json.loads((out / "select-features" / "model.json").read_text())
        assert np.isfinite(model["duality_gap"])
        assert model["duality_gap"] >= -1e-12

    def test_scores_cover_frequent_members(self, full_run):
        _, out, _ = full_run
        _, rows = read_csv(out / "rfm" / "scores.csv")
        _, matrix_rows = read_csv(out / "ingest" / "matrix.triplets.csv")
        assert {r[0] for r in matrix_rows} <= {r[0] for r in rows}


INVOICE_HEADER = "InvoiceNo,StockCode,Description,Quantity,InvoiceDate,UnitPrice,CustomerID,Country\n"


def one_item_invoices(path: Path) -> Path:
    """8 frequent shoppers who each buy the same item for the same total."""
    lines = [f"{1001 + 5 * c + k},PEN04,GEL PEN SET,2,{1 + k}/{10 + c}/2011 10:00,1.50,"
             f"C{c},United Kingdom\n" for c in range(8) for k in range(5)]
    path.write_text(INVOICE_HEADER + "".join(lines), encoding="utf-8")
    return path


def random_invoices(path: Path, seed: int, customers: int = 12, items: int = 6) -> Path:
    """Shoppers with 5 to 7 invoices each, of 1 to 3 of the items."""
    rng = np.random.default_rng(seed)
    lines, invoice = [], 1000
    for c in range(customers):
        for _ in range(int(rng.integers(5, 8))):
            invoice += 1
            for item in rng.choice(items, size=int(rng.integers(1, 4)), replace=False):
                lines.append(f"{invoice},SKU{item},ITEM {item},{int(rng.integers(1, 10))},"
                             f"{int(rng.integers(1, 13))}/{int(rng.integers(1, 28))}/2011 10:00,"
                             f"{int(rng.integers(1, 9))}.50,C{c},United Kingdom\n")
    path.write_text(INVOICE_HEADER + "".join(lines), encoding="utf-8")
    return path


class TestDegenerateInputs:
    """Well-formed inputs that leave a stage nothing to fit end with a
    message that names the stage, the cause and the counts involved."""

    def run_all(self, fixture_config_path, csv, tmp_path, capsys, *flags):
        rc = cli_main(["--config", str(fixture_config_path), "run-all",
                       "--input", str(csv), "--out", str(tmp_path / "run"), *flags])
        return rc, capsys.readouterr().err

    def test_no_frequent_shopper(self, fixture_config_path, tmp_path, capsys):
        lines = [f"{1001 + 4 * c + k},SKU{k},ITEM,{1 + k},{1 + k}/{10 + c}/2011 10:00,1.50,"
                 f"C{c},United Kingdom\n" for c in range(3) for k in range(4)]
        lines.append("2001,SKU0,ITEM,1500,6/1/2011 10:00,1.50,C9,United Kingdom\n")
        csv = tmp_path / "infrequent.csv"
        csv.write_text(INVOICE_HEADER + "".join(lines), encoding="utf-8")
        assert self.run_all(fixture_config_path, csv, tmp_path, capsys) == (
            1, "error: ingest: no frequent shoppers among the 4 registered customers: "
               "1 wholesale, 3 with fewer than 5 invoices\n")

    def test_two_frequent_shoppers(self, fixture_config_path, tmp_path, capsys):
        lines = [f"{1001 + 5 * c + k},SKU{(k + c) % 3},ITEM,{1 + k},{1 + k}/{10 + c}/2011 "
                 f"10:00,{1.5 + c},C{c},United Kingdom\n" for c in range(2) for k in range(5)]
        csv = tmp_path / "two.csv"
        csv.write_text(INVOICE_HEADER + "".join(lines), encoding="utf-8")
        assert self.run_all(fixture_config_path, csv, tmp_path, capsys) == (
            1, "error: rfm: the Box-Cox fit needs at least 3 frequent shoppers, got 2\n")

    def test_every_item_column_constant(self, fixture_config_path, tmp_path, capsys):
        csv = one_item_invoices(tmp_path / "one_item.csv")
        assert self.run_all(fixture_config_path, csv, tmp_path, capsys) == (
            1, "error: select-features: every item column is constant over the "
               "8 frequent shoppers\n")

    def test_empty_model_at_alpha_best(self, fixture_config_path, tmp_path, capsys):
        csv = random_invoices(tmp_path / "random.csv", seed=3)
        rc, err = self.run_all(fixture_config_path, csv, tmp_path, capsys)
        assert rc == 1
        assert err == ("error: select-features: the model at alpha_best = 0.204721 "
                       "(alpha_max = 0.204721) has no nonzero coefficients\n")

    def test_drop_curve_keeps_no_feature(self, fixture_config_path, tmp_path, capsys):
        csv = random_invoices(tmp_path / "random.csv", seed=27)
        rc, err = self.run_all(fixture_config_path, csv, tmp_path, capsys)
        assert rc == 1
        assert err == ("error: select-features: the drop curve keeps 0 features: the "
                       "intercept-only holdout MSE 0.0173154 is within slack 0.05 of the curve "
                       "minimum 0.0173154\n")

    def test_folds_of_one_row(self, fixture_config_path, tmp_path, capsys):
        csv = random_invoices(tmp_path / "random.csv", seed=0, customers=4)
        assert self.run_all(fixture_config_path, csv, tmp_path, capsys) == (
            1, "error: select-features: 2 folds of 3 rows leave one with 1; need at least "
               "2 rows per fold (4 frequent shoppers, 1 held out)\n")

    def test_no_alpha_reached_by_every_fold(self, fixture_config_path, tmp_path, capsys):
        csv = random_invoices(tmp_path / "random.csv", seed=6, customers=6, items=5)
        assert self.run_all(fixture_config_path, csv, tmp_path, capsys) == (
            1, "error: select-features: no alpha in the grid is reached by every fold's path "
               "over 4 rows in 2 folds; the largest is 0.876594 (6 frequent shoppers, "
               "2 held out)\n")

    def test_k_min_above_the_selected_items(self, fixture_csv, fixture_config_path,
                                            tmp_path, capsys):
        rc, err = self.run_all(fixture_config_path, fixture_csv, tmp_path, capsys,
                               "--k-min", "4", "--k-max", "4")
        assert rc == 1
        assert err == ("error: grid-search: k_min = 4 exceeds min(n, m′) = 3, with n = 32 "
                       "frequent shoppers and m′ = 3 selected items\n")


@st.composite
def invoice_files(draw) -> str:
    """A small invoice file as CSV text: 0 to 13 customers buying from 1 to
    5 items on 1 to 8 invoices each (5 to 8 twice as often, so that more
    files reach the stages after ingest and rfm). Some lines carry a
    negative, zero or wholesale quantity or a zero price, some invoices are
    cancellations (a C prefix), some lines are anonymous, and some files put
    every purchase on one day."""
    items = draw(st.integers(1, 5))
    one_day = draw(st.booleans())
    quantity = st.sampled_from([*range(1, 13)] * 4 + [-3, 0, 1500])
    price = st.sampled_from(["0.85", "1.50", "2.10", "4.95", "0.00"])
    prefix = st.sampled_from([""] * 9 + ["C"])
    lines, number = [], 1000
    for c in range(draw(st.sampled_from(range(14)))):
        customer = st.sampled_from([f"C{c}"] * 9 + [""])
        for _ in range(draw(st.sampled_from([*range(1, 9), *range(5, 9)]))):
            number += 1
            invoice = f"{draw(prefix)}{number}"
            day = ("1/5/2011" if one_day
                   else f"{draw(st.integers(1, 12))}/{draw(st.integers(1, 28))}/2011")
            for item in draw(st.lists(st.integers(0, items - 1), min_size=1,
                                      max_size=items, unique=True)):
                lines.append(f"{invoice},SKU{item},ITEM {item},{draw(quantity)},{day} 10:00,"
                             f"{draw(price)},{draw(customer)},United Kingdom\n")
    return INVOICE_HEADER + "".join(lines)


class TestGeneratedInvoices:
    # Derandomized, so every tier-1 run draws the same files; the fixture
    # is the one example sure to run every stage.
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(text=invoice_files())
    @example(text=(DATA_DIR / "fixture_invoices.csv").read_text(encoding="utf-8"))
    def test_run_all_succeeds_or_names_the_stage(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            csv = Path(tmp) / "invoices.csv"
            csv.write_text(text, encoding="utf-8")
            cfg = fixture_config(csv, DATA_DIR / "fixture_config.json", Path(tmp) / "run")
            try:
                run_all(cfg)
            except ValueError as err:
                assert str(err).startswith(tuple(f"{name}: " for name in STAGES)), err


class TestDeterminism:
    def test_run_all_byte_identical(self, fixture_csv, fixture_config_path,
                                    tmp_path, monkeypatch):
        digests = []
        for sub in ("one", "two"):
            base = tmp_path / sub
            base.mkdir()
            monkeypatch.chdir(base)
            cfg = fixture_config(fixture_csv, fixture_config_path, "run")
            run_all(cfg)
            per_file = {}
            for path in sorted((base / "run").rglob("*")):
                if path.is_file() and path.name != "manifest.json":
                    per_file[str(path.relative_to(base))] = file_digest(path)
            manifest = json.loads((base / "run" / "manifest.json").read_text())
            per_file["__manifest_digests__"] = json.dumps(
                [(s["name"], s["inputs"], s["outputs"]) for s in manifest["stages"]])
            digests.append(per_file)
        assert digests[0] == digests[1]


class TestPlotData:
    @pytest.mark.parametrize("kind,expected_header", [
        ("drop-curve", ["n_features", "holdout_mse"]),
        ("feature-importance", ["rank", "abs_beta", "stock_code"]),
        ("grid-mse", ["k", "alpha_m", "l1_ratio", "imputation_mse"]),
        ("dictionary-profile", ["element", "item", "weight"]),
        ("cluster-sizes", ["cluster_id", "size"]),
        ("centroid-profile", ["cluster_id", "element", "normalized"]),
    ])
    def test_kinds_emit_expected_schema(self, full_run, tmp_path, kind,
                                        expected_header):
        _, out, _ = full_run
        dest = tmp_path / f"{kind}.csv"
        emit_plot_data(out, kind, dest)
        header, rows = read_csv(dest)
        assert header == expected_header
        assert rows

    def test_cluster_sizes_rows_count_noise(self, full_run, tmp_path):
        _, out, entries = full_run
        metrics = next(e for e in entries if e["name"] == "cluster")["metrics"]
        dest = tmp_path / "sizes.csv"
        emit_plot_data(out, "cluster-sizes", dest)
        _, rows = read_csv(dest)
        expected = metrics["n_clusters"] + (1 if metrics["noise"] else 0)
        assert len(rows) == expected

    def test_unknown_kind_lists_valid_ids(self, full_run, tmp_path):
        _, out, _ = full_run
        with pytest.raises(ValueError, match="drop-curve"):
            emit_plot_data(out, "spiral", tmp_path / "plots" / "x.csv")
        assert not (tmp_path / "plots").exists()


class TestCli:
    def test_run_all_and_query_similar(self, fixture_csv, fixture_config_path,
                                       tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli_main(["--config", str(fixture_config_path), "run-all",
                       "--input", str(fixture_csv), "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "ingest" / "matrix.triplets.csv")
        some_customer = rows[0][0]
        capsys.readouterr()
        rc = cli_main(["query-similar", "--out", str(out),
                       "--node", some_customer, "--top", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 1 <= len(lines) <= 3
        assert "\t" in lines[0]

    def test_query_similar_without_graph_names_export_graph(self, tmp_path, capsys):
        rc = cli_main(["query-similar", "--out", str(tmp_path / "run"), "--node", "C1"])
        assert rc == 2
        assert "run the 'export-graph' stage first" in capsys.readouterr().err

    def test_plot_data_subcommand(self, fixture_csv, fixture_config_path,
                                  tmp_path, capsys):
        out = tmp_path / "run"
        cfg = fixture_config(fixture_csv, fixture_config_path, out)
        for stage in ("ingest", "rfm", "select-features"):
            run_stage(stage, cfg)
        dest = tmp_path / "curve.csv"
        rc = cli_main(["plot-data", "--out", str(out), "--kind", "drop-curve",
                       "--file", str(dest)])
        assert rc == 0
        assert dest.exists()

    def test_missing_upstream_is_a_clean_error(self, fixture_csv,
                                               fixture_config_path, tmp_path,
                                               capsys):
        rc = cli_main(["--config", str(fixture_config_path), "rfm",
                       "--input", str(fixture_csv),
                       "--out", str(tmp_path / "empty")])
        assert rc == 2
        assert "ingest" in capsys.readouterr().err

    def test_stage_flag_overrides(self, fixture_csv, fixture_config_path,
                                  tmp_path):
        out = tmp_path / "run"
        cfg = fixture_config(fixture_csv, fixture_config_path, out)
        for stage in ("ingest", "rfm", "select-features", "grid-search"):
            run_stage(stage, cfg)
        rc = cli_main(["--config", str(fixture_config_path), "factorize",
                       "--input", str(fixture_csv), "--out", str(out),
                       "--k", "2", "--alpha-m", "0.1", "--l1-ratio", "0.0"])
        assert rc == 0
        stored = json.loads((out / "factorize" / "nmf_config.json").read_text())
        assert stored["k"] == 2
        assert stored["alpha_m"] == 0.1

    def test_quoted_comma_stock_code_is_rejected_not_fatal(
            self, fixture_csv, fixture_config_path, tmp_path):
        src = tmp_path / "invoices.csv"
        src.write_text(fixture_csv.read_text(encoding="utf-8")
                       + '1001,"PEN,04",GEL PEN SET,7,3/20/2011 11:25,1.50,A100,'
                         'United Kingdom\n', encoding="utf-8")
        out = tmp_path / "run"
        rc = cli_main(["--config", str(fixture_config_path), "ingest",
                       "--input", str(src), "--out", str(out)])
        assert rc == 0
        rejects = [json.loads(line) for line in
                   (out / "ingest" / "rejects.jsonl").read_text().splitlines()]
        assert any(r["raw"]["StockCode"] == "PEN,04" and r["column"] == "StockCode"
                   for r in rejects)
        _, rows = read_csv(out / "ingest" / "transactions.csv")
        assert all(len(row) == 6 for row in rows)

    def test_line_boundary_in_stock_code_is_rejected_not_fatal(
            self, fixture_csv, fixture_config_path, tmp_path):
        # The artifact readers split lines with str.splitlines(), which also
        # breaks at U+2028: such a stock code used to pass ingest and make
        # rfm fail on a short transactions.csv row.
        text = fixture_csv.read_text(encoding="utf-8")
        last = len(text.splitlines())
        src = tmp_path / "invoices.csv"
        src.write_text(text + "1001,A\u2028B,GEL PEN SET,7,3/20/2011 11:25,1.50,A100,"
                              "United Kingdom\n" * 6, encoding="utf-8")
        out = tmp_path / "run"
        for stage in ("ingest", "rfm"):
            rc = cli_main(["--config", str(fixture_config_path), stage,
                           "--input", str(src), "--out", str(out)])
            assert rc == 0
        rejects = [json.loads(line) for line in
                   (out / "ingest" / "rejects.jsonl").read_text().splitlines()]
        assert [(r["line"], r["column"]) for r in rejects[-6:]] == [
            (last + i, "StockCode") for i in range(1, 7)]
        assert "A\u2028B" not in (out / "ingest" / "matrix.cols.txt").read_text()

    def test_long_row_is_rejected_not_fatal(self, fixture_csv, fixture_config_path,
                                            tmp_path):
        src = tmp_path / "invoices.csv"
        src.write_text(fixture_csv.read_text(encoding="utf-8")
                       + "1001,85123B,LONG ROW,x,3/20/2011 11:25,2.55,A100,"
                         "United Kingdom,extra\n", encoding="utf-8")
        out = tmp_path / "run"
        rc = cli_main(["--config", str(fixture_config_path), "ingest",
                       "--input", str(src), "--out", str(out)])
        assert rc == 0
        rejects = [json.loads(line) for line in
                   (out / "ingest" / "rejects.jsonl").read_text().splitlines()]
        assert any(r["raw"].get("null") == ["extra"] and r["column"] == "Quantity"
                   for r in rejects)

    def test_non_finite_and_out_of_range_numbers_are_rejected_not_fatal(
            self, fixture_csv, fixture_config_path, tmp_path):
        # A100 is a frequent shopper and PEN04 one of its matrix columns: a
        # NaN spend used to abort ingest, an infinite one rfm, and a huge
        # quantity silently made A100 wholesale.
        text = fixture_csv.read_text(encoding="utf-8")
        last = len(text.splitlines())
        src = tmp_path / "invoices.csv"
        src.write_text(text + "".join(
            f"1001,PEN04,GEL PEN SET,{q},3/20/2011 11:25,{p},A100,United Kingdom\n"
            for q, p in [(7, "nan"), (7, "inf"), (10 ** 20, "1.50")]), encoding="utf-8")
        out = tmp_path / "run"
        for stage in ("ingest", "rfm"):
            rc = cli_main(["--config", str(fixture_config_path), stage,
                           "--input", str(src), "--out", str(out)])
            assert rc == 0
        rejects = [json.loads(line) for line in
                   (out / "ingest" / "rejects.jsonl").read_text().splitlines()]
        assert [(r["line"], r["column"], r["reason"]) for r in rejects[-3:]] == [
            (last + 1, "UnitPrice", "non-finite unit price 'nan'"),
            (last + 2, "UnitPrice", "non-finite unit price 'inf'"),
            (last + 3, "Quantity",
             "quantity '100000000000000000000' outside the signed 32-bit range")]
        _, segments = read_csv(out / "ingest" / "segments.csv")
        assert ["A100", "Frequent", "5"] in [row[:3] for row in segments]

    @pytest.mark.parametrize("edit, named", [
        ({"lasso_": {"folds": 99}}, "config key 'lasso_'"),
        ({"sed": 3}, "config key 'sed'"),
        ({"lasso": {"folds": 2, "fold": 3}}, "config section 'lasso': 'fold'"),
    ], ids=["misspelt-section", "unknown-key", "unknown-field"])
    def test_unknown_config_key_is_a_clean_error(self, fixture_csv, fixture_config_path,
                                                 tmp_path, capsys, edit, named):
        # A misspelt section used to be ignored in favour of the defaults,
        # and an unknown field died with a TypeError traceback.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**json.loads(fixture_config_path.read_text()), **edit}))
        rc = cli_main(["--config", str(config), "ingest", "--input", str(fixture_csv),
                       "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown ") and named in err
        assert not (tmp_path / "run").exists()

    def test_config_without_paths_takes_the_cli_defaults(
            self, fixture_csv, fixture_config_path, tmp_path):
        # A config with no input_path/output_dir used to raise KeyError even
        # when --input/--out were given.
        data = json.loads(fixture_config_path.read_text())
        del data["input_path"], data["output_dir"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        cfg = PipelineConfig.load(config)
        assert (cfg.input_path, cfg.output_dir) == ("", "run")
        rc = cli_main(["--config", str(config), "ingest", "--input", str(fixture_csv),
                       "--out", str(tmp_path / "run")])
        assert rc == 0
        assert (tmp_path / "run" / "ingest" / "matrix.triplets.csv").exists()

    @pytest.mark.parametrize("data, message", [
        ({"lasso": 3}, "config section 'lasso' must be an object, got int"),
        ([1], "config must be a JSON object, got list"),
        # Falsy non-objects used to be read as {}, i.e. as the defaults.
        ({"lasso": 0}, "config section 'lasso' must be an object, got int"),
        ({"lasso": []}, "config section 'lasso' must be an object, got list"),
        ({"lasso": ""}, "config section 'lasso' must be an object, got str"),
        ({"lasso": False}, "config section 'lasso' must be an object, got bool"),
    ], ids=["section", "top-level", "zero", "empty-list", "empty-string", "false"])
    def test_config_that_is_not_an_object_is_a_clean_error(
            self, fixture_csv, tmp_path, capsys, data, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        rc = cli_main(["--config", str(config), "ingest", "--input", str(fixture_csv),
                       "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("edit, message", [
        ({"seed": "x"}, "'seed' must be int, got str"),
        ({"seed": None}, "'seed' must be int, got NoneType"),
        ({"lasso": {"folds": "3"}}, "'lasso.folds' must be int, got str"),
        ({"lasso": {"folds": True}}, "'lasso.folds' must be int, got bool"),
        ({"lasso": {"alpha_grid": [0.5, "x"]}},
         "'lasso.alpha_grid' must be tuple[float, ...] | None, got list"),
        ({"nmf": {"use_grid_best": 1}}, "'nmf.use_grid_best' must be bool, got int"),
        ({"cluster": {"min_cluster_size": "5"}},
         "'cluster.min_cluster_size' must be int, got str"),
    ], ids=["seed-str", "seed-null", "folds-str", "folds-bool", "grid-element",
            "bool-int", "min-cluster-size-str"])
    def test_config_value_of_the_wrong_type_is_a_clean_error(
            self, fixture_csv, fixture_config_path, tmp_path, capsys, edit, message):
        # These used to fail mid-run with a traceback, after earlier stages
        # had written their artifacts, or to run with a value nobody meant.
        data = json.loads(fixture_config_path.read_text())
        for key, value in edit.items():
            data[key] = {**data[key], **value} if isinstance(value, dict) else value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        rc = cli_main(["--config", str(config), "run-all", "--input", str(fixture_csv),
                       "--out", str(tmp_path / "run")])
        assert (rc, capsys.readouterr().err) == (1, f"error: config field {message}\n")
        assert not (tmp_path / "run").exists()

    def test_config_values_that_fit_their_fields(self):
        # An int is a float, a list is a tuple, and null is a default
        # section or a field that allows it.
        cfg = PipelineConfig.from_dict({"rfm": {"w_recency": 1, "boxcox_search": [-2, 2]},
                                        "lasso": {"seed": None, "alpha_grid": None},
                                        "nmf": None})
        assert cfg.rfm.w_recency == 1 and cfg.rfm.boxcox_search == (-2, 2)
        assert (cfg.lasso, cfg.nmf) == (PipelineConfig().lasso, PipelineConfig().nmf)

    def test_every_grid_cell_failing_says_why(self, full_run, fixture_config_path,
                                              tmp_path, capsys):
        # k = 50 exceeds m' = 3 in every cell; the error used to be only
        # "every grid cell failed", then the first cell's error.
        _, out, _ = full_run
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        rc = cli_main(["--config", str(fixture_config_path), "grid-search",
                       "--out", str(run_dir), "--k-min", "50", "--k-max", "50"])
        assert (rc, capsys.readouterr().err) == (
            1, "error: grid-search: k_min = 50 exceeds min(n, m′) = 3, with n = 32 "
               "frequent shoppers and m′ = 3 selected items\n")

    def test_failed_stage_keeps_the_config_of_its_artifacts(
            self, full_run, fixture_config_path, tmp_path):
        # config.json used to be written before the stage ran, so it said
        # k_min 50 beside the grid.csv of the earlier, successful run.
        _, out, _ = full_run
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        before = {name: (run_dir / name).read_bytes()
                  for name in ("config.json", "manifest.json", "grid-search/grid.csv")}
        rc = cli_main(["--config", str(fixture_config_path), "grid-search",
                       "--out", str(run_dir), "--k-min", "50", "--k-max", "50"])
        assert rc == 1
        assert {name: (run_dir / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize("given", ["none", "directory"])
    def test_ingest_input_that_is_not_a_file_is_a_clean_error(self, tmp_path, capsys,
                                                              monkeypatch, given):
        # No --input reads the current directory ("" -> "."); both used to
        # die with an IsADirectoryError traceback.
        monkeypatch.chdir(tmp_path)
        argv = ["ingest", "--out", "run"] + (["--input", str(tmp_path)]
                                             if given == "directory" else [])
        rc = cli_main(argv)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: input file not found: ")

    def test_export_graph_takes_no_kind(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export-graph", "--out", "run", "--kind", "purchase"])

    def test_rfm_weight_flags(self, fixture_csv, fixture_config_path, tmp_path):
        out = tmp_path / "run"
        cfg = fixture_config(fixture_csv, fixture_config_path, out)
        run_stage("ingest", cfg)
        rc = cli_main(["--config", str(fixture_config_path), "rfm",
                       "--input", str(fixture_csv), "--out", str(out),
                       "--w-recency", "0.2", "--w-frequency", "0.3",
                       "--w-monetary", "0.5"])
        assert rc == 0
        stored = json.loads((out / "rfm" / "boxcox.json").read_text())
        assert stored["weights"] == {"recency": 0.2, "frequency": 0.3,
                                     "monetary": 0.5}

    def test_cluster_row_normalize_flag(self, fixture_csv, fixture_config_path,
                                        tmp_path):
        out = tmp_path / "run"
        cfg = fixture_config(fixture_csv, fixture_config_path, out)
        for stage in ("ingest", "rfm", "select-features", "grid-search",
                      "factorize"):
            run_stage(stage, cfg)
        rc = cli_main(["--config", str(fixture_config_path), "cluster",
                       "--input", str(fixture_csv), "--out", str(out),
                       "--min-cluster-size", "2", "--row-normalize"])
        assert rc == 0
        stored = json.loads((out / "config.json").read_text())
        assert stored["cluster"]["row_normalize"] is True
        assert (out / "cluster" / "labels.csv").exists()


# Every config-override flag: (values on the command line, config section,
# field, resolved value, subcommands that accept it).
FLAG_CASES = {
    "--encoding": (["latin-1"], "ingest", "encoding", "latin-1", {"ingest"}),
    "--cancellation-prefix": (["X"], "ingest", "cancellation_prefix", "X", {"ingest"}),
    "--min-purchases": (["7"], "ingest", "frequent_min_purchases", 7, {"ingest"}),
    "--wholesale-threshold": (["900"], "ingest", "wholesale_quantity_threshold", 900,
                              {"ingest"}),
    "--w-recency": (["0.2"], "rfm", "w_recency", 0.2, {"rfm"}),
    "--w-frequency": (["0.3"], "rfm", "w_frequency", 0.3, {"rfm"}),
    "--w-monetary": (["0.5"], "rfm", "w_monetary", 0.5, {"rfm"}),
    "--alpha-grid": (["0.5", "0.25"], "lasso", "alpha_grid", (0.5, 0.25),
                     {"select-features", "run-all"}),
    "--folds": (["4"], "lasso", "folds", 4, {"select-features", "run-all"}),
    "--slack": (["0.1"], "lasso", "slack", 0.1, {"select-features", "run-all"}),
    "--k-min": (["3"], "nmf", "k_min", 3, {"grid-search", "run-all"}),
    "--k-max": (["6"], "nmf", "k_max", 6, {"grid-search", "run-all"}),
    "--k": (["3"], "nmf", "k", 3, {"factorize"}),
    "--alpha-m": (["0.7"], "nmf", "alpha_m", 0.7, {"factorize"}),
    "--l1-ratio": (["0.3"], "nmf", "l1_ratio", 0.3, {"factorize"}),
    "--min-cluster-size": (["4"], "cluster", "min_cluster_size", 4,
                           {"cluster", "run-all"}),
    "--row-normalize": ([], "cluster", "row_normalize", True, {"cluster", "run-all"}),
    "--threshold": (["0.05"], "graph", "affinity_threshold", 0.05, {"export-graph"}),
}
STAGE_COMMANDS = ["ingest", "rfm", "select-features", "grid-search", "factorize",
                  "cluster", "export-graph", "run-all"]


def resolve(argv) -> tuple[PipelineConfig, PipelineConfig]:
    args = build_parser().parse_args(argv)
    base = _base_config(args)
    return base, _apply_overrides(base, args)


class TestCliOverrides:
    @pytest.mark.parametrize("command,flag", [
        (command, flag) for flag, case in FLAG_CASES.items()
        for command in STAGE_COMMANDS if command in case[4]])
    def test_flag_sets_one_field(self, command, flag):
        values, section, field, expected, _ = FLAG_CASES[flag]
        base, cfg = resolve([command, "--out", "run", flag, *values])
        changed = {field: expected}
        if flag == "--k":
            changed["use_grid_best"] = False
        assert cfg == replace(base, **{section: replace(getattr(base, section),
                                                        **changed)})
        assert type(getattr(getattr(cfg, section), field)) is type(expected)

    @pytest.mark.parametrize("command", STAGE_COMMANDS)
    def test_other_flags_rejected(self, command):
        for flag, (values, *_, commands) in FLAG_CASES.items():
            if command not in commands:
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command, "--out", "run", flag, *values])

    @pytest.mark.parametrize("command", STAGE_COMMANDS)
    def test_no_flag_changes_nothing(self, command):
        base, cfg = resolve([command, "--out", "run"])
        assert cfg == base

    def test_run_all_takes_seven_override_flags(self):
        assert sum("run-all" in case[4] for case in FLAG_CASES.values()) == 7
        base, cfg = resolve(["run-all", "--out", "run", "--alpha-grid", "0.5",
                             "--folds", "4", "--slack", "0.1", "--k-min", "3",
                             "--k-max", "6", "--min-cluster-size", "4",
                             "--row-normalize"])
        assert cfg.lasso == replace(base.lasso, alpha_grid=(0.5,), folds=4, slack=0.1)
        assert cfg.nmf == replace(base.nmf, k_min=3, k_max=6)
        assert cfg.cluster == replace(base.cluster, min_cluster_size=4,
                                      row_normalize=True)


# Every layer function whose keywords are named after fields of a stage's
# settings section, with that section.
LAYER_KEYWORDS = [
    (ingest.clean_transactions, "ingest"),
    (ingest.segment_customers, "ingest"),
    (lasso.fit_lasso, "lasso"),
    (lasso.cross_validate_alpha, "lasso"),
    (lasso.select_features, "lasso"),
    (cluster.cluster_rows, "cluster"),
    (cluster.extract_clusters, "cluster"),
]


class TestLayerDefaults:
    @pytest.mark.parametrize("fn, section", LAYER_KEYWORDS,
                             ids=[fn.__name__ for fn, _ in LAYER_KEYWORDS])
    def test_keyword_defaults_match_the_settings(self, fn, section):
        # A tunable has a keyword default and a settings default; editing
        # one without the other would make a direct call and a pipeline run
        # disagree. min_samples is compared with its resolved value.
        settings = getattr(PipelineConfig().resolved(), section)
        shared = {name: param.default
                  for name, param in inspect.signature(fn).parameters.items()
                  if hasattr(settings, name) and param.default is not param.empty}
        assert shared
        assert shared == {name: getattr(settings, name) for name in shared}
