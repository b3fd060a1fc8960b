"""What importing the package costs and does, seen from a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import shoplens
from shoplens.pipeline import STAGES

SRC = str(Path(shoplens.__file__).resolve().parent.parent)


def run_python(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_leaves_heavy_modules_unloaded():
    # scipy.optimize alone was most of the CLI's start-up time; the process
    # pool modules are loaded only when a large grid search runs; the GraphML
    # escape is in-package because xml.sax.saxutils imports urllib.request.
    heavy = ["scipy.optimize", "scipy.stats", "multiprocessing",
             "concurrent.futures", "xml.sax.saxutils", "urllib.request"]
    proc = run_python("-c", "import json, sys, shoplens.cli; "
                      f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_nmf_import_loads_no_other_package_module():
    # Every spawned grid-search worker imports shoplens.nmf in a fresh
    # interpreter; the package itself imports none of its modules.
    proc = run_python("-c", "import json, sys, shoplens.nmf; "
                      "print(json.dumps(sorted(m for m in sys.modules "
                      "if m.split('.')[0] == 'shoplens')))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["shoplens", "shoplens.nmf"]


def test_ingest_and_rfm_stages_leave_scipy_optimize_unloaded(
        fixture_csv, fixture_config_path, tmp_path):
    # The Box-Cox fit runs an in-package golden-section search, so scoring
    # does not pay for scipy.optimize either.
    argv = ["--config", str(fixture_config_path), "--input", str(fixture_csv),
            "--out", str(tmp_path / "run")]
    code = ("import json, sys\n"
            "from shoplens.cli import main\n"
            f"argv = {argv!r}\n"
            "codes = [main(argv[:2] + [stage] + argv[2:]) for stage in ('ingest', 'rfm')]\n"
            "print(json.dumps([codes, 'scipy.optimize' in sys.modules]))\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0], False]
    assert (tmp_path / "run" / "rfm" / "boxcox.json").exists()


def test_run_all_runs_without_scipy(fixture_csv, fixture_config_path, tmp_path):
    # The runtime needs numpy and the standard library only: with every
    # scipy import made to fail, all seven stages still run.
    argv = ["--config", str(fixture_config_path), "run-all", "--input", str(fixture_csv),
            "--out", str(tmp_path / "run")]
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from shoplens.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(json.dumps([rc, sorted(name for name, module in sys.modules.items()\n"
            "                             if name.startswith('scipy') and module)]))\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert [s["name"] for s in manifest["stages"]] == list(STAGES)


def test_importing_main_module_runs_nothing():
    proc = run_python("-c", "import shoplens.__main__")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_module_entry_point_still_runs_the_cli():
    proc = run_python("-m", "shoplens", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
