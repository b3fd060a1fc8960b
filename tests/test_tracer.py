"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` patches pipeline functions by name; a renamed or
deleted one would otherwise surface only when the benchmark runs.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import shoplens
from shoplens.pipeline import STAGES

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = str(Path(shoplens.__file__).resolve().parent.parent)


def load_bench_runner():
    """``perfbench/run.py`` as a module; it puts its own directory on
    ``sys.path`` to import its sibling ``gen``, which is undone here."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_tracer_wraps_and_restores_the_names_the_benchmark_checks(tmp_path):
    runner = load_bench_runner()
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans),
         "--run-id", "t", "--", "--help"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text(encoding="utf-8"))
    assert doc["restored"] is True
    patched = set(doc["patched"])
    assert runner.MUST_PATCH <= patched
    assert not runner.MUST_NOT_PATCH & patched


def test_benchmark_runs_the_stages_in_table_order():
    assert load_bench_runner().STAGES == list(STAGES)
