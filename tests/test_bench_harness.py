"""The benchmark harness rewrites ``bench_figures.txt`` only when it
regenerates a figure."""

from __future__ import annotations

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIGURES = ROOT / "bench_figures.txt"


def _bench_conftest():
    """The benchmark conftest, loaded as a private module."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest_under_test", ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_non_figure_bench_session_leaves_figures_file_untouched():
    pytest.importorskip("pytest_benchmark")
    before = FIGURES.read_bytes() if FIGURES.exists() else None
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--benchmark-disable",
            "benchmarks/bench_overhead.py"
            "::test_compare_before_set_elides_syscalls",
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    after = FIGURES.read_bytes() if FIGURES.exists() else None
    assert after == before


def test_first_figure_of_a_session_starts_the_file_afresh(tmp_path):
    conftest = _bench_conftest()
    target = tmp_path / "figures.txt"
    target.write_text("rows from an earlier session\n")
    conftest.append_figure_text("figure A", target)
    conftest.append_figure_text("figure B", target)
    assert target.read_text() == (
        conftest.FIGURES_HEADER + "\nfigure A\n\nfigure B\n"
    )
