"""Smoke tests for the script-style modules in ``benchmarks/`` and ``tools/``.

These scripts only run in CI's benchmark jobs, so an import they lose
(a renamed helper, a moved oracle) would otherwise go unnoticed until
then.  Every ``__main__``-guarded module must import, and the two cheap
hot-path benches must produce a payload with both sides and the ratio
``tools/bench_gate.py`` gates on.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _scripts(directory: str):
    return sorted(
        path
        for path in (REPO_ROOT / directory).glob("*.py")
        if '__name__ == "__main__"' in path.read_text()
    )


@pytest.mark.parametrize("path", _scripts("benchmarks"), ids=lambda path: path.stem)
def test_benchmark_script_imports(path):
    importlib.import_module(f"benchmarks.{path.stem}")


@pytest.mark.parametrize("path", _scripts("tools"), ids=lambda path: path.stem)
def test_tool_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"smoke_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_hotpath_benches_report_indexed_scan_and_speedup():
    bench = importlib.import_module("benchmarks.bench_hotpaths")
    for payload in (
        bench.bench_victim_selection(quick=True),
        bench.bench_flusher_tick(quick=True),
    ):
        assert {"indexed", "scan", "speedup"} <= set(payload)
        assert payload["indexed"]["mean_us"] > 0
        assert payload["scan"]["mean_us"] > 0
        assert payload["speedup"] > 0
