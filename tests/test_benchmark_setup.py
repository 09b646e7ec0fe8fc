"""The benchmark's set-up runs on this checkout.

Every workload builds its inputs, runs its warm-up item and its untimed
preparation (the CLI sweep's single-process reference sweep) with a
disabled Tracer, as a benchmark run does before it times anything.  So
a result field the benchmark reads, such as ``Qcm.A.nnz``,
``corr_target.nnz`` or ``m.coeffs[j][0]``, fails here when it goes, which
the signature check in test_exports.py cannot see.  Nothing under
benchmark/ is written.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture
def benchmark_modules(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARK))
    return importlib.import_module("workloads"), importlib.import_module("spans")


def test_every_workload_sets_up_on_this_checkout(benchmark_modules, tmp_path):
    workloads, spans = benchmark_modules
    for name, workload in workloads.WORKLOADS.items():
        wl = workload(seed=1, work_dir=str(tmp_path / name))
        assert wl.build(), name
        wl.warmup(spans.Tracer())
        wl.prepare()
    assert wl.name == "cli_sweep" and wl.reference.startswith(b"#")
