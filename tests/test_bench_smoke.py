"""The benchmark's workloads still run on the library and their answers pass
the benchmark's own checks (``bench/run.py --self-test``, without writing
under ``bench/``): a library change that breaks a workload fails here."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_answer_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, tmp_path)
    try:
        spec = next(s for s in wl.ops if not wl.may_fail(s))
        rec = wl.record(spec, wl.run(spec))
    finally:
        wl.close()
    # the unperturbed answer passes, and every check rejects its perturbation
    assert checks.self_test(name, rec) == []
