"""The benchmark's traced mode wraps library functions by name from outside
(``bench/tracer.py``); every name it wraps must still exist."""

import importlib
import importlib.util
from pathlib import Path

from pwlcones import cli
from pwlcones.model import PwlSystem

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _tracer()
    for modname in tracer.MODULES:
        importlib.import_module(modname)
    for modname, attr, _, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
    # the two names it wraps outside TARGETS
    assert isinstance(vars(PwlSystem)["from_eigen"], classmethod)
    assert callable(cli.main)
