"""The benchmark's span tracer (bench/tracer.py) patches qiglab functions by
name; every name it lists must still exist, or traced runs break."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = _load_tracer()
    missing = [
        f"qiglab.{module}.{name}"
        for module, name in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"qiglab.{module}"), name, None))
    ]
    assert missing == []
    family = importlib.import_module("qiglab.manifold").ParametrizedFamily
    assert callable(getattr(family, "point", None))
