"""The benchmark tracer wraps eblab functions by name; a rename must fail here, not in a bench run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("eblab_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    # the tracer reads owner.__dict__[attr], so an inherited method would not do either
    spans = load_spans()
    assert spans.TRACED
    for module_name, path, _ in spans.TRACED:
        owner = importlib.import_module(f"eblab.{module_name}")
        *cls, attr = path.split(".")
        if cls:
            owner = owner.__dict__[cls[0]]
        assert attr in owner.__dict__, f"{module_name}.{path}"
        assert callable(getattr(owner, attr))
