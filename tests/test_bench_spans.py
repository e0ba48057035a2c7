"""The benchmark tracer wraps eblab functions by name and reads their arguments and results.

A rename, or a change to what an observer reads, must fail here, not in a bench run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from eblab import RotationChannel, ba_optimize, jsonio, min_eigenvalue, phi_profile

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


def test_the_observers_read_what_the_traced_functions_take_and_return(tmp_path):
    # the observers read a result's attributes and an argument's shape; a change to
    # CapacityReport or to a signature must fail here, not in a trace run
    spans = load_spans()
    tracer = spans.Tracer()
    m = np.diag([0.25, 0.75, 0.0])
    spans._matrix_dim(tracer, (m,), min_eigenvalue(m))
    channel = RotationChannel(phi_profile("geometric(0.7)", 2))
    spans._ba_iterations(tracer, (channel, 3), ba_optimize(channel, 3))
    path, text = tmp_path / "out.json", '{"a":1}'
    spans._bytes_written(tracer, (str(path), text), jsonio.write_text(str(path), text))
    assert tracer.counters == {"hilbert.min_eigenvalue.max_dim": 3,
                               "measures.eigensolves_per_probe": 0,
                               "capacity.ba_optimize.iterations": 1,
                               "jsonio.bytes_written": path.stat().st_size}
