"""The CLI's outputs match the committed golden manifest, call for call.

tests/goldens/regen.py runs about thirty calls at K <= 10, covering every
subcommand, every named profile, an asymmetric --phi2 and each input kind,
and one eb-report --phi at K = 32, whose residual walks more rows than a
K = 10 call, in one cold process, and prints their digests. It runs each
demos/*.py script there too and digests its exit code and stdout
(demo_<stem>). A call or demo whose exit code, stdout, stderr or written
files moved fails here by name; regen.py rewrites the manifest when the
move is intended. The manifest holds on one BLAS thread and on two.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from eblab import ModeWindow, PureVector, jsonio

GOLDENS = Path(__file__).resolve().parent / "goldens"


def calls_off_the_manifest(threads):
    """Names of the calls and demos whose digest on this many BLAS threads is off the manifest."""
    result = subprocess.run([sys.executable, str(GOLDENS / "regen.py"), "--digests"],
                            capture_output=True, text=True,
                            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                                     OMP_NUM_THREADS=threads))
    assert result.returncode == 0, result.stderr
    digests = json.loads(result.stdout)
    manifest = json.loads((GOLDENS / "manifest.json").read_text())
    assert len(manifest) >= 30
    return sorted(name for name in manifest.keys() | digests.keys()
                  if manifest.get(name) != digests.get(name))


def test_every_call_matches_the_manifest():
    assert calls_off_the_manifest("1") == []


def test_every_call_matches_the_manifest_on_two_blas_threads():
    # eb-report --phi takes its residual sector by sector under any sigma, with numpy's
    # own loops, so no written byte depends on the BLAS thread count
    assert calls_off_the_manifest("2") == []


def test_eb_report_phi_writes_the_same_bytes_on_one_and_two_blas_threads(tmp_path):
    # the per-sector residuals sum with numpy's own loops, never a threaded BLAS
    # reduction, so the thread count cannot move the last digits
    rng = np.random.default_rng(10)
    phi = tmp_path / "phi10.json"
    jsonio.write_text(str(phi), jsonio.dumps(jsonio.pure_vector_to_json(
        PureVector(ModeWindow.symmetric(10), rng.normal(size=21) + 1j * rng.normal(size=21)))))
    for args in (("--phi", str(phi), "--k", "10"), ("--phi", "geometric(0.7)", "--k", "32")):
        outputs = {subprocess.run([sys.executable, "-m", "eblab", "eb-report", *args],
                                  capture_output=True, check=True,
                                  env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                                           OMP_NUM_THREADS=threads)).stdout
                   for threads in ("1", "2")}
        assert len(outputs) == 1, args
