"""Where the measured code came from: library versions and the eblab that ran.

Run as a script (with the benchmark's child environment) it prints the
library report as JSON, so a cold process proves which eblab it imports.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path


def libraries():
    import eblab
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "eblab_file": eblab.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def git_commit(root):
    """HEAD of the checkout read from .git directly; None outside a git checkout."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host(threads, seed, cpus):
    return {
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(cpus),
        "pinned_cpu": cpus[0],
        "blas_threads": threads,
        "seed": seed,
    }


if __name__ == "__main__":
    print(json.dumps(libraries()))
