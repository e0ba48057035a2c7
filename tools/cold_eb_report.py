"""Cold wall time and peak RSS of `import eblab` and of `eblab eb-report --phi "geometric(0.7)" --k K`, best of N.

    python tools/cold_eb_report.py SRC [SRC ...] [--k 64,128,256] [--runs 2] [--sigma FILE]

Each SRC is the src/ directory of a checkout. Every run is a new process,
`python -c "import eblab"` or `python -m eblab eb-report ...` with
PYTHONPATH=SRC and one BLAS thread, spawned from this launcher, which does
not import numpy; the wall time is taken around the spawn and the peak RSS
from os.wait4. Bytecode caching is on in the children, whatever the
caller's PYTHONDONTWRITEBYTECODE, and one unmeasured eb-report call per SRC
writes its cache before the rounds, so no measured run compiles the
checkout's modules. The checkouts run in turn within each round, so they
share the machine's load. Prints one `import` line per SRC, then one line
per SRC and K: the exit codes of all runs and, when every run exited 0,
the best wall and the peak RSS of that run.
"""

import argparse
import os
import subprocess
import sys
import time


def cold(src, args):
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    return time.perf_counter() - start, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def eb_report(half, sigma):
    args = ["-m", "eblab", "eb-report", "--phi", "geometric(0.7)", "--k", str(half)]
    return args + ["--sigma", sigma] if sigma else args


def report(label, srcs, args, runs):
    """Runs args cold `runs` times per SRC, the checkouts in turn, and prints one line per SRC."""
    results = {src: [] for src in srcs}
    for _ in range(runs):
        for src in srcs:
            results[src].append(cold(src, args))
    for src, measured in results.items():
        codes = [r[2] for r in measured]
        if any(codes):
            print(f"{label} {src}: exit {codes}")
            continue
        wall, rss, _ = min(measured)
        print(f"{label} {src}: {wall:.3f} s, {rss:.0f} MiB, exit {codes}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+")
    parser.add_argument("--k", default="64,128,256")
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--sigma", default=None)
    args = parser.parse_args()
    halves = [int(k) for k in args.k.split(",")]
    for src in args.src:
        cold(src, eb_report(halves[0], args.sigma))  # unmeasured: writes the bytecode cache
    report("import", args.src, ["-c", "import eblab"], args.runs)
    for half in halves:
        report(f"K={half}", args.src, eb_report(half, args.sigma), args.runs)


if __name__ == "__main__":
    main()
