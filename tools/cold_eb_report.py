"""Cold wall time and peak RSS of `eblab eb-report --phi "geometric(0.7)" --k K`, best of N.

    python tools/cold_eb_report.py SRC [SRC ...] [--k 64,128,256] [--runs 2] [--sigma FILE]

Each SRC is the src/ directory of a checkout. Every run is a new process,
`python -m eblab eb-report ...` with PYTHONPATH=SRC and one BLAS thread,
spawned from this launcher, which does not import numpy; the wall time is
taken around the spawn and the peak RSS from os.wait4. Bytecode caching is
on in the children, whatever the caller's PYTHONDONTWRITEBYTECODE, and one
unmeasured call per SRC writes its cache before the rounds, so no measured
run compiles the checkout's modules. The checkouts run in turn within each
round, so they share the machine's load. Prints one line per SRC and K:
the exit codes of all runs and, when every run exited 0, the best wall and
the peak RSS of that run.
"""

import argparse
import os
import subprocess
import sys
import time


def cold(src, half, sigma):
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, "-m", "eblab", "eb-report", "--phi", "geometric(0.7)", "--k", str(half)]
    if sigma:
        argv += ["--sigma", sigma]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    return time.perf_counter() - start, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+")
    parser.add_argument("--k", default="64,128,256")
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--sigma", default=None)
    args = parser.parse_args()
    halves = [int(k) for k in args.k.split(",")]
    for src in args.src:
        cold(src, halves[0], args.sigma)  # unmeasured: writes the bytecode cache
    for half in halves:
        results = {src: [] for src in args.src}
        for _ in range(args.runs):
            for src in args.src:
                results[src].append(cold(src, half, args.sigma))
        for src, runs in results.items():
            codes = [r[2] for r in runs]
            if any(codes):
                print(f"K={half} {src}: exit {codes}")
                continue
            wall, rss, _ = min(runs)
            print(f"K={half} {src}: {wall:.3f} s, {rss:.0f} MiB, exit {codes}")


if __name__ == "__main__":
    main()
