"""Cold-CLI benchmark for eblab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times batches of cold `python -m eblab` processes, one at a
time, for at least S seconds and at least MIN_BATCHES batches, and prints
the end-to-end metrics, rescaled to a reference speed by SpeedGauge.
--trace 1 runs the batch in this process: a warm-up pass, then untraced
and traced passes (spans on eblab's public functions) in turn for at least
S seconds, and prints the per-layer metrics per traced pass. Every output
is checked against the numpy oracles in oracles.py, and each check must
also reject a copy of its output with one number corrupted. The last line
of stdout is the result: {"correct", "attempted", "failed", "metrics"}.
Details, provenance and the spans go to .bench_out/results/ in the checkout.
"""

from __future__ import annotations

import os

# numpy reads the thread pin when it is first imported, so it comes first.
THREADS = "1"
os.environ.update(OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import provenance  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

IMPORT_PROBES = 5     # cold `import eblab` timings per run; setup_s is their median
MIN_BATCHES = 2       # so every run compares repeated outputs byte for byte
CALL_TIMEOUT_S = 150  # a child still running after this is killed and counted failed

# Medians of the speed gauge's two kernels on the reference machine (2 vCPU
# x86-64, CPython 3.11, numpy 2.4 on OpenBLAS 0.3.31, one thread). Reported
# times are rescaled to this speed; the raw walls go to the results file.
GAUGE_REF_S = {"eigvalsh": 5.0e-3, "format": 4.0e-3}
GAUGE_REPEATS = 15


class SpeedGauge:
    """Fixed LAPACK and pure-Python kernels, timed in this process between cold calls.

    The machine this runs on is shared, and its speed drifts by tens of
    percent over tens of seconds. Dividing each call's wall time by the
    gauge's slowdown, read right before and after the call, cancels most of
    that drift: the calls are CPU bound, and so are the kernels.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(300, 300))
        self._matrix = m + m.T
        self._floats = rng.normal(size=4000).tolist()

    def slowdown(self):
        """Mean over the kernels of (median time / reference time); 1.0 is reference speed."""
        times = {"eigvalsh": [], "format": []}
        for _ in range(GAUGE_REPEATS):
            start = time.perf_counter()
            np.linalg.eigvalsh(self._matrix)
            middle = time.perf_counter()
            "".join(format(x, ".17g") for x in self._floats)
            times["eigvalsh"].append(middle - start)
            times["format"].append(time.perf_counter() - middle)
        return statistics.mean(statistics.median(t) / GAUGE_REF_S[k] for k, t in times.items())


def child_env():
    """The caller's environment with the checkout's src first and BLAS pinned.

    Bytecode caching is left on, as for an installed package: the warm-up
    import writes src/eblab/__pycache__ and later imports reuse it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC),
               OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def python_cold(args, cwd, stderr_path):
    """Run one cold Python child to its end: (wall seconds, peak RSS in MiB, exit code)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # wait4 reaped it; Popen must not wait
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def stderr_tail(path):
    return path.read_text(errors="replace").strip().splitlines()[-1:] if path.exists() else []


def run_check(call, files):
    """The call's check errors; output the check cannot even parse fails it."""
    try:
        return call.check(files)
    except Exception as err:  # malformed output is a failed check, not a benchmark crash
        return [f"unreadable output: {err!r}"]


def evaluate(calls, batches):
    """Check every call of every batch; count attempted and failed operations.

    batches holds (output dir, exit codes). The first good output of each
    call is checked against the oracles; a repeat must be byte-identical
    to it. Returns (attempted, failed, errors, first outputs per call).
    """
    attempted, failed, errors, reference, verdict = 0, 0, [], {}, {}
    for out_dir, codes in batches:
        for call, code in zip(calls, codes):
            attempted += 1
            problems = [f"exit {code} {stderr_tail(out_dir / (call.name + '.stderr'))}"] if code else []
            try:
                files = None if code else {n: (out_dir / n).read_bytes() for n in call.outputs}
            except OSError as err:
                problems.append(f"missing output: {err}")
                files = None
            if files is not None:
                if call.name not in reference:
                    reference[call.name] = files
                    verdict[call.name] = run_check(call, files)
                problems += verdict[call.name]
                if files != reference[call.name]:
                    problems.append("output bytes differ from the first run of this call")
            if problems:
                failed += 1
                errors.append(f"{out_dir.name}/{call.name}: {'; '.join(problems[:5])}")
    return attempted, failed, errors, reference


def self_test(calls, reference):
    """Each check must reject its own output with one number corrupted."""
    outcome = {}
    for call in calls:
        if call.name not in reference:
            outcome[call.name] = "not run: no output to corrupt"
            continue
        caught = run_check(call, call.corrupt(reference[call.name]))
        outcome[call.name] = f"caught: {caught[0]}" if caught else "MISSED"
    return outcome


def gauged(gauge, slowdowns, run):
    """run() bracketed by gauge readings: (its result, its wall at reference speed)."""
    if not slowdowns:
        slowdowns.append(gauge.slowdown())
    wall, *rest = run()
    slowdowns.append(gauge.slowdown())
    return wall, wall / statistics.mean(slowdowns[-2:]), rest


def run_cold_batches(calls, work, seconds, gauge, slowdowns):
    """Batches of cold calls until `seconds` have passed and MIN_BATCHES ran.

    A batch's wall is the sum of its calls' walls, so the gauge readings
    between calls are not part of it.
    """
    deadline = time.perf_counter() + seconds
    batches, raw, call_walls, rss = [], [], [], []
    while len(batches) < MIN_BATCHES or time.perf_counter() < deadline:
        out_dir = work / f"batch{len(batches)}"
        out_dir.mkdir()
        codes = []
        for call in calls:
            wall, scaled, (peak, code) = gauged(gauge, slowdowns, lambda: python_cold(
                ["-m", "eblab", *call.argv(out_dir)], work, out_dir / f"{call.name}.stderr"))
            raw.append(wall)
            call_walls.append(scaled)
            rss.append(peak)
            codes.append(code)
        batches.append((out_dir, codes))
    return batches, raw, call_walls, rss


def import_probes(work, gauge, slowdowns):
    """Cold `import eblab` walls (raw, at reference speed) after one unmeasured warm-up."""
    raw, scaled = [], []
    for n in range(IMPORT_PROBES + 1):
        wall, at_ref, (_, code) = gauged(gauge, slowdowns, lambda: python_cold(
            ["-c", "import eblab"], work, work / "import.stderr"))
        if code != 0:
            raise RuntimeError(f"`import eblab` exited {code}: {stderr_tail(work / 'import.stderr')}")
        if n:
            raw.append(wall)
            scaled.append(at_ref)
    return raw, scaled


def cold_libraries(work):
    """The library report of a cold child, which imports eblab as the timed calls do."""
    report = subprocess.run([sys.executable, str(BENCH / "provenance.py")], cwd=work,
                            env=child_env(), capture_output=True, check=True, timeout=CALL_TIMEOUT_S)
    return json.loads(report.stdout)


def run_in_process(calls, out_dir, cli_module, tracer=None):
    """The batch through eblab.cli.main in this process: (wall seconds, exit codes)."""
    out_dir.mkdir()
    codes = []
    start = time.perf_counter()
    for call in calls:
        if tracer is not None:
            tracer.run_id = f"{out_dir.name}/{call.name}"
        try:
            code = cli_module.main(call.argv(out_dir))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation; evaluate() reports its traceback
            (out_dir / f"{call.name}.stderr").write_text(traceback.format_exc())
            code = 1
        codes.append(code)
    return time.perf_counter() - start, codes


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(calls, work, seconds):
    gauge, slowdowns = SpeedGauge(), []
    import_raw, import_s = import_probes(work, gauge, slowdowns)
    batches, raw, call_walls, rss = run_cold_batches(calls, work, seconds, gauge, slowdowns)
    per_batch = len(calls)
    batch_walls = [sum(call_walls[i:i + per_batch]) for i in range(0, len(call_walls), per_batch)]
    metrics = {
        "wall_s": metric(statistics.median(batch_walls), "s"),
        "cmd_p50_s": metric(statistics.median(call_walls), "s"),
        "setup_s": metric(statistics.median(import_s), "s"),
        "peak_rss_mb": metric(max(rss), "MiB"),
    }
    samples = {"batch_wall_s": batch_walls, "call_wall_s": call_walls, "import_s": import_s,
               "raw_call_wall_s": raw, "raw_import_s": import_raw, "slowdowns": slowdowns,
               "peak_rss_mb": rss}
    return batches, metrics, samples, cold_libraries(work)


def traced_run(calls, work, seconds):
    """In-process passes: a warm-up, then untraced and traced passes in turn for `seconds`."""
    sys.path.insert(0, str(SRC))
    import eblab
    import eblab.cli

    # The warm-up absorbs one-time costs (lazy imports, allocator growth), so
    # the untraced and traced passes that follow compare like with like.
    batches = [(work / "warmup", run_in_process(calls, work / "warmup", eblab.cli)[1])]
    tracer = Tracer()
    walls = {"untraced": [], "traced": []}
    deadline = time.perf_counter() + seconds
    while not walls["traced"] or time.perf_counter() < deadline:
        for kind, pass_tracer in (("untraced", None), ("traced", tracer)):
            out_dir = work / f"{kind}{len(walls[kind])}"
            if pass_tracer is not None:
                tracer.install(eblab)
            try:
                wall, codes = run_in_process(calls, out_dir, eblab.cli, pass_tracer)
            finally:
                tracer.uninstall()
            walls[kind].append(wall)
            batches.append((out_dir, codes))
    metrics = {name: metric(value, unit) for name, (value, unit) in tracer.layer_metrics().items()}
    overhead = statistics.median(walls["traced"]) / statistics.median(walls["untraced"]) - 1.0
    metrics["trace_overhead_frac"] = metric(overhead, "frac")
    samples = {f"{kind}_wall_s": w for kind, w in walls.items()}
    return batches, metrics, samples, provenance.libraries(), tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description="Cold-CLI benchmark for eblab.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "eblab" / "__init__.py").is_file():
        print(f"error: no eblab package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})  # the gauge and the children share one CPU
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    calls = workloads.build(args.workload, args.seed, work / "inputs")

    if args.trace:
        batches, metrics, samples, libraries, tracer = traced_run(calls, work, args.seconds)
    else:
        batches, metrics, samples, libraries = timed_run(calls, work, args.seconds)
        tracer = None
    attempted, failed, errors, reference = evaluate(calls, batches)
    checks_caught = self_test(calls, reference)
    excess = (workloads.probe_excess(reference["probe"])
              if args.workload == "probe_sweep" and failed == 0 else 0.0)
    if tracer is not None:
        metrics["measures.probe_excess"] = metric(excess, "abs")

    ran_checkout = Path(libraries["eblab_file"]).resolve().is_relative_to(SRC.resolve())
    if not ran_checkout:
        errors.append(f"eblab imported from {libraries['eblab_file']}, not from {SRC}")
    missed = [name for name, outcome in checks_caught.items() if not outcome.startswith("caught")]
    if missed:
        errors.append(f"self-test: checks did not reject corrupted output of {missed}")
    correct = failed == 0 and ran_checkout and not missed

    details = {
        "workload": args.workload, "trace": args.trace, "metrics": metrics,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "probe_excess": excess, "errors": errors, "self_test": checks_caught, "samples": samples,
        "provenance": {"git_commit": provenance.git_commit(ROOT), **libraries,
                       **provenance.host(THREADS, args.seed, cpus)},
    }
    if tracer is not None:
        self_times = {k[:-len(".self_s")]: m["value"] for k, m in metrics.items() if k.endswith(".self_s")}
        details["dominant_layers"] = sorted(self_times, key=self_times.get, reverse=True)[:5]
        details["inclusive_s"] = tracer.inclusive_s()
        (OUT / "results" / f"{tag}_spans.json").write_text(json.dumps(tracer.dump()))
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(details, indent=1))
    for line in errors:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
