"""Benchmark command for emofuse.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It generates the workload's inputs from the
seed under .bench_out/, imports emofuse from src/, runs the workload's closed
loop for about S seconds (at least one whole iteration, however long) and
prints, as the last line of stdout, one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 times the public calls from outside and prints the end-to-end
metrics declared in BENCHMARK.json. Their timings are scaled to a nominal
host speed that reference bursts measure all through the run
(bench/hostspeed.py); the environment line before the result also holds
the unscaled values.

--trace 1 spends S/2 seconds on the work untraced and S/2 on the same work
with wrappers around the modules' functions, checks that both passes give
bit-identical loss histories, prints the per-layer metrics, and writes the
spans to .bench_out/trace-<workload>-seed<N>.json.

A stage call whose output fails its check, or that raises, counts in
`failed`; the run goes on. `correct` is false only when an exact check
fails (graph pair counts against the generator's own count, predicted labels
in range, evaluate against the per-post predictions, traced against untraced
histories) or a call raises anything but emofuse's own EmofuseError.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# The program is single-threaded Python; one BLAS thread (nproc is 2 on the
# reference machine) keeps thread-pool wake-ups out of the timings.
BLAS_THREADS = 1
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
NOTES = (
    "timings are wall-clock inside this process (time.perf_counter); machine-wide "
    "tracing, CPU pinning and page-cache dropping are out of scope in this sandbox",
    "end-to-end timings are scaled by the nominal over the measured cost of reference "
    "bursts run every 50 ms (bench/hostspeed.py); unscaled_metrics holds them unscaled",
    "emofuse has no queues and runs on one thread, so no time-waited metric exists "
    "and none is reported",
    "each workload is a closed loop with one client: one call in flight at a time",
)


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one emofuse benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import emofuse from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [HERE, src]
    try:
        import emofuse
    except ImportError as err:
        fail(f"cannot import emofuse from {src}: {err}")
    if not os.path.abspath(emofuse.__file__).startswith(src + os.sep):
        fail(f"emofuse was imported from {emofuse.__file__}, not from {src}")
    return emofuse


def environment(args, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "clients": 1, "notes": NOTES,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def histories_identical(a, b) -> bool:
    """Loss histories equal bit for bit (NaN included) over the calls both passes made."""
    import numpy as np
    n = min(len(a), len(b))
    return n > 0 and all(
        ka == kb and np.asarray(ha, dtype=np.float64).tobytes() == np.asarray(hb, dtype=np.float64).tobytes()
        for (ka, ha), (kb, hb) in zip(a[:n], b[:n]))


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
    except OSError as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    import_program()
    data_dir = os.path.join(ROOT, "data")
    word_vectors = os.path.join(data_dir, "toy_word_vectors.txt")
    for path in (word_vectors, os.path.join(data_dir, "sample_inventory.json")):
        if not os.path.isfile(path):
            fail(f"missing input file {path}")

    import numpy as np
    import generate
    import hostspeed
    import metrics
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    env = environment(args, np)
    work = os.path.join(OUT, f"{workload.name}-seed{args.seed}-{os.getpid()}")
    try:
        inputs = generate.make_inputs(workload, args.seed, work, data_dir)
        # the generator's answers (tens of thousands of texts and emoji sets)
        # stay alive all run; keep them out of the program's garbage collections
        gc.collect()
        gc.freeze()
        untraced_tracer = tracing.NullTracer()
        # end-to-end timings are scaled by the host speed that reference bursts
        # measure all through the run; the traced run compares raw times of two
        # passes and runs no bursts
        host = hostspeed.HostSpeed()
        setups = []
        with contextlib.nullcontext() if args.trace else host:
            while not setups or not args.trace and (
                    len(setups) < workloads.SETUP_MIN
                    or sum(b - a for a, b in setups) < workloads.SETUP_SECONDS):
                began = time.perf_counter()
                loaded = workloads.setup(workload, inputs, word_vectors, args.seed, untraced_tracer)
                setups.append((began, time.perf_counter()))
            # a traced run splits its seconds between an untraced and a traced pass
            seconds = args.seconds / 2 if args.trace else args.seconds
            untraced = workloads.Runner(workload, inputs, loaded, args.seed).run(seconds, untraced_tracer)
        attempted, failed, exact = untraced.attempted, untraced.failed, untraced.exact_failures
        if not args.trace:
            values = metrics.end_to_end(untraced, setups, peak_rss_mb(), host.scaled)
            env.update(unscaled_metrics=metrics.end_to_end(untraced, setups, peak_rss_mb(), host.net),
                       host_bursts=len(host.costs),
                       host_burst_ms_quartiles=[round(1e3 * q, 4) for q in
                                                statistics.quantiles(host.costs, n=4)])
            kind = "end_to_end"
        else:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                loaded = workloads.setup(workload, inputs, word_vectors, args.seed, tracer)
                traced = workloads.Runner(workload, inputs, loaded, args.seed).run(seconds, tracer)
            finally:
                tracer.uninstall()
            identical = histories_identical(untraced.histories, traced.histories)
            env["traced_histories_identical"] = identical
            attempted += traced.attempted
            failed += traced.failed
            exact += traced.exact_failures + (not identical)
            values = metrics.per_layer(traced, untraced, tracer.spans, inputs.corpus.inserted)
            kind = "per_layer"
            write_trace(workload.name, args.seed, env, tracer.spans, values)
        env.update(setups=len(setups), predict_samples=len(untraced.predict),
                   iterations=len(untraced.iteration_s),
                   failures=dict(untraced.failures))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(values) != set(units):
        fail(f"metric names differ from BENCHMARK.json {kind}: "
             f"undeclared {sorted(set(values) - set(units))}, missing {sorted(set(units) - set(values))}", 3)
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        fail(f"non-finite metric values: {bad}", 3)
    print("environment " + json.dumps(env, ensure_ascii=False))
    print(json.dumps({
        "correct": exact == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))
    return 0


def write_trace(workload: str, seed: int, env: dict, spans, values: dict):
    """Write the spans once, at the end of the traced run."""
    os.makedirs(OUT, exist_ok=True)
    t0 = spans[0].start if spans else 0.0
    payload = {
        "environment": env,
        "metrics": values,
        "span_fields": ["name", "start_s", "end_s", "parent", "request", "count", "tensors"],
        "spans": [[s.name, round(s.start - t0, 9), round(s.end - t0, 9), s.parent, s.request,
                   s.count, s.tensors] for s in spans],
    }
    with open(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
