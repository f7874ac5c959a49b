#!/usr/bin/env python3
"""qtpart benchmark: one workload per process.

    python3 perfbench/run.py --workload learn --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. The program is imported from ``src/``
of that checkout and driven through ``qtpart.cli.main`` in-process. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines before it give every metric with its unit and
sample count, the failed-operation share and the environment. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
STAGES = ("collect", "train", "evaluate")
# one measured round: the train commands are the shortest and, running
# multi-threaded BLAS, the noisiest, so they run twice
ROUND = ("collect", "train", "evaluate", "train")
# workload -> (its own stages, which a traced run traces; the frame roles
# its --seed makes, which feed those stages)
WORKLOADS = {"learn": (("collect", "train"), ("collect",)),
             "evaluate": (("evaluate",), ("heldout",))}
SETUP_REPEATS = 3            # set-up runs per measured run; setup_s is their median
MIN_ROUNDS = 2               # however long they take
TRACED_ITERATIONS = 2        # traced counts must agree between them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_record() -> dict:
    """BLAS library and version as numpy reports them, and the thread
    count the loaded OpenBLAS will use."""
    import ctypes
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"),
              "threads": None}
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = int(fn())
                return record
    return record


def environment(jobs: int) -> dict:
    import numpy as np
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas_record(),
            "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
            "jobs": jobs}


def run_rounds(pipe, seconds: float, record) -> None:
    """One warm-up round, whose timings are dropped, then rounds until
    ``seconds`` have passed since the warm-up began and MIN_ROUNDS are
    done; the last round may stop after any stage. Every command takes
    about a second and every metric gets samples spread evenly over the
    whole run: the machine's speed drifts over seconds, and a median over
    many short samples evens that out."""
    start = perf_counter()
    for stage in STAGES:
        getattr(pipe, stage)()
    for n, stage in enumerate(itertools.cycle(ROUND), 1):
        record(getattr(pipe, stage)())
        if n >= MIN_ROUNDS * len(ROUND) and perf_counter() - start >= seconds:
            return


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "qtpart" / "cli.py").is_file():
        print(f"error: no qtpart sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import qtpart.cli  # noqa: F401  (numpy and scipy load here)
    import_s = perf_counter() - t0
    if Path(qtpart.__file__).resolve().parent != src / "qtpart":
        print(f"error: imported qtpart from {qtpart.__file__}", file=sys.stderr)
        return 2

    import layers
    from pipeline import Pipeline

    jobs = len(os.sched_getaffinity(0))
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    own, seeded = WORKLOADS[args.workload]
    pipe = Pipeline(work, args.seed, jobs, seeded)

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = perf_counter()
        pipe.setup()
        setup_times.append(perf_counter() - t0)

    samples: dict[str, list] = {}

    def record(values: dict) -> None:
        for key, value in values.items():
            samples.setdefault(key, []).append(value)

    if args.trace:
        for stage in STAGES[:STAGES.index(own[0])]:     # the inputs of the traced stages
            record(getattr(pipe, stage)())
        values = layers.traced_stages(pipe, own, TRACED_ITERATIONS)
        wanted = spec["per_layer"]
        counts = {k: 1 for k in values}
    else:
        run_rounds(pipe, args.seconds, record)
        wanted = spec["end_to_end"]
        samples["setup_s"] = [import_s + statistics.median(setup_times)]
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        values = {k: statistics.median(v) for k, v in samples.items()}
        counts = {k: len(v) for k, v in samples.items()}
        counts["setup_s"] = len(setup_times)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    for name in missing:
        pipe.failures.append(f"{name}: no valid sample")
    env = environment(jobs)
    result = {
        "correct": not pipe.failures,
        "attempted": pipe.attempted,
        "failed": len(pipe.failed_ops) + len(missing),
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in wanted},
    }
    (work / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed,
         "trace": args.trace, "samples": counts, "environment": env,
         "raw_samples": samples,
         "failures": pipe.failures,
         "setup": {"import_s": import_s, "repeats_s": setup_times}},
        indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for m in wanted:
        name = m["name"]
        print(f"  {name:34s} {values.get(name, float('nan')):14.6g} {m['unit']:6s}"
              f" n={counts.get(name, 0)}")
    print(f"failed operations {result['failed']}/{result['attempted']}"
          f" = {result['failed'] / max(result['attempted'], 1):.3f}")
    for line in pipe.failures:
        print(f"  FAILED {line}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
