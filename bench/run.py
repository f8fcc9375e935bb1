"""lgradial benchmark: one seeded workload, checked, timed, optionally traced.

Usage, from the repository root:

    python3 bench/run.py --workload {crosstalk,operators,cli_readme} \
        --seed N --seconds S --trace {0,1}

One client process drives the load in a closed loop, with at most one
child interpreter at a time. A warm-up round comes first and is not timed;
then rounds repeat until S seconds have passed. With --trace 0 the last
line of stdout is a JSON object whose metrics are the end-to-end ones;
with --trace 1 untraced and traced rounds alternate, one round with
tracemalloc on follows, and the metrics are the per-layer ones, derived
from spans. Each run writes its record
(environment, round statistics, failures) and, when traced, its spans
under bench/out/. bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# end-to-end metrics: name -> unit
END_TO_END = {"setup_s": "s", "wall_s": "s", "passed_share": "ratio",
              "peak_rss_mb": "MiB", "accuracy_margin_dex": "dex"}


def per_layer_units(spans, memory_spans):
    units = {}
    for name in spans:
        units.update({f"{name}.busy_s": "s", f"{name}.calls": "count", f"{name}.failed": "count"})
        if name in memory_spans:
            units[f"{name}.peak_kib"] = "KiB"
    units.update({"analysis.overlap_matrix.failed": "count", "cli.import_s": "s",
                  "trace.overhead_s": "s"})
    return units


def environment(seed):
    """Machine, interpreter, library versions, thread settings, commit, seed."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "LG_RADIAL_THREADS")
    return {
        "cpu": cpu, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in threads},
        "commit": git_commit(), "seed": seed,
    }


def git_commit():
    """HEAD's commit when the tree is a git checkout, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed, seconds, trace, small=False):
    """Run one workload; return (result line dict, run record dict)."""
    from bench.harness import OUT, Run, Tracer, layer_metrics, quartiles
    from bench.workloads import MEMORY_SPANS, SPANS, WORKLOADS

    tracer = Tracer()
    run = Run(tracer)
    wl = WORKLOADS[workload](seed, run, small)
    setup = wl.setup()  # cli_readme: a list its command children fill as they run
    wl.round(0)  # warm-up: fills caches, sets the reproducibility references
    walls, traced_walls, traced_rounds = [], [], []
    start = time.perf_counter()
    index = 1
    while True:
        traced = bool(trace) and index % 2 == 0
        run.round = tracer.round = index
        tracer.enabled = traced
        t0 = time.perf_counter()
        tracer.call("round", wl.round, index)
        wall = time.perf_counter() - t0
        if traced:
            traced_walls.append(wall)
            traced_rounds.append(index)
            tracer.call("probe", wl.probe)
        else:
            walls.append(wall)
        tracer.enabled = False
        index += 1
        if time.perf_counter() - start >= seconds and walls and (traced_walls or not trace):
            break
    if trace:  # the memory round: tracemalloc peaks only, its times unused
        run.round = tracer.round = index
        tracer.enabled = tracer.memory = True
        tracer.call("round", wl.round, index)
        tracer.call("probe", wl.probe)
        tracer.enabled = False
    q1, q3 = quartiles(walls)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(seed),
        "rounds": {"timed": len(walls), "wall_s_median": statistics.median(walls),
                   "wall_s_q1": q1, "wall_s_q3": q3, "walls": walls,
                   "traced_walls": traced_walls},
        "setup_samples": setup,
        "tightest_check": run.round_margin(0)[1],
        "attempted": run.attempted, "failed": run.failed, "mismatches": run.mismatches,
        "failures": run.errors,
    }
    if trace:
        metrics = layer_metrics(tracer.spans, traced_rounds, SPANS, MEMORY_SPANS)
        metrics["analysis.overlap_matrix.failed"] = sum(
            metrics[f"{name}.failed"] for name in SPANS if name.startswith("analysis.overlap_matrix."))
        metrics["cli.import_s"] = statistics.median(setup)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = per_layer_units(SPANS, MEMORY_SPANS)
        spans_path = OUT / f"{workload}-seed{seed}-spans.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.spans))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "passed_share": 1.0 - run.failed / run.attempted,
            "peak_rss_mb": wl.peak_rss_mb(),
            "accuracy_margin_dex": run.round_margin(0)[0],
        }
        units = END_TO_END
    result = {
        "correct": run.mismatches == 0 and all(v is not None for v in metrics.values()),
        "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record["result"] = result
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(bool(trace))}.json").write_text(
        json.dumps(record, indent=1))
    return result, record


def main(argv=None):
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    rounds = record["rounds"]
    print(f"{args.workload} seed {args.seed}: {rounds['timed']} timed rounds, "
          f"wall_s median {rounds['wall_s_median']:.4f} "
          f"(q1 {rounds['wall_s_q1']:.4f}, q3 {rounds['wall_s_q3']:.4f}), "
          f"{record['failed']}/{record['attempted']} operations failed")
    print(json.dumps(result))
    return 0


def _load_library():
    """Put this tree's src/ first on the path; exit 2 when it holds no lgradial."""
    if not (ROOT / "src" / "lgradial" / "__init__.py").is_file():
        sys.exit(f"bench: no lgradial sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import lgradial
    if Path(lgradial.__file__).resolve().parent != ROOT / "src" / "lgradial":
        sys.exit(f"bench: imported lgradial from {lgradial.__file__}, not from this tree")


if __name__ == "__main__":
    _load_library()
    sys.exit(main())
