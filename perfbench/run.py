"""Benchmark entry point: one workload, timed untraced or traced.

    python3 perfbench/run.py --workload reproduce --seed 0 --seconds 30 --trace 0

Run from anywhere; the repository root is the parent of this file's
directory, and ``openmaps`` is imported from its ``src/``.  The program
exits with status 2, printing no result, when that source is missing.

Both modes time set-up (import of openmaps plus a first LAPACK call),
then run the workload's untimed warm-up, which takes the first call at
its largest N (see ``perfbench/workloads.py``), so no timed pass pays
a first-call cost.

Untraced (``--trace 0``): set-up is timed in this process and in fresh
interpreters, then whole passes of the workload run until the next one
would overrun ``--seconds`` (at least one).  The end-to-end metrics are
the median pass wall time, the median set-up time and the peak
resident memory of the process up to the end of its first pass.

Traced (``--trace 1``): one untraced pass, then one pass with every
public openmaps function wrapped by the tracer; the per-layer metrics
come from the traced pass and the overhead is the difference in wall
time between the two.

Each pass's outputs are checked (see ``perfbench/workloads.py``); an
operation that raised or failed a check counts in ``failed``, and the
summary prints fail_frac = failed / attempted.  The last
stdout line is one JSON object with keys correct, attempted, failed and
metrics.  A run record with the environment, the checks, the payload
hashes and (traced) every span goes to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNS = ROOT / "perfbench" / "runs"
WORKLOAD_NAMES = ("reproduce", "damped_2187", "billiard_3disk")
SETUP_PROBES = 6  # fresh interpreters timed besides this process

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def time_setup():
    """Seconds to import openmaps and finish a first BLAS/LAPACK call.

    numpy and scipy each link their own OpenBLAS.  The first level-3
    call into either, at a size that uses its threads, costs most of a
    second cold (on a 2-vCPU x86-64 VM a first 256x256 complex eig took
    1.0 s and the next 0.2 s); a 256x256 product in each library takes
    that cost here, so it does not land in the first timed operation.
    """
    t0 = time.perf_counter()
    import numpy as np
    import scipy.linalg

    import openmaps  # noqa: F401

    a = (np.arange(256.0 * 256).reshape(256, 256) % 7.0) * (1 + 1j)
    a += 256.0 * np.eye(256)
    a @ a
    scipy.linalg.blas.zgemm(1.0, a, a)
    b = a[:32, :32]
    np.linalg.eigh(b + b.conj().T)
    scipy.linalg.eig(b)
    return time.perf_counter() - t0


def probe_setup():
    """`time_setup` in a fresh interpreter; the interpreter start is not timed."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(ROOT)!r}]; "
            "from perfbench.run import time_setup; print(repr(time_setup()))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def blas_threads():
    """Thread count of every loaded OpenBLAS, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in Path(line.split()[-1]).name})
    except OSError:
        return {}
    threads = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return threads


def git_commit():
    """HEAD of the repository holding this file, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "git_commit": git_commit(),
    }


def run_pass(workload, seed, tracer=None):
    """Run, time and check one pass; returns its record and the checked values."""
    from perfbench.workloads import Pass

    RUNS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        scratch = Path(tmp)
        p = Pass()
        with tracer.installed() if tracer else nullcontext():
            c0, t0 = time.process_time(), time.perf_counter()
            workload.run(p, ROOT, seed, scratch)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        values, info = workload.collect(p, scratch)
    checks = workload.check(values)
    return {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "attempted": len(p.ops), "failed": sorted(p.failed(checks)),
            "checks": checks, "info": info}, values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "openmaps" / "__init__.py").is_file():
        print(f"openmaps source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    # nothing above imports numpy, so this times the process's first import
    setup = [time_setup()]
    import openmaps

    if Path(openmaps.__file__).resolve().parent != SRC / "openmaps":
        print(f"imported openmaps from {openmaps.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    workload.warm()
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "env": environment(args.seed),
              "warm_s": time.perf_counter() - t0, "passes": []}
    passes = record["passes"]
    if args.trace:
        untraced, _ = run_pass(workload, args.seed)
        tracer = Tracer(keys=layers.KEYS)
        traced, values = run_pass(workload, args.seed, tracer)
        passes += [untraced, traced]
        metrics = layers.layer_metrics(tracer, traced["wall_s"], untraced["wall_s"],
                                       traced["cpu_s"], values.get("bytes_written", 0))
        units = layers.UNITS
        record["spans"] = [s.as_list() for s in tracer.spans]
    else:
        # machine speed drifts over seconds: probe before and after the passes
        setup += [probe_setup() for _ in range(SETUP_PROBES // 2)]
        start = time.perf_counter()
        while True:
            passes.append(run_pass(workload, args.seed)[0])
            if len(passes) == 1:
                # later passes add allocator growth, so a run with more
                # passes would read as using more memory
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            median_wall = statistics.median(p["wall_s"] for p in passes)
            if time.perf_counter() - start + median_wall > args.seconds:
                break
        setup += [probe_setup() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics = {
            "wall_s": median_wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        record["setup_s"] = setup
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)

    record["metrics"] = metrics
    RUNS.mkdir(parents=True, exist_ok=True)
    out_path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    env = record["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(record['passes'])}  nproc {env['nproc']}  "
          f"blas {env['blas']['name']} {env['blas']['threads']}  "
          f"commit {env['git_commit']}")
    for p in passes:
        for sub, digest in sorted(p["info"].get("payload_sha256", {}).items()):
            print(f"  payload sha256 {sub:<12} {digest}")
        for op, label, ok in p["checks"]:
            print(f"  check {'ok  ' if ok else 'FAIL'} {op}: {label}")
    print(f"  fail_frac {failed / attempted:.4f} ratio "
          f"({failed} failed of {attempted} operations)")
    for name, value in metrics.items():
        print(f"  {name} {value} {units[name]}")
    print(f"  run record {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
