#!/usr/bin/env python3
"""Benchmark of the unstablefb experiments and analyses.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cross --seed 1 --seconds 20 --trace 0

The workload runs as a closed loop in this process: one operation starts
after the previous one finished, until --seconds have passed (at least one
operation).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end metrics; with --trace 1 the operations alternate between
untraced and traced, and the metrics are the per-layer ones taken from the
spans of the traced operations.  A record of the run (machine, thread
settings, every sample, and with --trace 1 every span) is written to
<work-dir>/<workload>-seed<seed>-trace<trace>.json.

--smoke shrinks every grid so that a run takes seconds; test_smoke.py uses it.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cross", "asterisk", "scan", "analyze")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up runs once here and again in this many fresh interpreters
SETUP_REPEATS = 2


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small grids, for the smoke test")
    ap.add_argument("--work-dir", default=str(ROOT / ".perfbench_work"),
                    help="directory for inputs, artifacts and run records")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def pin_threads() -> dict:
    """Cap BLAS/OpenMP pools at the usable cores; unset ones default to 1.

    Must run before numpy is imported.  One thread keeps repeated timings
    comparable: SuperLU is serial, and idle pool threads only add noise.
    """
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, "1"))
        except ValueError:
            want = 1
        os.environ[var] = str(max(1, min(want, cores)))
    return {var: os.environ[var] for var in THREAD_VARS}


def import_program() -> None:
    """Import unstablefb from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import unstablefb

    where = Path(unstablefb.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"unstablefb was imported from {where}, not from {src}")


def environment(threads: dict) -> dict:
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": threads}
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            kib = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
        info["ram_mib"] = kib // 1024
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                platform.processor())
    except OSError:
        info.setdefault("cpu_model", platform.processor())
    return info


def repeat_setup(args, work: Path) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--work-dir", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_loop(wl, params: dict, scratch: Path, seconds: float, rec):
    """Closed loop of operations; with a recorder, every second one is traced."""
    from spans import Instrumentation

    samples = []
    reference = None
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline or (
            rec is not None and not any(s["traced"] for s in samples)):
        n = len(samples)
        traced = rec is not None and n % 2 == 1
        out = scratch / f"op{n}"
        error = outcome = None
        with Instrumentation(rec) if traced else contextlib.nullcontext():
            if traced:
                rec.op = n
                root = rec.start(f"cli.{wl.name}", "cli")
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            try:
                outcome = wl.operation(params, out)
            except Exception:  # a failed operation is counted, not fatal
                error = traceback.format_exc()
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
            if traced:
                rec.stop(root)
        if outcome is not None and reference is None:
            reference = outcome.headline
        failure = error or gate(wl, outcome, reference)
        if failure:
            print(f"operation {n} failed: {failure}", file=sys.stderr)
        samples.append({"op": n, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                        "artifact_bytes": tree_bytes(out) if out.exists() else 0,
                        "failure": failure})
        shutil.rmtree(out, ignore_errors=True)
    return samples


def gate(wl, outcome, reference) -> str | None:
    """Why an operation failed, or None when its outputs are as expected."""
    if outcome.solver_failure:
        return "solver failure"
    if outcome.failed_checks != wl.expected_failures:
        return (f"failed checks {sorted(outcome.failed_checks)}, "
                f"expected {sorted(wl.expected_failures)}")
    if outcome.headline != reference:
        return "headline differs from the first repeat"
    return None


def end_to_end(samples, setup_s, attempted, failed) -> dict:
    mib = 1024 * 1024
    return {
        "run_wall_s": (statistics.median(s["wall_s"] for s in samples), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "artifact_mb": (statistics.median(s["artifact_bytes"] for s in samples) / mib, "MiB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(samples, rec) -> dict:
    from spans import median_metrics, unit

    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    out = {name: (value, unit(name))
           for name, value in median_metrics([rec.op_metrics(s["op"]) for s in traced]).items()}
    wall = statistics.median(s["wall_s"] for s in traced)
    out["process.cpu_s"] = (statistics.median(s["cpu_s"] for s in traced), "s")
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_s"] = (wall - statistics.median(s["wall_s"] for s in plain), "s")
    return out


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    threads = pin_threads()
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import unstablefb from this checkout: {exc}", file=sys.stderr)
        return 1
    from spans import Recorder
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work))
    try:
        params = wl.setup(wl.make_inputs(args.seed, args.smoke), scratch)
        setup_s = [time.perf_counter() - t_start]
        if args.setup_only:
            print(setup_s[0])
            return 0
        if not args.trace:
            setup_s += [repeat_setup(args, work) for _ in range(SETUP_REPEATS)]

        rec = Recorder(t_start) if args.trace else None
        samples = run_loop(wl, params, scratch, args.seconds, rec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(samples)
    failed = sum(1 for s in samples if s["failure"])
    metrics = per_layer(samples, rec) if args.trace else end_to_end(
        samples, setup_s, attempted, failed)
    env = environment(threads)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "params": params,
              "environment": env, "setup_s": setup_s, "samples": samples,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "spans": rec.spans if rec else []}
    record_path = work / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    walls = sorted(s["wall_s"] for s in samples)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"{wl.name} seed {args.seed}: {attempted} operations, {failed} failed; "
          f"wall per operation median {statistics.median(walls):.3f} s over {attempted} "
          f"samples (min {walls[0]:.3f}, max {walls[-1]:.3f}); record {record_path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
