"""qbrach benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload shoot-su4 --seed 0 --seconds 20 --trace 0

One caller runs the workload's operations back to back (the next starts
when the last ends) for --seconds, in whole rounds, and checks every result.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs each
round twice, untraced and traced, and prints the per-layer metrics derived
from spans around the calls into qbrach's modules.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  A fuller
record (environment, sample counts, failures, tail percentile and, when
traced, every span) goes to .bench_out/ in the checkout.

Seeds: 0 is the default; 1 is held out for confirming a claimed gain.
Exits 2 without a result when the checkout has no src/qbrach.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

DEFAULT_SEED = 0
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("shoot-su4", "two-level", "cli-solve", "cli-verify")

# metric name -> unit, printed with --trace 0 and --trace 1 respectively;
# keep in step with BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "dynamics.integrate.calls": "count",
    "dynamics.integrate.self_ms": "ms",
    "dynamics.integrate.steps": "count",
    "dynamics.integrate.us_per_step": "us",
    "dynamics.integrate.restarts": "count",
    "solvers.shoot.self_ms": "ms",
    "solvers.shoot.pass1_useful_ratio": "ratio",
    "dynamics.validate.calls": "count",
    "dynamics.validate.self_ms": "ms",
    "dynamics.finalize.self_ms": "ms",
    "verify.certify.calls": "count",
    "verify.certify.self_ms": "ms",
    "cli.self_ms": "ms",
    "cli.out_mb": "MB",
    "cli.in_mb": "MB",
    "solvers.to_dict.self_ms": "ms",
    "dynamics.to_dict.self_ms": "ms",
    "dynamics.from_dict.self_ms": "ms",
    "algebra.basis_builds": "count",
    "algebra.self_ms": "ms",
    "solvers.analytic.self_ms": "ms",
    "states.self_ms": "ms",
    "dynamics.self_ms": "ms",
    "solvers.self_ms": "ms",
    "verify.self_ms": "ms",
    "verify.ref_err_max": "1",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
}

clock = time.perf_counter


class Tally:
    """Wall times, failures and byte counts of the operations of one pass.

    `times` are raw seconds; `scales` the speed-probe factor of each
    (speed.py); `scaled` their products."""

    def __init__(self, probe):
        self.probe = probe
        self.times: list = []
        self.scales: list = []
        self.labels: list = []
        self.failures: list = []
        self.ref_err_max = 0.0
        self.in_mb = 0.0
        self.out_mb = 0.0

    def op(self, workload, op, tracer=None):
        """Run one operation, timed, then check its result untimed."""
        if tracer is not None:
            tracer.op = len(self.times)
            tracer.enabled = True
        t0 = clock()
        try:
            result, error = workload.run(op), None
        except Exception as exc:  # any exception is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        self.times.append(clock() - t0)
        self.labels.append(op.label)
        if tracer is not None:
            tracer.enabled = False
        self.scales.append(self.probe.after(self.times[-1]))
        self.in_mb += workload.in_mb
        self.out_mb += workload.out_mb
        if error is None:
            try:
                error, err = workload.check(op, result)
            except Exception as exc:
                error, err = f"check raised {type(exc).__name__}: {exc}", math.inf
            if math.isfinite(err):
                self.ref_err_max = max(self.ref_err_max, err)
        if error is not None:
            self.failures.append(f"{op.label}: {error}")

    @property
    def scaled(self) -> list:
        return [t * s for t, s in zip(self.times, self.scales)]


def tail(times: list) -> dict:
    """Highest whole percentile with at least ten samples above it."""
    n = len(times)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return {"n": n, "left_out": f"{n} samples leave no percentile above p50 with 10 beyond it"}
    cut = statistics.quantiles(times, n=100, method="inclusive")[p - 1]
    return {"n": n, "percentile": p, "ms": 1e3 * cut}


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(inputs) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((inputs.SRC / "qbrach").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_pinned": inputs.BLAS_THREADS,
        "blas_threads_runtime": _blas_threads(),
        "git_commit": _git_commit(inputs.ROOT),
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qbrach benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = clock()
    import inputs  # pins BLAS threads, exits 2 without the package
    import workloads

    import_s = clock() - t0

    out_dir = inputs.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    try:
        record = measure(args, workloads.WORKLOADS[args.workload](), tmp_root, import_s)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    record["environment"] = environment(inputs)
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {record['attempted']}  failed {record['failed']}")
    for name, value in record["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {units[name]:6s} n={record['samples'][name]}")
    if not args.trace:
        t = record["op_tail"]
        print("  op_tail_ms".ljust(37) + (
            f"{t['ms']:14.6g} ms     p{t['percentile']} of n={t['n']}"
            if "ms" in t else f"left out: {t['left_out']}"))
    print(f"  fail_ratio {record['failed']}/{record['attempted']}; "
          f"negative self-check caught: {record['negative_caught']}")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")
    print(f"  environment {json.dumps(record['environment'])}")
    print(f"  record {record_path.relative_to(inputs.ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }))
    return 0


def measure(args, workload, tmp_root: Path, import_s: float) -> dict:
    """Set up, run whole rounds for args.seconds, and derive the metrics.

    Every reported time is a raw wall time times the speed-probe factor of
    the interval it measures (speed.py)."""
    import speed
    import tracing

    probe = speed.Probe()
    # set-up: inputs, files in a fresh temp dir, one warm-up op not counted
    import_scaled = import_s * probe.after(import_s)
    setups, setups_scaled = [], []
    for rep in range(SETUP_REPEATS):
        tmpdir = tmp_root / f"setup{rep}"
        tmpdir.mkdir()
        t0 = clock()
        workload.setup(args.seed, tmpdir)
        warm_op = workload.round(0)[0]
        warm = workload.run(warm_op)
        setups.append(clock() - t0)
        setups_scaled.append(setups[-1] * probe.after(setups[-1]))
    negative_caught = workload.negative(warm_op, warm)
    del warm

    plain = Tally(probe)
    traced = Tally(probe) if args.trace else None
    tracer = tracing.Tracer() if args.trace else None
    start = clock()
    k = 0
    while clock() - start < args.seconds:
        ops = workload.round(k)
        # traced rounds repeat the untraced round's inputs, alternately
        # after and before it, so the overhead ratio carries no order bias
        order = (False,) if tracer is None else (False, True) if k % 2 == 0 else (True, False)
        for traced_pass in order:
            if traced_pass:
                tracer.install()
                try:
                    for op in ops:
                        traced.op(workload, op, tracer)
                finally:
                    tracer.uninstall()
            else:
                for op in ops:
                    plain.op(workload, op)
        k += 1
    wall_s = clock() - start
    scaled = plain.scaled

    tallies = [plain] + ([traced] if traced else [])
    attempted = sum(len(t.times) for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": k,
        "wall_s": wall_s,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "negative_caught": negative_caught,
        "correct": not failures and negative_caught,
        "scale_median": statistics.median(plain.scales),
        "probe_ms": {"n": len(probe.times), "mean": 1e3 * statistics.mean(probe.times),
                     "min": 1e3 * min(probe.times), "max": 1e3 * max(probe.times)},
        "raw": {"import_s": import_s, "setup_repeats_s": setups,
                "op_p50_ms": 1e3 * statistics.median(plain.times)},
        "op_ms": {},
    }
    for label, t in zip(plain.labels, scaled):
        record["op_ms"].setdefault(label, []).append(1e3 * t)
    n = len(plain.times)
    if not args.trace:
        record["metrics"] = {
            "setup_s": import_scaled + statistics.median(setups_scaled),
            "ops_per_s": n / sum(scaled),
            "op_p50_ms": 1e3 * statistics.median(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["samples"] = {"setup_s": SETUP_REPEATS, "ops_per_s": n, "op_p50_ms": n,
                             "peak_rss_mb": 1}
        record["op_tail"] = tail(scaled)
    else:
        m = len(traced.times)
        metrics = tracing.layer_metrics(tracer, m, traced.scales, sum(traced.scaled))
        metrics["cli.out_mb"] = traced.out_mb / m
        metrics["cli.in_mb"] = traced.in_mb / m
        metrics["verify.ref_err_max"] = max(plain.ref_err_max, traced.ref_err_max)
        metrics["trace.overhead_ratio"] = sum(traced.scaled) / sum(plain.scaled)
        record["metrics"] = {name: metrics[name] for name in PER_LAYER}
        record["samples"] = {name: m for name in PER_LAYER}
        record["self_ms_by_label"] = tracing.by_label(tracer, traced.labels)
        record["traced_labels"] = traced.labels
        record["traced_op_s"] = traced.times
        record["spans"] = tracer.spans
    return record


if __name__ == "__main__":
    sys.exit(main())
