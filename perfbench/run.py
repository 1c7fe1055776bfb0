#!/usr/bin/env python3
"""The msts benchmark: builds msts_perfbench from source, runs one workload
(or all of them) and reports the result.

One workload, as BENCHMARK.json's command runs it:

    python3 perfbench/run.py --workload fault-campaign --seed 7 --seconds 10 --trace 0

prints the workload's report on stderr and, as the last line of stdout, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The full
result record (every metric, host facts, layer table) is kept under
.bench_out/. Exit status 1 when a correctness oracle failed, 2 when the
benchmark could not run.

Every workload, every metric by name with its unit:

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR, else
.bench_build.
"""

import argparse
import fcntl
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ["fault-campaign", "mc-validation", "service-mix", "topology-sweep"]

# What the one-line result carries (BENCHMARK.json lists the same names).
END_TO_END = [("setup_s", "s"), ("cpu_throughput", "units/cpu_s"), ("peak_rss_mib", "MiB")]
PER_LAYER = [("layer.unit_ms", "ms")] + [
    (f"{m}.self_frac", "ratio")
    for m in ("service", "sweep", "core", "path", "digital", "dsp", "stats")
] + [("obs.unattributed_frac", "ratio"), ("obs.trace_overhead_frac", "ratio")]

# The end-to-end metrics a user of each workload sees, for the --all table.
REPORT_METRICS = [
    ("setup_s", "s"), ("setup_wall_s", "s"), ("throughput", "units/s"),
    ("cpu_throughput", "units/cpu_s"), ("peak_rss_mib", "MiB"),
    ("failed_frac", "ratio"), ("hit_p50_ms", "ms"), ("hit_p99_ms", "ms"),
    ("miss_p50_ms", "ms"), ("miss_p99_ms", "ms"), ("max_rps_at_slo", "req/s"),
]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else (Path.cwd() / d)


def build():
    """Configures and builds msts_perfbench; returns its path or None."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").exists():
            r = subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                return None
        jobs = str(max(1, min(os.cpu_count() or 1, 8)))
        r = subprocess.run(["cmake", "--build", str(bdir), "-j", jobs,
                            "--target", "msts_perfbench"],
                           stdout=subprocess.DEVNULL, stderr=sys.stderr)
        if r.returncode != 0:
            return None
    exe = bdir / "msts_perfbench"
    return exe if exe.exists() else None


def run_workload(exe, workload, seed, seconds, trace, tiny):
    """Runs one workload; returns its record (dict) or None."""
    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{workload}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}.json"
    if out.exists():
        out.unlink()
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode not in (0, 1) or not out.exists():
        log(f"{workload}: exited with status {proc.returncode}")
        return None
    return json.loads(out.read_text())


def result_line(rec, trace):
    """The one-line result, or None when a metric is missing."""
    metrics = {}
    for name, unit in (PER_LAYER if trace else END_TO_END):
        m = rec["metrics"].get(name)
        if m is None or m["value"] is None or not math.isfinite(m["value"]):
            log(f"metric {name} missing or not finite")
            return None
        if m["unit"] != unit:
            log(f"metric {name} has unit {m['unit']}, expected {unit}")
            return None
        metrics[name] = {"value": m["value"], "unit": unit}
    return {"correct": bool(rec["correct"]), "attempted": int(rec["attempted"]),
            "failed": int(rec["failed"]), "metrics": metrics}


def print_all(records, trace):
    names = [r["workload"] for r in records]
    width = 16
    print(f"{'metric':<18}{'unit':<9}" + "".join(f"{n:>{width}}" for n in names))
    for name, unit in REPORT_METRICS + (PER_LAYER if trace else []):
        cells = []
        for r in records:
            m = r["metrics"].get(name)
            cells.append("n/a" if m is None or m["value"] is None else f"{m['value']:.6g}")
        print(f"{name:<18}{unit:<9}" + "".join(f"{c:>{width}}" for c in cells))
    print(f"{'correct':<27}" + "".join(f"{str(r['correct']).lower():>{width}}" for r in records))
    host = records[0]["facts"]
    print("host: nproc=%s cpu=%s isa=%s threads=%s build=%s seed=%s" % (
        host.get("host.nproc"), host.get("host.cpu_model"), host.get("host.isa"),
        host.get("host.threads"), host.get("host.build_type"), host.get("seed")))
    if trace:
        for r in records:
            t = r["layer_table"]
            print(f"\nlayer table: {r['workload']} (parent {t['parent_s']:.6f} s, "
                  f"rows sum {t['rows_sum_s']:.6f} s, "
                  f"{'reconciles' if t['reconciles'] else 'DOES NOT RECONCILE'}; "
                  f"replay bit-identical: {r['facts'].get('replay_bit_identical')})")
            for row in t["rows"]:
                print(f"  {row['layer']:<14}{row['self_s']:>12.6f} s{100 * row['share']:>8.2f} %")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="reduced inputs (self-check)")
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")

    exe = build()
    if exe is None:
        log("build failed")
        return 2

    if args.all:
        records = []
        for w in WORKLOADS:
            rec = run_workload(exe, w, args.seed, args.seconds, args.trace, args.tiny)
            if rec is None:
                return 2
            records.append(rec)
        print_all(records, args.trace)
        return 0 if all(r["correct"] for r in records) else 1

    rec = run_workload(exe, args.workload, args.seed, args.seconds, args.trace, args.tiny)
    if rec is None:
        return 2
    line = result_line(rec, args.trace)
    if line is None:
        return 2
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
