#!/usr/bin/env python3
"""Compares two sets of msts benchmark result records.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a record file or a directory of them (run.py keeps
its records under .bench_out/). For every workload and metric found on both
sides it prints the median, the quartile spread of each side as a share of
its median, and the change of the medians. It states no gain or loss:
judging a change is the reader's job, by the benchmark's bounds.

Results are compared only within one host class: the same core count, CPU
model, SIMD ISA, thread count and build type. Records from different classes
are refused (exit status 2), because a baseline from another class of host
says nothing about this one.
"""

import json
import statistics
import sys
from pathlib import Path

HOST_CLASS = ["host.nproc", "host.cpu_model", "host.isa", "host.threads", "host.build_type"]


def load(arg):
    p = Path(arg)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text()) for f in files]


def host_class(rec):
    return tuple(rec["facts"].get(k) for k in HOST_CLASS)


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("nan")


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("no records found")
        return 2
    classes = {host_class(r) for r in base + new}
    if len(classes) != 1:
        print("refusing to compare across host classes:")
        for c in sorted(classes, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_CLASS, c)))
        return 2

    print(f"{'workload':<16}{'metric':<28}{'unit':<12}{'base':>12}{'spread':>8}"
          f"{'new':>12}{'spread':>8}{'change':>9}")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        names = sorted(set.intersection(*(set(r["metrics"]) for r in b + n)))
        for name in names:
            bv = [r["metrics"][name]["value"] for r in b if r["metrics"][name]["value"] is not None]
            nv = [r["metrics"][name]["value"] for r in n if r["metrics"][name]["value"] is not None]
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else float("nan")
            unit = b[0]["metrics"][name]["unit"]
            print(f"{workload:<16}{name:<28}{unit:<12}{bm:>12.5g}{spread(bv):>8.3f}"
                  f"{nm:>12.5g}{spread(nv):>8.3f}{change:>+9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
