#!/usr/bin/env python3
"""Tiny-scale self-check of the msts benchmark.

    python3 perfbench/selftest.py

Runs every workload at reduced size (--tiny) with --trace 0 and --trace 1
through perfbench/run.py and checks that:
  * the last stdout line is the one-line JSON result, with exactly the
    end-to-end (trace 0) or per-layer (trace 1) metrics, each with its unit;
  * those names and units match BENCHMARK.json;
  * the full record carries every named metric of the workload with a unit,
    the host facts, a reconciling layer table and a bit-identical replay;
  * every correctness oracle passed.
Exit status 0 when everything holds.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

COMMON = ["setup_s", "setup_wall_s", "throughput", "cpu_throughput", "peak_rss_mib",
          "failed_frac"]
NAMED = {
    "fault-campaign": ["core.tester_setup_ms", "core.exact_campaign_ms",
                       "core.spectral_short_ms", "core.spectral_long_ms",
                       "core.path_codes_ms", "digital.detect_ratio_long",
                       "digital.waveform_mib"],
    "mc-validation": ["core.mc_validate_ms"],
    "service-mix": ["hit_p50_ms", "hit_p99_ms", "miss_p50_ms", "miss_p99_ms",
                    "max_rps_at_slo", "harness.gen_lag_ms_p99", "service.admit_us",
                    "service.queue_wait_ms_p99", "service.exec_hit_us",
                    "service.exec_miss_ms", "service.hit_ratio", "service.refused",
                    "service.cache_entries"],
    "topology-sweep": [],
}
BATCH_TRACED = ["stats.scaling_eff", "stats.sched_tasks", "stats.sched_steals"]
NAMED_TRACED = {
    "fault-campaign": BATCH_TRACED + [
        "digital.fault_vectors", "digital.fault_sim_exact_ms", "digital.fault_sim_short_ms",
        "digital.fault_sim_long_ms", "dsp.spectrum_us_512", "dsp.spectrum_us_8192",
        "dsp.plan_cache_hit_ratio"],
    "mc-validation": BATCH_TRACED + [
        "path.sampled_us", "path.two_tone_us", "path.run_us", "path.runs_per_trial",
        "core.measure_iip3_us", "analog.amp_us", "analog.mixer_us", "analog.lpf_us",
        "analog.adc_us", "base.biquad_ff_ns", "base.fir_dot_ns",
        "dsp.plan_cache_hit_ratio", "dsp.spectrum_us_"],
    "service-mix": ["service.content_key_us", "core.synthesize_ms",
                    "stats.evaluate_test_us", "service.race_adopted"],
    "topology-sweep": BATCH_TRACED + [
        "core.synthesize_ms", "stats.evaluate_test_mc_ms", "stats.evaluate_test_us",
        "sweep.scenario_ms_p50", "sweep.scenario_ms_max"],
}
HOST_FACTS = ["host.nproc", "host.cpu_model", "host.isa", "host.threads",
              "host.build_type", "seed"]

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL {what}")


def check_benchmark_json():
    path = HERE.parent / "BENCHMARK.json"
    if not path.exists():
        print("BENCHMARK.json not found next to perfbench/; skipping the name check")
        return
    b = json.loads(path.read_text())
    check([(m["name"], m["unit"]) for m in b["end_to_end"]] == run.END_TO_END,
          "BENCHMARK.json end_to_end names/units match run.py")
    check([(m["name"], m["unit"]) for m in b["per_layer"]] == run.PER_LAYER,
          "BENCHMARK.json per_layer names/units match run.py")
    check([w["name"] for w in b["workloads"]] == run.WORKLOADS,
          "BENCHMARK.json workloads match run.py")


def has_metric(rec, name):
    if name.endswith("_"):
        keys = [k for k in rec["metrics"] if k.startswith(name)]
    else:
        keys = [name] if name in rec["metrics"] else []
    return bool(keys) and all(rec["metrics"][k]["unit"] for k in keys)


def run_one(workload, trace):
    tag = f"{workload} trace={trace}"
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
                       capture_output=True, text=True)
    check(p.returncode == 0, f"{tag}: exit status {p.returncode}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        check(False, f"{tag}: no result line")
        return
    line = json.loads(lines[-1])
    check(sorted(line) == ["attempted", "correct", "failed", "metrics"], f"{tag}: result keys")
    check(line["correct"] is True, f"{tag}: correct")
    check(isinstance(line["attempted"], int) and line["attempted"] >= 1, f"{tag}: attempted")
    want = run.PER_LAYER if trace else run.END_TO_END
    check(sorted(line["metrics"]) == sorted(n for n, _ in want), f"{tag}: metric names")
    for name, unit in want:
        m = line["metrics"].get(name, {})
        check(m.get("unit") == unit, f"{tag}: {name} unit")
        v = m.get("value")
        check(isinstance(v, (int, float)) and math.isfinite(v), f"{tag}: {name} value")

    rec_path = Path.cwd() / ".bench_out" / f"{workload}-seed1-trace{trace}-tiny.json"
    rec = json.loads(rec_path.read_text())
    for name in COMMON + NAMED[workload] + (NAMED_TRACED[workload] if trace else []):
        check(has_metric(rec, name), f"{tag}: record has {name} with a unit")
    for fact in HOST_FACTS:
        check(rec["facts"].get(fact), f"{tag}: record has fact {fact}")
    if trace:
        check(rec["layer_table"].get("reconciles") is True, f"{tag}: layer table reconciles")
        if workload != "service-mix":
            check(rec["facts"].get("replay_bit_identical") == "true",
                  f"{tag}: replay bit-identical")
    print(f"ok   {tag}: {len(rec['metrics'])} metrics")


def main():
    check_benchmark_json()
    for w in run.WORKLOADS:
        for trace in (0, 1):
            run_one(w, trace)
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
