// msts_perfbench: runs one benchmark workload and writes its result record.
//
//   msts_perfbench --workload fault-campaign|mc-validation|service-mix|topology-sweep
//                  --seed N --seconds S --trace 0|1 [--tiny] --out record.json
//
// The record (JSON) carries every metric of the workload with its unit, the
// host facts, the oracle verdict and, with --trace 1, the per-layer table.
// A human-readable copy goes to stderr. perfbench/run.py builds this
// program, runs it and prints the benchmark's one-line result.
#include <cstdio>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    Record rec;
    if (args.workload == "fault-campaign") {
      rec = run_fault_campaign(args);
    } else if (args.workload == "mc-validation") {
      rec = run_mc_validation(args);
    } else if (args.workload == "service-mix") {
      rec = run_service_mix(args);
    } else if (args.workload == "topology-sweep") {
      rec = run_topology_sweep(args);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    add_host_facts(rec);
    rec.facts["seed"] = std::to_string(args.seed);
    rec.facts["trace"] = args.trace ? "1" : "0";
    rec.facts["tiny"] = args.tiny ? "1" : "0";
    print_record(rec);
    if (!args.out_path.empty()) write_record(rec, args.out_path);
    return rec.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "msts_perfbench: %s\n", e.what());
    return 2;
  }
}
