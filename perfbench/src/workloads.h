// The benchmark's workloads. Each runs its set-up, its timed window, its
// correctness oracle and — with --trace 1 — its traced replay, and returns
// the result record. See perfbench/NOTES.md for what each one exercises.
#pragma once

#include "harness.h"

namespace perfbench {

Record run_fault_campaign(const Args& args);
Record run_mc_validation(const Args& args);
Record run_service_mix(const Args& args);
Record run_topology_sweep(const Args& args);

}  // namespace perfbench
