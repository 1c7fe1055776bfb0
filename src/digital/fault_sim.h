// Parallel stuck-at fault simulation driver.
//
// Runs the fault universe in batches of 64 * machine_words - 1 faulty
// machines plus the good machine (bit 0) against a broadcast stimulus
// sequence. Two observation styles, matching the paper's two detection
// regimes:
//  * exact compare — a fault is detected when any output bit differs from
//    the good machine in any cycle (the "exact inputs known" regime of
//    sec. 5's 89.6 % / 95.5 % coverage figures);
//  * streamed output — each fault's output sample stream is handed to a
//    visitor, so a spectral detector (core/digital_test.h) can compare
//    output spectra within a noise-derived tolerance, the paper's
//    translated-test regime.
//
// Batch partition. A call first runs the good machine alone over the whole
// netlist and records its value of every alias root — every net that is not
// a BUF (digital/sim.h) — in every cycle: one bit per root per cycle, about
// 3.7 MiB for the reference FIR's 3,767 roots at 8,192 cycles. When the faults need more than one batch, they are
// ordered by fan-out cone — largest cone first, then by the fault site's
// topological position — and cut into consecutive batches; one batch keeps
// the submitted order. Each batch simulates only the union of its faults'
// cones, closed through DFFs (ParallelSimulator's live set): every other
// net carries the good machine's value, read from the recorded trace (a
// held net is always a root, so the trace holds every net a batch can
// hold). Within a batch, unfaulted BUFs are aliases, neither stored nor
// swept, and only the fault sites are masked. This
// is exact, so the partition changes the speed, never a verdict or stream
// (PROOFS-style fault grouping, Niermann, Cheng and Patel 1992).
//
// Streaming contract (FaultSimOptions::on_waveform):
//  * Capture is per batch. Each cycle the worker copies the output bus
//    words into a batch-local bit-plane buffer; when the batch ends,
//    64x64 bit-matrix transposes turn it into per-machine streams, 64
//    machines at a time. Nothing outlives the batch, so memory is bounded
//    by the batches in flight, never by the fault count.
//  * The visitor runs on the worker threads, concurrently with itself,
//    exactly once per fault index (the index into `faults`). It must
//    confine its writes to per-index state.
//  * `differs` is the fault's exact-compare verdict: false exactly when the
//    stream equals the good machine's stream, so a verdict that depends
//    only on the stream is the good stream's verdict.
//  * The stream is valid only for the duration of the call.
//  * Batches run in any order; within a batch, indices ascend. Results
//    keyed by index are therefore identical at every thread count.
//  * A throwing visitor ends its batch; simulate_faults rethrows the
//    exception of the lowest failing fault index once every batch is done.
// capture_waveforms is a thin user of the same path: it stores every
// stream in FaultSimResult::waveforms.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "digital/faults.h"
#include "digital/netlist.h"
#include "digital/sim.h"

namespace msts::digital {

/// What simulate_faults should record.
struct FaultSimOptions {
  bool capture_waveforms = false;  ///< Keep per-fault output streams.
  /// Called on a worker thread with each fault's output stream (one sample
  /// per stimulus cycle); see the streaming contract above.
  std::function<void(std::size_t fault_index, std::span<const std::int64_t> waveform,
                     bool differs)>
      on_waveform;
  /// Exact compare may end a batch early (ignored while streams are taken).
  bool stop_at_first_detection = false;
  /// Batches run concurrently, each on its own simulator instance; the
  /// result is identical for every thread count (the batch partition is
  /// fixed and there is no randomness). > 0 forces a count; 0 defers to
  /// MSTS_THREADS / hardware concurrency; 1 is the serial path.
  int threads = 0;
  /// 64-bit words per net: each batch simulates 64*machine_words - 1 faults
  /// beside the good machine (bit 0); negative is rejected. 0 defers to
  /// default_machine_words() (digital/sim.h), the measured per-ISA width:
  /// 1 scalar, 2 NEON, 4 AVX2 and 4 AVX-512. Detection is exact logic, so
  /// the verdicts are bit-identical at every width — only the batch
  /// partition (and the speed) changes.
  int machine_words = 0;
};

/// Result of a fault-simulation campaign.
struct FaultSimResult {
  std::vector<Fault> faults;             ///< As submitted.
  std::vector<bool> detected;            ///< Exact-compare verdict per fault.
  std::vector<std::int64_t> good_waveform;  ///< Good-machine output stream.
  /// Per-fault output streams; empty unless capture_waveforms was set.
  std::vector<std::vector<std::int64_t>> waveforms;

  /// Detected count / fault count.
  double coverage() const;
};

/// Simulates `faults` against the stimulus (one input-bus sample per cycle).
/// DFF state starts at zero for every machine. Both buses must be 1..64
/// bits wide with nets in range, the input bus of primary inputs only;
/// a violation throws std::invalid_argument naming the bus.
FaultSimResult simulate_faults(const Netlist& nl, const Bus& input, const Bus& output,
                               std::span<const std::int64_t> stimulus,
                               std::span<const Fault> faults,
                               const FaultSimOptions& options = {});

/// Convenience: good-circuit output stream only.
std::vector<std::int64_t> simulate_good(const Netlist& nl, const Bus& input,
                                        const Bus& output,
                                        std::span<const std::int64_t> stimulus);

}  // namespace msts::digital
