#include "digital/fault_sim.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "base/require.h"
#include "base/simd.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "stats/parallel.h"

namespace msts::digital {

double FaultSimResult::coverage() const {
  if (faults.empty()) return 0.0;
  const auto hits = static_cast<double>(std::count(detected.begin(), detected.end(), true));
  return hits / static_cast<double>(faults.size());
}

namespace {

// Bit-plane capture of one simulator's output bus over a stimulus: row t
// holds the bus planes of cycle t (ParallelSimulator::capture_planes), and
// for_each_stream() transposes them into per-machine streams.
class StreamCapture {
 public:
  StreamCapture(const Bus& output, std::size_t cycles, std::size_t words)
      : output_(output),
        cycles_(cycles),
        words_(words),
        row_(output.width() * words),
        planes_(cycles * row_) {}

  void record(const ParallelSimulator& sim, std::size_t t) {
    sim.capture_planes(output_, planes_.data() + t * row_);
  }

  // Calls emit(machine, stream) for machines first..last in ascending
  // order, decoding 64 machines at a time into a reused stream buffer.
  template <typename Emit>
  void for_each_stream(std::size_t first, std::size_t last, Emit&& emit) const {
    // Rows are padded by one cache line so the 64 streams written in
    // lockstep do not all map to the same cache sets.
    const std::size_t stride = cycles_ + 8;
    std::vector<std::int64_t> streams(std::min<std::size_t>(64, last - first + 1) * stride);
    std::int64_t values[64];
    for (std::size_t g = first / 64; g <= last / 64; ++g) {
      const std::size_t lo = std::max(first, 64 * g) - 64 * g;
      const std::size_t hi = std::min(last, 64 * g + 63) - 64 * g;
      for (std::size_t t = 0; t < cycles_; ++t) {
        ParallelSimulator::group_bus_values(planes_.data() + t * row_, output_.width(),
                                            words_, g, values);
        for (std::size_t j = lo; j <= hi; ++j) streams[(j - lo) * stride + t] = values[j];
      }
      for (std::size_t j = lo; j <= hi; ++j) {
        emit(64 * g + j,
             std::span<const std::int64_t>(streams.data() + (j - lo) * stride, cycles_));
      }
    }
  }

 private:
  const Bus& output_;
  std::size_t cycles_;
  std::size_t words_;
  std::size_t row_;
  std::vector<std::uint64_t> planes_;
};

}  // namespace

FaultSimResult simulate_faults(const Netlist& nl, const Bus& input, const Bus& output,
                               std::span<const std::int64_t> stimulus,
                               std::span<const Fault> faults,
                               const FaultSimOptions& options) {
  MSTS_REQUIRE(!stimulus.empty(), "stimulus must be non-empty");
  MSTS_REQUIRE(input.width() >= 1 && output.width() >= 1, "need input and output buses");
  obs::Span span("digital.simulate_faults");
  obs::counter_add("digital.simulate_faults.faults", faults.size());
  obs::counter_add("digital.simulate_faults.vectors", stimulus.size());

  FaultSimResult result;
  result.faults.assign(faults.begin(), faults.end());
  result.detected.assign(faults.size(), false);
  if (options.capture_waveforms) {
    result.waveforms.assign(faults.size(), {});
  }

  // Dedicated good-machine pass: the reference waveform no longer piggybacks
  // on batch 0, so every faulty batch is independent of the others and may
  // run concurrently (and end early under stop_at_first_detection).
  {
    ParallelSimulator sim(nl, 1);  // one machine suffices for the reference
    StreamCapture capture(output, stimulus.size(), 1);
    for (std::size_t t = 0; t < stimulus.size(); ++t) {
      sim.set_bus(input, stimulus[t]);
      sim.eval();
      capture.record(sim, t);
      sim.clock();
    }
    capture.for_each_stream(0, 0, [&](std::size_t, std::span<const std::int64_t> s) {
      result.good_waveform.assign(s.begin(), s.end());
    });
  }
  if (faults.empty()) return result;

  // Per-fault streams go to the caller's visitor and/or the waveform store.
  const bool streamed = options.capture_waveforms || options.on_waveform;
  auto emit = [&](std::size_t fault, std::span<const std::int64_t> stream) {
    if (options.capture_waveforms) {
      result.waveforms[fault].assign(stream.begin(), stream.end());
    }
    if (options.on_waveform) options.on_waveform(fault, stream);
  };

  // Machines per simulator word group: 64 * W machines, machine 0 good,
  // machines 1..64W-1 carrying one fault each. W defaults to the active SIMD
  // backend's vector width (512-way batches on AVX-512).
  const std::size_t mwords =
      options.machine_words > 0
          ? static_cast<std::size_t>(options.machine_words)
          : static_cast<std::size_t>(simd::kernels().fault_words);
  const std::size_t per_batch = 64 * mwords - 1;
  const std::size_t nbatches = (faults.size() + per_batch - 1) / per_batch;
  // vector<bool> packs adjacent flags into shared words, so batches record
  // their verdicts in per-batch masks and the flags are unpacked serially.
  std::vector<std::uint64_t> batch_masks(nbatches * mwords, 0);

  stats::parallel_for_index(nbatches, options.threads, [&](std::size_t bi) {
    const std::size_t base = bi * per_batch;
    const std::size_t batch = std::min<std::size_t>(per_batch, faults.size() - base);

    ParallelSimulator sim(nl, mwords);
    for (std::size_t i = 0; i < batch; ++i) {
      sim.inject(faults[base + i], static_cast<int>(i + 1));
    }
    std::optional<StreamCapture> capture;
    if (streamed) capture.emplace(output, stimulus.size(), mwords);

    // Bits of machines 1..batch across the word group — the "every fault
    // detected" early-exit target.
    std::vector<std::uint64_t> all_mask(mwords, 0);
    for (std::size_t m = 1; m <= batch; ++m) {
      all_mask[m / 64] |= 1ull << (m % 64);
    }

    std::vector<std::uint64_t> detected_mask(mwords, 0);
    for (std::size_t t = 0; t < stimulus.size(); ++t) {
      sim.set_bus(input, stimulus[t]);
      sim.eval();

      // Exact compare: any output bit differing from machine 0 (bit 0 of
      // word 0, broadcast across the whole word group).
      for (NetId bit : output.bits) {
        const std::uint64_t* w = sim.value_words(bit);
        const std::uint64_t good = (w[0] & 1ull) ? ~0ull : 0ull;
        for (std::size_t wi = 0; wi < mwords; ++wi) {
          detected_mask[wi] |= w[wi] ^ good;
        }
      }
      if (capture) capture->record(sim, t);

      sim.clock();

      if (options.stop_at_first_detection && !streamed) {
        // All faults in this batch already detected: nothing more to learn.
        bool all = true;
        for (std::size_t wi = 0; wi < mwords; ++wi) {
          all = all && (detected_mask[wi] & all_mask[wi]) == all_mask[wi];
        }
        if (all) break;
      }
    }
    std::copy(detected_mask.begin(), detected_mask.end(),
              batch_masks.begin() + bi * mwords);
    if (capture) {
      capture->for_each_stream(1, batch, [&](std::size_t m, std::span<const std::int64_t> s) {
        emit(base + m - 1, s);
      });
    }
  });

  for (std::size_t bi = 0; bi < nbatches; ++bi) {
    const std::size_t base = bi * per_batch;
    const std::size_t batch = std::min<std::size_t>(per_batch, faults.size() - base);
    const std::uint64_t* masks = batch_masks.data() + bi * mwords;
    for (std::size_t i = 0; i < batch; ++i) {
      const std::size_t m = i + 1;
      result.detected[base + i] = ((masks[m / 64] >> (m % 64)) & 1ull) != 0;
    }
  }

  return result;
}

std::vector<std::int64_t> simulate_good(const Netlist& nl, const Bus& input,
                                        const Bus& output,
                                        std::span<const std::int64_t> stimulus) {
  const FaultSimResult r = simulate_faults(nl, input, output, stimulus, {}, {});
  return r.good_waveform;
}

}  // namespace msts::digital
