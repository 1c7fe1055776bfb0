#include "digital/fault_sim.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>

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

// Consumers of every net — the gates reading it and the DFFs whose D pin it
// drives — so a forward walk from a fault site is its fan-out cone closed
// through the flip-flops (D in the cone => Q in the cone).
class FanoutGraph {
 public:
  explicit FanoutGraph(const Netlist& nl) : first_(nl.num_nets() + 1, 0) {
    const std::size_t n = nl.num_nets();
    auto each_fanin = [&](auto&& fn) {
      for (NetId id = 0; id < n; ++id) {
        const Gate& g = nl.gate(id);
        const int a = arity(g.type);
        if (a >= 1) fn(g.fanin0, id);
        if (a >= 2) fn(g.fanin1, id);
      }
    };
    each_fanin([&](NetId from, NetId) { ++first_[from + 1]; });
    for (std::size_t i = 0; i < n; ++i) first_[i + 1] += first_[i];
    to_.resize(first_[n]);
    std::vector<std::uint32_t> fill(first_.begin(), first_.end() - 1);
    each_fanin([&](NetId from, NetId to) { to_[fill[from]++] = to; });
  }

  template <typename Fn>
  void for_each_consumer(NetId v, Fn&& fn) const {
    for (std::uint32_t e = first_[v]; e < first_[v + 1]; ++e) fn(to_[e]);
  }

  // Topological order of the sequential graph (DFF D -> Q is an edge too),
  // Kahn's algorithm from the fanin-free nets; nets on a loop through state
  // follow in net order.
  std::vector<NetId> topo_order() const {
    const std::size_t n = first_.size() - 1;
    std::vector<std::uint32_t> pending(n, 0);
    for (NetId c : to_) ++pending[c];
    std::vector<NetId> order;
    order.reserve(n);
    for (NetId v = 0; v < n; ++v) {
      if (pending[v] == 0) order.push_back(v);
    }
    for (std::size_t head = 0; head < order.size(); ++head) {
      for_each_consumer(order[head], [&](NetId c) {
        if (--pending[c] == 0) order.push_back(c);
      });
    }
    for (NetId v = 0; v < n && order.size() < n; ++v) {
      if (pending[v] != 0) order.push_back(v);
    }
    return order;
  }

  // Sets live[n] for every net n in the cones of `sites`.
  void mark_cones(std::span<const NetId> sites, std::vector<std::uint8_t>& live) const {
    std::vector<NetId> stack;
    for (NetId s : sites) {
      if (live[s]) continue;
      live[s] = 1;
      stack.push_back(s);
    }
    while (!stack.empty()) {
      const NetId v = stack.back();
      stack.pop_back();
      for_each_consumer(v, [&](NetId c) {
        if (live[c]) return;
        live[c] = 1;
        stack.push_back(c);
      });
    }
  }

 private:
  std::vector<std::uint32_t> first_;  // CSR row starts, num_nets + 1
  std::vector<NetId> to_;
};

// The batch partition: fault indices in simulation order, cut into
// consecutive runs of `per_batch`, each run ascending. With more than one
// batch, faults are ordered by fan-out cone — largest first, then by the
// site's topological position — so each batch's cone union, the logic it
// simulates, stays small (PROOFS-style fault grouping). The size key is the
// site's fan-out path count (every cone net counted once per path reaching
// it), linear in the netlist where exact cone sizes take one walk per site;
// on the reference FIR it groups as tightly as the exact sizes do. A single
// batch keeps the submitted order and costs no cone analysis.
std::vector<std::uint32_t> batch_partition(const FanoutGraph& graph,
                                           std::span<const Fault> faults,
                                           std::size_t per_batch) {
  std::vector<std::uint32_t> order(faults.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  if (faults.size() <= per_batch) return order;

  const std::vector<NetId> topo = graph.topo_order();
  std::vector<std::uint32_t> position(topo.size());
  std::vector<double> paths(topo.size(), 1.0);
  for (std::uint32_t p = 0; p < topo.size(); ++p) position[topo[p]] = p;
  for (std::size_t p = topo.size(); p-- > 0;) {
    const NetId v = topo[p];
    double sum = 1.0;
    graph.for_each_consumer(v, [&](NetId c) { sum += paths[c]; });
    paths[v] = std::min(sum, 1e300);
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const NetId na = faults[a].net, nb = faults[b].net;
    if (paths[na] != paths[nb]) return paths[na] > paths[nb];
    if (position[na] != position[nb]) return position[na] < position[nb];
    return a < b;
  });
  for (std::size_t base = 0; base < order.size(); base += per_batch) {
    const auto last = order.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(order.size(), base + per_batch));
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(base), last);
  }
  return order;
}

// Boundary validation of a bus: width 1..64 (bus values are int64), nets in
// range, and primary inputs only on the input side.
void require_bus(const Netlist& nl, const Bus& bus, const std::string& name,
                 bool inputs_only) {
  MSTS_REQUIRE(bus.width() >= 1 && bus.width() <= 64, name + " bus width must be 1..64");
  for (NetId b : bus.bits) {
    MSTS_REQUIRE(b < nl.num_nets(), name + " bus net out of range");
    MSTS_REQUIRE(!inputs_only || nl.gate(b).type == GateType::kInput,
                 name + " bus bit is not a primary input");
  }
}

}  // namespace

FaultSimResult simulate_faults(const Netlist& nl, const Bus& input, const Bus& output,
                               std::span<const std::int64_t> stimulus,
                               std::span<const Fault> faults,
                               const FaultSimOptions& options) {
  MSTS_REQUIRE(!stimulus.empty(), "stimulus must be non-empty");
  require_bus(nl, input, "input", true);
  require_bus(nl, output, "output", false);
  for (const Fault& f : faults) MSTS_REQUIRE(f.net < nl.num_nets(), "fault net out of range");
  MSTS_REQUIRE(options.machine_words >= 0,
               "FaultSimOptions::machine_words must be >= 0 (0 = default_machine_words())");
  obs::Span span("digital.simulate_faults");
  obs::counter_add("digital.simulate_faults.faults", faults.size());
  obs::counter_add("digital.simulate_faults.vectors", stimulus.size());

  FaultSimResult result;
  result.faults.assign(faults.begin(), faults.end());
  result.detected.assign(faults.size(), false);
  if (options.capture_waveforms) {
    result.waveforms.assign(faults.size(), {});
  }

  // Dedicated good-machine pass. It also records the good trace every
  // cone-restricted batch reads its held nets from: one bit per alias root
  // (non-BUF net) per cycle, since a held net is always a root, shared
  // read-only by the batches.
  const std::size_t cycles = stimulus.size();
  std::size_t row_words = 0;
  std::vector<std::uint64_t> trace;
  {
    ParallelSimulator sim(nl, 1);  // one machine suffices for the reference
    row_words = sim.row_words();
    trace.assign(faults.empty() ? 0 : cycles * row_words, 0);
    StreamCapture capture(output, cycles, 1);
    for (std::size_t t = 0; t < cycles; ++t) {
      sim.set_bus(input, stimulus[t]);
      sim.eval();
      capture.record(sim, t);
      if (!trace.empty()) sim.good_row(trace.data() + t * row_words);
      sim.clock();
    }
    capture.for_each_stream(0, 0, [&](std::size_t, std::span<const std::int64_t> s) {
      result.good_waveform.assign(s.begin(), s.end());
    });
  }
  if (faults.empty()) return result;

  // Per-fault streams go to the caller's visitor and/or the waveform store.
  const bool streamed = options.capture_waveforms || options.on_waveform;
  auto emit = [&](std::size_t fault, std::span<const std::int64_t> stream, bool differs) {
    if (options.capture_waveforms) {
      result.waveforms[fault].assign(stream.begin(), stream.end());
    }
    if (options.on_waveform) options.on_waveform(fault, stream, differs);
  };

  // Machines per simulator word group: 64 * W machines, machine 0 good,
  // machines 1..64W-1 carrying one fault each.
  const std::size_t mwords = options.machine_words > 0
                                 ? static_cast<std::size_t>(options.machine_words)
                                 : default_machine_words();
  const std::size_t per_batch = 64 * mwords - 1;
  const std::size_t nbatches = (faults.size() + per_batch - 1) / per_batch;
  obs::counter_add("digital.simulate_faults.batches", nbatches);
  const FanoutGraph graph(nl);
  const std::vector<std::uint32_t> order = batch_partition(graph, faults, per_batch);
  // vector<bool> packs adjacent flags into shared words, so batches record
  // their verdicts in per-batch masks and the flags are unpacked serially.
  std::vector<std::uint64_t> batch_masks(nbatches * mwords, 0);
  // A throwing visitor ends its batch; the failure with the lowest fault
  // index is rethrown once every batch is done.
  std::vector<std::exception_ptr> failures(nbatches);
  std::vector<std::size_t> failed_at(nbatches, 0);

  stats::parallel_for_index(nbatches, options.threads, [&](std::size_t bi) {
    const std::size_t base = bi * per_batch;
    const std::span<const std::uint32_t> ids(
        order.data() + base, std::min<std::size_t>(per_batch, faults.size() - base));
    const std::size_t batch = ids.size();

    // Live set: the union of the batch's fan-out cones, plus the output
    // bits (outside the cones they simply evaluate to the good values).
    std::vector<std::uint8_t> live(nl.num_nets(), 0);
    {
      std::vector<NetId> sites(batch);
      for (std::size_t i = 0; i < batch; ++i) sites[i] = faults[ids[i]].net;
      graph.mark_cones(sites, live);
    }
    for (NetId b : output.bits) live[b] = 1;

    ParallelSimulator sim(nl, mwords, live);
    for (std::size_t i = 0; i < batch; ++i) {
      sim.inject(faults[ids[i]], static_cast<int>(i + 1));
    }
    std::optional<StreamCapture> capture;
    if (streamed) capture.emplace(output, cycles, mwords);

    // Bits of machines 1..batch across the word group — the "every fault
    // detected" early-exit target.
    std::vector<std::uint64_t> all_mask(mwords, 0);
    for (std::size_t m = 1; m <= batch; ++m) {
      all_mask[m / 64] |= 1ull << (m % 64);
    }

    std::vector<std::uint64_t> detected_mask(mwords, 0);
    for (std::size_t t = 0; t < cycles; ++t) {
      sim.set_bus(input, stimulus[t]);
      sim.load_held(trace.data() + t * row_words);
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
    // Nets a batch's program stores and gate ops it sweeps, summed: against
    // batches x nets, the share of the netlist the cone restriction and the
    // BUF aliasing left to simulate.
    obs::counter_add("digital.simulate_faults.batch_nets", sim.stored_nets());
    obs::counter_add("digital.simulate_faults.batch_ops", sim.gate_ops());
    std::copy(detected_mask.begin(), detected_mask.end(),
              batch_masks.begin() + bi * mwords);
    if (capture) {
      std::size_t current = 0;
      try {
        capture->for_each_stream(1, batch, [&](std::size_t m, std::span<const std::int64_t> s) {
          current = ids[m - 1];
          emit(current, s, ((detected_mask[m / 64] >> (m % 64)) & 1ull) != 0);
        });
      } catch (...) {
        failures[bi] = std::current_exception();
        failed_at[bi] = current;
      }
    }
  });

  std::size_t first_failure = nbatches;
  for (std::size_t bi = 0; bi < nbatches; ++bi) {
    if (failures[bi] && (first_failure == nbatches || failed_at[bi] < failed_at[first_failure])) {
      first_failure = bi;
    }
  }
  if (first_failure != nbatches) std::rethrow_exception(failures[first_failure]);

  for (std::size_t bi = 0; bi < nbatches; ++bi) {
    const std::size_t base = bi * per_batch;
    const std::size_t batch = std::min<std::size_t>(per_batch, faults.size() - base);
    const std::uint64_t* masks = batch_masks.data() + bi * mwords;
    for (std::size_t i = 0; i < batch; ++i) {
      const std::size_t m = i + 1;
      result.detected[order[base + i]] = ((masks[m / 64] >> (m % 64)) & 1ull) != 0;
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
