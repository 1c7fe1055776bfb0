// Word-parallel gate-level simulator with stuck-at fault injection.
//
// Each bit position of a 64-bit word is an independent machine, and a net
// carries `words` consecutive 64-bit words — 64 * words machines evaluated
// per gate visit. The classic arrangement for the paper's fault simulations:
// machine 0 runs the good circuit, machines 1..64*words-1 each carry one
// injected fault, all driven by the same (broadcast) stimulus. Sequential
// state (DFFs) is carried per machine inside the same words, so faults
// propagate correctly across clock cycles.
//
// The word count defaults to the active SIMD backend's vector width
// (simd::kernels().fault_words: 1 scalar, 4 AVX2 = 256-way, 8 AVX-512 =
// 512-way) and the gate sweep itself runs through the per-ISA fault_eval
// kernel. Detection is exact logic, so results are bit-identical across
// widths and backends — the Wide vs 64-way differential check holds the
// simulator to that.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/simd.h"
#include "digital/faults.h"
#include "digital/netlist.h"

namespace msts::digital {

/// A bus is an ordered list of nets, least-significant bit first.
struct Bus {
  std::vector<NetId> bits;

  std::size_t width() const { return bits.size(); }
};

class ParallelSimulator {
 public:
  /// `machine_words` = 64-bit words per net; 0 defers to the active SIMD
  /// backend's fault_words.
  explicit ParallelSimulator(const Netlist& nl, std::size_t machine_words = 0);

  /// Machines simulated in parallel (64 * words()).
  std::size_t machines() const { return 64 * words_; }

  /// 64-bit words carried per net.
  std::size_t words() const { return words_; }

  /// Removes all injected faults.
  void clear_faults();

  /// Injects `fault` into machine `machine` (0..machines()-1). Multiple
  /// faults may share a machine (multiple-fault experiments), but the
  /// standard usage is one fault per machine with machine 0 fault-free.
  void inject(const Fault& fault, int machine);

  /// Clears all DFF state (power-up state is all zeros in every machine).
  void reset_state();

  /// Drives a primary input with the same logic value in every machine.
  void set_input(NetId input, bool value);

  /// Drives a whole input bus with a two's-complement integer, broadcast to
  /// every machine.
  void set_bus(const Bus& bus, std::int64_t value);

  /// Evaluates all combinational logic from the current inputs and state.
  void eval();

  /// Latches DFF D values into state (call after eval()).
  void clock();

  /// First word of a net after eval(); bit b is machine b's value (b < 64).
  std::uint64_t value(NetId net) const { return values_[net * words_]; }

  /// All words of a net after eval(): words() consecutive uint64s, machine m
  /// at bit m%64 of word m/64.
  const std::uint64_t* value_words(NetId net) const {
    return values_.data() + net * words_;
  }

  /// Logic value of a net in one machine.
  bool value_in_machine(NetId net, int machine) const;

  /// Two's-complement integer carried by `bus` in one machine.
  std::int64_t bus_value(const Bus& bus, int machine) const;

  /// Copies the words of every bit of `bus` (after eval()) into `planes`,
  /// side by side: plane b is the words() uint64s at planes + b * words(),
  /// bus bit b of every machine. Cheap enough to call every cycle; decode
  /// with group_bus_values().
  void capture_planes(const Bus& bus, std::uint64_t* planes) const;

  /// bus_value() for 64 machines at once: from the `width` planes (1..64)
  /// written by capture_planes() at `words` words per net, writes the
  /// sign-extended value of machine 64 * group + j into out[j], j < 64,
  /// with one 64x64 bit-matrix transpose.
  static void group_bus_values(const std::uint64_t* planes, std::size_t width,
                               std::size_t words, std::size_t group,
                               std::int64_t out[64]);

  const Netlist& netlist() const { return netlist_; }

 private:
  // A source net (input / DFF / constant) evaluated before the gate sweep;
  // offsets pre-multiplied by words_ like simd::SimOp.
  struct SrcOp {
    std::uint32_t out;   // values_ offset of the net
    std::uint32_t src;   // input_words_ / state_ offset (sources with storage)
    std::uint32_t type;  // static_cast<uint32_t>(GateType)
  };

  const Netlist& netlist_;
  std::size_t words_;
  const simd::Kernels* kern_;              // fault_eval matching words_
  std::vector<SrcOp> sources_;             // in topo order, before all gates
  std::vector<simd::SimOp> gate_ops_;      // logic gates in topo order
  std::vector<std::uint64_t> values_;      // num_nets * words_
  std::vector<std::uint64_t> state_;       // DFF Q words, dff index * words_
  std::vector<std::uint32_t> dff_index_;   // net -> index into dff list
  std::vector<std::uint64_t> and_masks_;   // fault injection: v = (v & and) | or
  std::vector<std::uint64_t> or_masks_;
  std::vector<std::uint64_t> input_words_; // input index * words_
  std::vector<std::uint32_t> input_index_; // net -> index into inputs list
};

}  // namespace msts::digital
