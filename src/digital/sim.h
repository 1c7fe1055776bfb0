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
// Live set. A simulator is built over a set of live nets, by default the
// whole netlist. Only live nets are stored and evaluated; a net outside the
// set that a live gate (or a live DFF's D pin) reads is *held*: it carries,
// in every machine, the value load_held() copies in from a good-machine
// row. A fault batch restricted to the union of its faults' fan-out cones,
// closed through DFFs (D live => Q live), is therefore exact when the rows
// come from the good machine: outside the cones every machine equals it.
// Values and masks are stored compactly, |live + held| x words, so a small
// cone runs from a small working set (digital/fault_sim.h).
//
// The word count defaults to default_machine_words(), a measured per-ISA
// choice, and the gate sweep runs through the fault_eval kernel of the
// backend whose native width matches (the scalar kernel accepts any width).
// Detection is exact logic, so results are bit-identical across widths,
// backends and live sets — the differential suite holds the simulator to
// that (check/kernel_checks.h).
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

/// Words per net a simulator runs at when none is asked for: a committed
/// choice per active ISA, measured on the Sec. 5 fault campaign rather than
/// the widest vector (DESIGN.md, "Portable SIMD kernel layer", item 4):
/// 1 scalar, 2 NEON, 4 AVX2 and 4 AVX-512.
std::size_t default_machine_words();

class ParallelSimulator {
 public:
  /// `machine_words` = 64-bit words per net; 0 defers to
  /// default_machine_words(). `live` flags the simulated nets (live[n] != 0,
  /// one entry per net); empty simulates the whole netlist.
  explicit ParallelSimulator(const Netlist& nl, std::size_t machine_words = 0,
                             std::span<const std::uint8_t> live = {});

  /// Machines simulated in parallel (64 * words()).
  std::size_t machines() const { return 64 * words_; }

  /// 64-bit words carried per net.
  std::size_t words() const { return words_; }

  /// Nets stored: live plus held.
  std::size_t stored_nets() const { return values_.size() / words_; }

  /// Removes all injected faults.
  void clear_faults();

  /// Injects `fault` into machine `machine` (0..machines()-1). Multiple
  /// faults may share a machine (multiple-fault experiments), but the
  /// standard usage is one fault per machine with machine 0 fault-free. The
  /// fault net must be live.
  void inject(const Fault& fault, int machine);

  /// Clears all DFF state (power-up state is all zeros in every machine).
  void reset_state();

  /// Drives a primary input with the same logic value in every machine. An
  /// input outside the live set takes its value from load_held() instead.
  void set_input(NetId input, bool value);

  /// Drives a whole input bus (width 1..64) with a two's-complement integer,
  /// broadcast to every machine.
  void set_bus(const Bus& bus, std::int64_t value);

  /// Sets every held net, in every machine, to its bit in `good_row`: bit
  /// n % 64 of word n / 64 is the value of net n (the layout good_row()
  /// writes). A no-op for a whole-netlist simulator.
  void load_held(const std::uint64_t* good_row);

  /// Writes machine 0's value of every net into `row` (num_nets() bits,
  /// layout as in load_held). Whole-netlist simulators only.
  void good_row(std::uint64_t* row) const;

  /// Evaluates all live combinational logic from the current inputs, held
  /// values and state.
  void eval();

  /// Latches live DFF D values into state (call after eval()).
  void clock();

  /// First word of a stored net after eval(); bit b is machine b's value.
  std::uint64_t value(NetId net) const { return *value_words(net); }

  /// All words of a stored net after eval(): words() consecutive uint64s,
  /// machine m at bit m%64 of word m/64.
  const std::uint64_t* value_words(NetId net) const;

  /// Logic value of a stored net in one machine.
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
  static constexpr std::uint32_t kNotStored = ~0u;

  // A source net (input / DFF / constant) evaluated before the gate sweep;
  // offsets pre-multiplied by words_ like simd::SimOp.
  struct SrcOp {
    std::uint32_t out;   // values_ offset of the net
    std::uint32_t src;   // input_words_ / state_ offset (sources with storage)
    std::uint32_t type;  // static_cast<uint32_t>(GateType)
  };
  // A held net: values_ offset and the net (its bit in a good row).
  struct Held {
    std::uint32_t out;
    NetId net;
  };

  // values_ offset of a stored net; throws when the net is not stored.
  std::size_t offset(NetId net) const;

  const Netlist& netlist_;
  std::size_t words_;
  const simd::Kernels* kern_;              // fault_eval matching words_
  bool whole_;                             // live set is the whole netlist
  std::vector<std::uint32_t> slot_;        // net -> stored index or kNotStored
  std::vector<std::uint8_t> live_;         // net -> simulated (not held)
  std::vector<SrcOp> sources_;             // live sources, before all gates
  std::vector<simd::SimOp> gate_ops_;      // live logic gates in topo order
  std::vector<Held> held_;                 // held nets, ascending net order
  std::vector<std::uint64_t> values_;      // stored nets * words_
  std::vector<std::uint64_t> state_;       // live DFF Q words, dff index * words_
  std::vector<std::uint32_t> dff_d_;       // values_ offset of each live DFF's D
  std::vector<std::uint64_t> and_masks_;   // fault injection: v = (v & and) | or
  std::vector<std::uint64_t> or_masks_;
  std::vector<std::uint64_t> input_words_; // live input index * words_
  std::vector<std::uint32_t> input_index_; // net -> live input index or kNotStored
};

}  // namespace msts::digital
