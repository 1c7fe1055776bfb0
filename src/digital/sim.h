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
// whole netlist. Only live nets are evaluated; a net outside the set that
// live logic reads is *held*: it carries, in every machine, the value
// load_held() copies in from a good-machine row. A fault batch restricted to
// the union of its faults' fan-out cones, closed through DFFs (D live => Q
// live), is therefore exact when the rows come from the good machine:
// outside the cones every machine equals it.
//
// Aliasing. A BUF that carries no injected fault equals its fanin in every
// machine, so it is not stored or swept: it is an alias of its *root*, the
// first net up its BUF chain that is not an unfaulted BUF. Gate fanins, DFF
// D pins, held loads and every accessor read the root's words. Fan-out
// branch BUFs (Netlist::with_explicit_branches) are most of a branched
// netlist, so a batch stores and sweeps about half of its cone. Faults only
// sit on live nets, so a held net is always a root and never a BUF, and a
// good row needs one bit per non-BUF net only.
//
// Program. What is stored (live and held roots, |roots| x words words in
// ascending net order), the op list and the fault masks form the program,
// built from the injected faults on the first eval(), load_held() or
// clock() after construction, inject() or clear_faults(). A rebuild carries
// every stored value and all DFF state over, so the construct -> inject ->
// eval sequence works as before and a simulator builds once per fault set.
// The const accessors never build: on a stale program they throw
// std::invalid_argument naming the cause. Masks are applied only at ops
// flagged as fault sites (simd::kSimOpSite).
//
// The word count defaults to default_machine_words(), a measured per-ISA
// choice, and the gate sweep runs through the fault_eval kernel of the
// backend whose native width matches (the scalar kernel accepts any width).
// Detection is exact logic, so results are bit-identical across widths,
// backends and live sets — the differential suite holds the simulator to
// that against a one-machine-per-fault eval_gate model (check/kernel_checks.h).
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

  /// Nets the program stores: live and held roots.
  std::size_t stored_nets() const;

  /// Gate ops the program sweeps per eval(): live logic-gate roots.
  std::size_t gate_ops() const;

  /// Words of a good row (load_held / good_row): one bit per non-BUF net.
  std::size_t row_words() const { return (row_bits_ + 63) / 64; }

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

  /// Sets every held net, in every machine, to its bit in `good_row`, a row
  /// of row_words() words: bit k % 64 of word k / 64 is the value of the
  /// k-th non-BUF net in ascending net order (the layout good_row() writes).
  /// A no-op for a whole-netlist simulator.
  void load_held(const std::uint64_t* good_row);

  /// Writes machine 0's value of every non-BUF net into `row` (row_words()
  /// words, layout as in load_held). Whole-netlist simulators only.
  void good_row(std::uint64_t* row) const;

  /// Evaluates all live combinational logic from the current inputs, held
  /// values and state.
  void eval();

  /// Latches live DFF D values into state (call after eval()).
  void clock();

  /// First word of a net after eval(); bit b is machine b's value.
  std::uint64_t value(NetId net) const { return *value_words(net); }

  /// All words of a net after eval(): words() consecutive uint64s, machine
  /// m at bit m%64 of word m/64. A net is readable when it is live or read
  /// by live logic (an aliased BUF reads as its root).
  const std::uint64_t* value_words(NetId net) const;

  /// Logic value of a readable net in one machine.
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
  // offsets pre-multiplied by words_ like simd::SimOp, and `type` flagged
  // with simd::kSimOpSite the same way.
  struct SrcOp {
    std::uint32_t out;   // values_ offset of the net
    std::uint32_t src;   // input_words_ / state_ offset (sources with storage)
    std::uint32_t type;  // static_cast<uint32_t>(GateType) | site flag
  };
  // A held net: values_ offset and its bit in a good row.
  struct Held {
    std::uint32_t out;
    std::uint32_t bit;
  };
  struct Injected {
    NetId net;
    std::uint32_t machine;
    bool stuck_at_one;
  };

  // The first net up `net`'s BUF chain that is not an unfaulted BUF.
  NetId root(NetId net) const;
  // Builds the program from the injected faults, carrying stored values over.
  void build();
  // Rebuilds a stale program.
  void refresh() {
    if (stale_) build();
  }
  // values_ offset of a readable net; throws when the net is not stored or
  // the program is stale.
  std::size_t offset(NetId net) const;

  const Netlist& netlist_;
  std::size_t words_;
  const simd::Kernels* kern_;              // fault_eval matching words_
  bool whole_;                             // live set is the whole netlist
  std::size_t row_bits_ = 0;               // non-BUF nets: bits of a good row
  std::vector<std::uint8_t> live_;         // net -> simulated (not held)
  std::vector<NetId> order_;               // live nets in topo order
  std::vector<std::uint64_t> state_;       // live DFF Q words, dff index * words_
  std::vector<std::uint32_t> dff_index_;   // net -> live DFF index
  std::vector<std::uint64_t> input_words_; // live input index * words_
  std::vector<std::uint32_t> input_index_; // net -> live input index or kNotStored
  std::vector<Injected> faults_;           // every inject() since clear_faults()
  std::vector<std::uint8_t> site_;         // net -> carries an injected fault
  bool stale_ = true;                      // faults changed since build()

  // The program: rebuilt by build().
  std::vector<std::uint32_t> slot_;        // net -> stored index of its root
  std::vector<NetId> stored_;              // stored index -> net, ascending
  std::vector<SrcOp> sources_;             // live source roots, before all gates
  std::vector<simd::SimOp> gate_ops_;      // live logic-gate roots in topo order
  std::vector<Held> held_;                 // held roots, ascending net order
  std::vector<std::uint32_t> row_slots_;   // whole netlist: values_ offset per row bit
  std::vector<std::uint64_t> values_;      // stored nets * words_
  std::vector<std::uint32_t> dff_d_;       // values_ offset of each live DFF's D
  std::vector<std::uint64_t> and_masks_;   // fault sites: v = (v & and) | or
  std::vector<std::uint64_t> or_masks_;
};

}  // namespace msts::digital
