// Structural netlist: gates, flip-flops and their connectivity.
//
// Nets and gates are identified by the same index (every gate drives exactly
// one net), the usual arrangement for single-output cells. The netlist is a
// value type: builders create it, transforms copy it, the simulator reads it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "digital/logic.h"

namespace msts::digital {

/// Identifies a net (equivalently, the gate driving it).
using NetId = std::uint32_t;

/// One cell and the net it drives.
struct Gate {
  GateType type = GateType::kConst0;
  NetId fanin0 = 0;       ///< First fanin (valid if arity >= 1).
  NetId fanin1 = 0;       ///< Second fanin (valid if arity == 2).
  std::string name;       ///< Optional instance name (debug / reports).
};

/// Gate-level circuit with primary inputs, outputs and DFF state elements.
class Netlist {
 public:
  /// Adds a primary input; returns its net.
  NetId add_input(std::string name = "");
  /// Adds a constant-0 / constant-1 source net.
  NetId add_const(bool value);
  /// Adds a combinational gate. Fanins must already exist.
  NetId add_gate(GateType type, NetId a, NetId b = 0, std::string name = "");
  /// Adds a D flip-flop whose D pin is `d`; returns the Q net.
  NetId add_dff(NetId d, std::string name = "");
  /// Reconnects the D pin of DFF `dff` to `d`, which may be declared later:
  /// the way a feedback loop through state (an accumulator) is closed.
  void set_dff_input(NetId dff, NetId d);
  /// Marks a net as a primary output.
  void mark_output(NetId net, std::string name = "");

  std::size_t num_nets() const { return gates_.size(); }
  const Gate& gate(NetId id) const { return gates_[id]; }
  const std::vector<NetId>& inputs() const { return inputs_; }
  const std::vector<NetId>& outputs() const { return outputs_; }
  const std::vector<NetId>& dffs() const { return dffs_; }
  const std::string& output_name(std::size_t i) const { return output_names_[i]; }

  /// Number of gates whose output net is read by at least one other gate pin
  /// (or by a DFF D pin); primary-output nets count as observed.
  std::vector<int> fanout_counts() const;

  /// Topological order of the combinational gates (sources — inputs, consts,
  /// DFF Q nets — first). Throws if a combinational cycle exists.
  std::vector<NetId> topo_order() const;

  /// Returns a copy of this netlist in which every connection from a net
  /// with fanout > 1 to a gate pin goes through an explicit BUF. After this
  /// transform every classic "pin" stuck-at fault is a stem fault on some
  /// net, so the fault universe is exactly {net x {s-a-0, s-a-1}}.
  Netlist with_explicit_branches() const;

  /// Gate-count histogram by type (for reports).
  std::map<GateType, std::size_t> gate_histogram() const;

  /// Number of combinational gates (excludes inputs, consts, DFFs).
  std::size_t combinational_gate_count() const;

 private:
  std::vector<Gate> gates_;
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
  std::vector<std::string> output_names_;
  std::vector<NetId> dffs_;
};

}  // namespace msts::digital
