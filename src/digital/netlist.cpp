#include "digital/netlist.h"

#include <algorithm>

#include "base/require.h"

namespace msts::digital {

NetId Netlist::add_input(std::string name) {
  const auto id = static_cast<NetId>(gates_.size());
  gates_.push_back(Gate{GateType::kInput, 0, 0, std::move(name)});
  inputs_.push_back(id);
  return id;
}

NetId Netlist::add_const(bool value) {
  const auto id = static_cast<NetId>(gates_.size());
  gates_.push_back(Gate{value ? GateType::kConst1 : GateType::kConst0, 0, 0, ""});
  return id;
}

NetId Netlist::add_gate(GateType type, NetId a, NetId b, std::string name) {
  const int n = arity(type);
  MSTS_REQUIRE(n >= 1 && type != GateType::kDff, "not a combinational gate type");
  MSTS_REQUIRE(a < gates_.size(), "fanin0 does not exist");
  MSTS_REQUIRE(n < 2 || b < gates_.size(), "fanin1 does not exist");
  const auto id = static_cast<NetId>(gates_.size());
  gates_.push_back(Gate{type, a, (n == 2) ? b : 0, std::move(name)});
  return id;
}

NetId Netlist::add_dff(NetId d, std::string name) {
  MSTS_REQUIRE(d < gates_.size(), "DFF data fanin does not exist");
  const auto id = static_cast<NetId>(gates_.size());
  gates_.push_back(Gate{GateType::kDff, d, 0, std::move(name)});
  dffs_.push_back(id);
  return id;
}

void Netlist::set_dff_input(NetId dff, NetId d) {
  MSTS_REQUIRE(dff < gates_.size() && gates_[dff].type == GateType::kDff, "net is not a DFF");
  MSTS_REQUIRE(d < gates_.size(), "DFF data fanin does not exist");
  gates_[dff].fanin0 = d;
}

void Netlist::mark_output(NetId net, std::string name) {
  MSTS_REQUIRE(net < gates_.size(), "output net does not exist");
  outputs_.push_back(net);
  output_names_.push_back(std::move(name));
}

std::vector<int> Netlist::fanout_counts() const {
  std::vector<int> counts(gates_.size(), 0);
  for (const Gate& g : gates_) {
    const int n = arity(g.type);
    if (n >= 1) ++counts[g.fanin0];
    if (n >= 2) ++counts[g.fanin1];
  }
  for (NetId o : outputs_) ++counts[o];
  return counts;
}

std::vector<NetId> Netlist::topo_order() const {
  // Kahn's algorithm over combinational dependencies. DFF Q nets are sources
  // (their value comes from state, not from this cycle's logic). Consumers
  // are kept in flat CSR arrays: simulate_faults builds one simulator per
  // batch, and each asks for this order.
  const std::size_t n = gates_.size();
  auto is_source = [](GateType t) {
    return t == GateType::kInput || t == GateType::kConst0 || t == GateType::kConst1 ||
           t == GateType::kDff;
  };
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<std::uint32_t> first(n + 1, 0);
  for (NetId id = 0; id < n; ++id) {
    const Gate& g = gates_[id];
    if (is_source(g.type)) continue;
    const int a = arity(g.type);
    pending[id] = static_cast<std::uint32_t>(a);
    if (a >= 1) ++first[g.fanin0 + 1];
    if (a >= 2) ++first[g.fanin1 + 1];
  }
  for (std::size_t i = 0; i < n; ++i) first[i + 1] += first[i];
  std::vector<NetId> consumers(first[n]);
  std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
  for (NetId id = 0; id < n; ++id) {
    const Gate& g = gates_[id];
    if (is_source(g.type)) continue;
    const int a = arity(g.type);
    if (a >= 1) consumers[fill[g.fanin0]++] = id;
    if (a >= 2) consumers[fill[g.fanin1]++] = id;
  }

  // The order doubles as the ready queue.
  std::vector<NetId> order;
  order.reserve(n);
  for (NetId id = 0; id < n; ++id) {
    if (is_source(gates_[id].type)) order.push_back(id);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NetId id = order[head];
    for (std::uint32_t e = first[id]; e < first[id + 1]; ++e) {
      if (--pending[consumers[e]] == 0) order.push_back(consumers[e]);
    }
  }
  MSTS_REQUIRE(order.size() == n, "combinational cycle in netlist");
  return order;
}

Netlist Netlist::with_explicit_branches() const {
  const auto fanouts = fanout_counts();
  Netlist out;
  out.gates_.reserve(gates_.size() * 2);
  std::vector<NetId> remap(gates_.size());

  // Gates must be appended in an order where fanins already exist in `out`.
  // topo_order() provides exactly that (DFFs are emitted as sources, but
  // their D fanins are patched afterwards, as in any sequential netlist).
  const auto order = topo_order();

  auto branch = [&](NetId old_net, const std::string& tag) -> NetId {
    const NetId mapped = remap[old_net];
    if (fanouts[old_net] <= 1) return mapped;
    return out.add_gate(GateType::kBuf, mapped, 0, tag);
  };

  for (NetId id : order) {
    const Gate& g = gates_[id];
    switch (g.type) {
      case GateType::kInput:
        remap[id] = out.add_input(g.name);
        break;
      case GateType::kConst0:
        remap[id] = out.add_const(false);
        break;
      case GateType::kConst1:
        remap[id] = out.add_const(true);
        break;
      case GateType::kDff:
        // D fanin patched in the second pass below.
        remap[id] = out.add_dff(0, g.name);
        break;
      default: {
        const int n = arity(g.type);
        const NetId a = branch(g.fanin0, g.name + ".br0");
        const NetId b = (n == 2) ? branch(g.fanin1, g.name + ".br1") : 0;
        remap[id] = out.add_gate(g.type, a, b, g.name);
        break;
      }
    }
  }

  // Patch DFF D pins (possibly through a branch buffer).
  for (NetId id : dffs_) {
    const Gate& g = gates_[id];
    const NetId mapped_d = (fanouts[g.fanin0] > 1)
                               ? out.add_gate(GateType::kBuf, remap[g.fanin0], 0,
                                              g.name + ".brD")
                               : remap[g.fanin0];
    out.set_dff_input(remap[id], mapped_d);
  }

  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    out.mark_output(remap[outputs_[i]], output_names_[i]);
  }
  return out;
}

std::map<GateType, std::size_t> Netlist::gate_histogram() const {
  std::map<GateType, std::size_t> h;
  for (const Gate& g : gates_) ++h[g.type];
  return h;
}

std::size_t Netlist::combinational_gate_count() const {
  std::size_t n = 0;
  for (const Gate& g : gates_) {
    switch (g.type) {
      case GateType::kInput:
      case GateType::kConst0:
      case GateType::kConst1:
      case GateType::kDff:
        break;
      default:
        ++n;
    }
  }
  return n;
}

}  // namespace msts::digital
