#include "digital/sim.h"

#include <algorithm>

#include "base/require.h"

namespace msts::digital {

namespace {

// The fault_eval kernel whose native width matches `words`: the active
// backend when it agrees, any other compiled+supported backend that does,
// else the scalar backend (which accepts arbitrary widths).
const simd::Kernels* kernels_for_words(std::size_t words) {
  const simd::Kernels& active = simd::kernels();
  if (static_cast<std::size_t>(active.fault_words) == words) return &active;
  for (simd::Isa isa : {simd::Isa::kAvx512, simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (simd::isa_compiled(isa) && simd::isa_supported(isa) &&
        static_cast<std::size_t>(simd::kernels_for(isa).fault_words) == words) {
      return &simd::kernels_for(isa);
    }
  }
  return &simd::kernels_for(simd::Isa::kScalar);
}

// One stage of the 64x64 bit-matrix transpose: within every 2J x 2J block,
// swap the off-diagonal J x J sub-blocks (rows k and k + J, the bits `M`
// selects). Fixed J and M let the compiler unroll and vectorise each stage.
template <std::size_t J, std::uint64_t M>
void transpose_stage(std::uint64_t a[64]) {
  for (std::size_t base = 0; base < 64; base += 2 * J) {
    for (std::size_t k = base; k < base + J; ++k) {
      const std::uint64_t t = ((a[k] >> J) ^ a[k + J]) & M;
      a[k] ^= t << J;
      a[k + J] ^= t;
    }
  }
}

// In-place transpose of a 64x64 bit matrix, element (r, c) = bit c of a[r]:
// the block swaps at every scale from 32x32 down to 1x1.
void transpose64(std::uint64_t a[64]) {
  transpose_stage<32, 0x00000000FFFFFFFFull>(a);
  transpose_stage<16, 0x0000FFFF0000FFFFull>(a);
  transpose_stage<8, 0x00FF00FF00FF00FFull>(a);
  transpose_stage<4, 0x0F0F0F0F0F0F0F0Full>(a);
  transpose_stage<2, 0x3333333333333333ull>(a);
  transpose_stage<1, 0x5555555555555555ull>(a);
}

bool is_source(GateType t) {
  return t == GateType::kInput || t == GateType::kDff ||
         t == GateType::kConst0 || t == GateType::kConst1;
}

}  // namespace

ParallelSimulator::ParallelSimulator(const Netlist& nl, std::size_t machine_words)
    : netlist_(nl),
      words_(machine_words != 0
                 ? machine_words
                 : static_cast<std::size_t>(simd::kernels().fault_words)),
      kern_(kernels_for_words(words_)),
      values_(nl.num_nets() * words_, 0),
      and_masks_(nl.num_nets() * words_, ~0ull),
      or_masks_(nl.num_nets() * words_, 0),
      input_index_(nl.num_nets(), 0) {
  dff_index_.assign(nl.num_nets(), 0);
  state_.assign(nl.dffs().size() * words_, 0);
  for (std::uint32_t i = 0; i < nl.dffs().size(); ++i) dff_index_[nl.dffs()[i]] = i;
  input_words_.assign(nl.inputs().size() * words_, 0);
  for (std::uint32_t i = 0; i < nl.inputs().size(); ++i) input_index_[nl.inputs()[i]] = i;

  // Split the topo order into source writes and the logic-gate sweep the
  // fault_eval kernel runs. Sources have no fanins, so evaluating all of
  // them before all gates preserves topological correctness.
  const auto order = nl.topo_order();
  const std::uint32_t w32 = static_cast<std::uint32_t>(words_);
  for (NetId id : order) {
    const Gate& g = nl.gate(id);
    if (is_source(g.type)) {
      std::uint32_t src = 0;
      if (g.type == GateType::kInput) src = input_index_[id] * w32;
      if (g.type == GateType::kDff) src = dff_index_[id] * w32;
      sources_.push_back({static_cast<std::uint32_t>(id) * w32, src,
                          static_cast<std::uint32_t>(g.type)});
    } else {
      gate_ops_.push_back({static_cast<std::uint32_t>(id) * w32,
                           static_cast<std::uint32_t>(g.fanin0) * w32,
                           static_cast<std::uint32_t>(g.fanin1) * w32,
                           static_cast<std::uint32_t>(g.type)});
    }
  }
}

void ParallelSimulator::clear_faults() {
  std::fill(and_masks_.begin(), and_masks_.end(), ~0ull);
  std::fill(or_masks_.begin(), or_masks_.end(), 0ull);
}

void ParallelSimulator::inject(const Fault& fault, int machine) {
  MSTS_REQUIRE(fault.net < netlist_.num_nets(), "fault net out of range");
  MSTS_REQUIRE(machine >= 0 && machine < static_cast<int>(machines()),
               "machine out of range");
  const std::size_t word = static_cast<std::size_t>(machine) / 64;
  const std::uint64_t bit = 1ull << (static_cast<std::size_t>(machine) % 64);
  if (fault.stuck_at_one) {
    or_masks_[fault.net * words_ + word] |= bit;
  } else {
    and_masks_[fault.net * words_ + word] &= ~bit;
  }
}

void ParallelSimulator::reset_state() { std::fill(state_.begin(), state_.end(), 0ull); }

void ParallelSimulator::set_input(NetId input, bool value) {
  MSTS_REQUIRE(input < netlist_.num_nets() &&
                   netlist_.gate(input).type == GateType::kInput,
               "net is not a primary input");
  const std::size_t base = input_index_[input] * words_;
  std::fill_n(input_words_.begin() + base, words_, value ? ~0ull : 0ull);
}

void ParallelSimulator::set_bus(const Bus& bus, std::int64_t value) {
  for (std::size_t i = 0; i < bus.width(); ++i) {
    set_input(bus.bits[i], ((value >> i) & 1) != 0);
  }
}

void ParallelSimulator::eval() {
  const std::size_t w = words_;
  for (const SrcOp& s : sources_) {
    std::uint64_t* out = values_.data() + s.out;
    const std::uint64_t* am = and_masks_.data() + s.out;
    const std::uint64_t* om = or_masks_.data() + s.out;
    switch (static_cast<GateType>(s.type)) {
      case GateType::kInput: {
        const std::uint64_t* in = input_words_.data() + s.src;
        for (std::size_t i = 0; i < w; ++i) out[i] = (in[i] & am[i]) | om[i];
        break;
      }
      case GateType::kDff: {
        const std::uint64_t* q = state_.data() + s.src;
        for (std::size_t i = 0; i < w; ++i) out[i] = (q[i] & am[i]) | om[i];
        break;
      }
      case GateType::kConst0:
        for (std::size_t i = 0; i < w; ++i) out[i] = om[i];
        break;
      default:  // kConst1
        for (std::size_t i = 0; i < w; ++i) out[i] = am[i] | om[i];
        break;
    }
  }
  kern_->fault_eval(gate_ops_.data(), gate_ops_.size(), values_.data(),
                    and_masks_.data(), or_masks_.data(), w);
}

void ParallelSimulator::clock() {
  const auto& dffs = netlist_.dffs();
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const std::size_t src = netlist_.gate(dffs[i]).fanin0 * words_;
    std::copy_n(values_.begin() + src, words_, state_.begin() + i * words_);
  }
}

bool ParallelSimulator::value_in_machine(NetId net, int machine) const {
  MSTS_REQUIRE(machine >= 0 && machine < static_cast<int>(machines()),
               "machine out of range");
  const std::size_t word = static_cast<std::size_t>(machine) / 64;
  const std::size_t bit = static_cast<std::size_t>(machine) % 64;
  return ((values_[net * words_ + word] >> bit) & 1ull) != 0;
}

std::int64_t ParallelSimulator::bus_value(const Bus& bus, int machine) const {
  MSTS_REQUIRE(bus.width() >= 1 && bus.width() <= 64, "bus width must be 1..64");
  std::uint64_t raw = 0;
  for (std::size_t i = 0; i < bus.width(); ++i) {
    raw |= static_cast<std::uint64_t>(value_in_machine(bus.bits[i], machine)) << i;
  }
  // Sign-extend from the bus MSB.
  const std::size_t w = bus.width();
  if (w < 64 && ((raw >> (w - 1)) & 1ull)) {
    raw |= ~0ull << w;
  }
  return static_cast<std::int64_t>(raw);
}

void ParallelSimulator::capture_planes(const Bus& bus, std::uint64_t* planes) const {
  for (std::size_t b = 0; b < bus.width(); ++b) {
    std::copy_n(values_.data() + bus.bits[b] * words_, words_, planes + b * words_);
  }
}

void ParallelSimulator::group_bus_values(const std::uint64_t* planes, std::size_t width,
                                         std::size_t words, std::size_t group,
                                         std::int64_t out[64]) {
  MSTS_REQUIRE(width >= 1 && width <= 64, "bus width must be 1..64");
  MSTS_REQUIRE(group < words, "machine group out of range");
  std::uint64_t m[64] = {};
  for (std::size_t b = 0; b < width; ++b) m[b] = planes[b * words + group];
  transpose64(m);
  // Sign-extend from bit width-1; the identity when width is 64.
  const std::uint64_t sign = 1ull << (width - 1);
  for (std::size_t j = 0; j < 64; ++j) {
    out[j] = static_cast<std::int64_t>((m[j] ^ sign) - sign);
  }
}

}  // namespace msts::digital
