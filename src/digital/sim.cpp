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

std::size_t default_machine_words() {
  // Measured on the Sec. 5 fault campaign (cone-restricted batches, 4-core
  // AVX-512 host; table in DESIGN.md, SIMD layer item 4): 4 words ran as
  // fast as 8 with 28 % less peak memory, and 1 or 2 words were ~2x
  // slower. 4 words on an AVX-512 host run the AVX2 fault_eval kernel.
  // NEON keeps its native width (not measured).
  switch (simd::active_isa()) {
    case simd::Isa::kScalar: return 1;
    case simd::Isa::kNeon: return 2;
    case simd::Isa::kAvx2:
    case simd::Isa::kAvx512: return 4;
  }
  return 1;
}

ParallelSimulator::ParallelSimulator(const Netlist& nl, std::size_t machine_words,
                                     std::span<const std::uint8_t> live)
    : netlist_(nl),
      words_(machine_words != 0 ? machine_words : default_machine_words()),
      kern_(kernels_for_words(words_)),
      whole_(live.empty()) {
  const std::size_t n = nl.num_nets();
  MSTS_REQUIRE(whole_ || live.size() == n, "live set must flag every net");
  live_.assign(n, 1);
  if (!whole_) {
    for (std::size_t i = 0; i < n; ++i) live_[i] = live[i] != 0 ? 1 : 0;
  }

  // Stored nets: the live ones, plus the held nets live logic reads (gate
  // fanins and live DFFs' D pins outside the set), in ascending net order —
  // the identity layout for a whole-netlist simulator.
  std::vector<std::uint8_t> stored(live_);
  for (NetId id = 0; id < n && !whole_; ++id) {
    if (!live_[id]) continue;
    const Gate& g = nl.gate(id);
    const int a = arity(g.type);
    if (a >= 1) stored[g.fanin0] = 1;
    if (a >= 2) stored[g.fanin1] = 1;
  }
  const std::uint32_t w32 = static_cast<std::uint32_t>(words_);
  slot_.assign(n, kNotStored);
  std::uint32_t count = 0;
  for (NetId id = 0; id < n; ++id) {
    if (!stored[id]) continue;
    slot_[id] = count;
    if (!live_[id]) held_.push_back({count * w32, id});
    ++count;
  }
  values_.assign(count * words_, 0);
  and_masks_.assign(count * words_, ~0ull);
  or_masks_.assign(count * words_, 0);

  input_index_.assign(n, kNotStored);
  std::uint32_t live_inputs = 0;
  for (NetId in : nl.inputs()) {
    if (live_[in]) input_index_[in] = live_inputs++;
  }
  input_words_.assign(live_inputs * words_, 0);
  std::vector<std::uint32_t> dff_index(n, 0);
  for (NetId q : nl.dffs()) {
    if (!live_[q]) continue;
    dff_index[q] = static_cast<std::uint32_t>(dff_d_.size());
    dff_d_.push_back(slot_[nl.gate(q).fanin0] * w32);
  }
  state_.assign(dff_d_.size() * words_, 0);

  // Split the live topo order into source writes and the logic-gate sweep
  // the fault_eval kernel runs. Sources have no fanins, so evaluating all of
  // them before all gates preserves topological correctness.
  for (NetId id : nl.topo_order()) {
    if (!live_[id]) continue;
    const Gate& g = nl.gate(id);
    if (is_source(g.type)) {
      std::uint32_t src = 0;
      if (g.type == GateType::kInput) src = input_index_[id] * w32;
      if (g.type == GateType::kDff) src = dff_index[id] * w32;
      sources_.push_back({slot_[id] * w32, src, static_cast<std::uint32_t>(g.type)});
    } else {
      const std::uint32_t a = slot_[g.fanin0] * w32;
      gate_ops_.push_back({slot_[id] * w32, a,
                           arity(g.type) == 2 ? slot_[g.fanin1] * w32 : a,
                           static_cast<std::uint32_t>(g.type)});
    }
  }
}

std::size_t ParallelSimulator::offset(NetId net) const {
  MSTS_REQUIRE(net < slot_.size() && slot_[net] != kNotStored,
               "net is not stored by this simulator");
  return static_cast<std::size_t>(slot_[net]) * words_;
}

const std::uint64_t* ParallelSimulator::value_words(NetId net) const {
  return values_.data() + offset(net);
}

void ParallelSimulator::clear_faults() {
  std::fill(and_masks_.begin(), and_masks_.end(), ~0ull);
  std::fill(or_masks_.begin(), or_masks_.end(), 0ull);
}

void ParallelSimulator::inject(const Fault& fault, int machine) {
  MSTS_REQUIRE(fault.net < netlist_.num_nets(), "fault net out of range");
  MSTS_REQUIRE(live_[fault.net] != 0, "fault net is outside the live set");
  MSTS_REQUIRE(machine >= 0 && machine < static_cast<int>(machines()),
               "machine out of range");
  const std::size_t word = static_cast<std::size_t>(machine) / 64;
  const std::uint64_t bit = 1ull << (static_cast<std::size_t>(machine) % 64);
  const std::size_t at = offset(fault.net) + word;
  if (fault.stuck_at_one) {
    or_masks_[at] |= bit;
  } else {
    and_masks_[at] &= ~bit;
  }
}

void ParallelSimulator::reset_state() { std::fill(state_.begin(), state_.end(), 0ull); }

void ParallelSimulator::set_input(NetId input, bool value) {
  MSTS_REQUIRE(input < netlist_.num_nets() &&
                   netlist_.gate(input).type == GateType::kInput,
               "net is not a primary input");
  const std::uint32_t k = input_index_[input];
  if (k == kNotStored) return;  // outside the live set: load_held() drives it
  std::fill_n(input_words_.begin() + k * words_, words_, value ? ~0ull : 0ull);
}

void ParallelSimulator::set_bus(const Bus& bus, std::int64_t value) {
  MSTS_REQUIRE(bus.width() >= 1 && bus.width() <= 64, "bus width must be 1..64");
  for (std::size_t i = 0; i < bus.width(); ++i) {
    set_input(bus.bits[i], ((value >> i) & 1) != 0);
  }
}

void ParallelSimulator::load_held(const std::uint64_t* good_row) {
  for (const Held& h : held_) {
    const std::uint64_t v = 0 - ((good_row[h.net / 64] >> (h.net % 64)) & 1ull);
    std::fill_n(values_.data() + h.out, words_, v);
  }
}

void ParallelSimulator::good_row(std::uint64_t* row) const {
  MSTS_REQUIRE(whole_, "good_row needs a whole-netlist simulator");
  // Whole netlist: net n is stored at n * words_.
  const std::size_t n = netlist_.num_nets();
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t m = std::min<std::size_t>(64, n - base);
    std::uint64_t acc = 0;
    for (std::size_t j = 0; j < m; ++j) acc |= (values_[(base + j) * words_] & 1ull) << j;
    row[base / 64] = acc;
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
  for (std::size_t i = 0; i < dff_d_.size(); ++i) {
    std::copy_n(values_.begin() + dff_d_[i], words_, state_.begin() + i * words_);
  }
}

bool ParallelSimulator::value_in_machine(NetId net, int machine) const {
  MSTS_REQUIRE(machine >= 0 && machine < static_cast<int>(machines()),
               "machine out of range");
  const std::size_t word = static_cast<std::size_t>(machine) / 64;
  const std::size_t bit = static_cast<std::size_t>(machine) % 64;
  return ((values_[offset(net) + word] >> bit) & 1ull) != 0;
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
    std::copy_n(values_.data() + offset(bus.bits[b]), words_, planes + b * words_);
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
