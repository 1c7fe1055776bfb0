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

constexpr const char* kStale =
    "the program is stale: it is built for the injected faults on the first "
    "eval(), load_held() or clock() after construction, inject() or clear_faults()";

bool is_source(GateType t) {
  return t == GateType::kInput || t == GateType::kDff ||
         t == GateType::kConst0 || t == GateType::kConst1;
}

}  // namespace

std::size_t default_machine_words() {
  // Measured on the Sec. 5 fault campaign (cone-restricted batches with
  // BUF aliasing, 4-core AVX-512 host; table in DESIGN.md, SIMD layer item
  // 4): 8 words ran ~18 % faster than 4 but at ~1.5x the peak memory, and
  // 1 or 2 words were 1.4-1.7x slower. 4 words on an AVX-512 host run the
  // AVX2 fault_eval kernel. NEON keeps its native width (not measured).
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
  site_.assign(n, 0);
  for (NetId id = 0; id < n; ++id) {
    if (nl.gate(id).type != GateType::kBuf) ++row_bits_;
  }
  for (NetId id : nl.topo_order()) {
    if (live_[id]) order_.push_back(id);
  }

  input_index_.assign(n, kNotStored);
  std::uint32_t live_inputs = 0;
  for (NetId in : nl.inputs()) {
    if (live_[in]) input_index_[in] = live_inputs++;
  }
  input_words_.assign(live_inputs * words_, 0);
  dff_index_.assign(n, kNotStored);
  std::uint32_t live_dffs = 0;
  for (NetId q : nl.dffs()) {
    if (live_[q]) dff_index_[q] = live_dffs++;
  }
  state_.assign(live_dffs * words_, 0);
  // The program is built on first use, after the faults are injected.
}

NetId ParallelSimulator::root(NetId net) const {
  // BUF fanins precede the BUF (Netlist::add_gate), so the walk ends.
  while (netlist_.gate(net).type == GateType::kBuf && !site_[net]) {
    net = netlist_.gate(net).fanin0;
  }
  return net;
}

void ParallelSimulator::build() {
  const Netlist& nl = netlist_;
  const std::size_t n = nl.num_nets();
  const std::uint32_t w32 = static_cast<std::uint32_t>(words_);

  // Stored roots: the roots of live nets and of what live roots read (gate
  // fanins and live DFFs' D pins), in ascending net order — every non-BUF
  // net of a fault-free whole-netlist simulator.
  std::vector<std::uint8_t> stored(n, 0);
  for (NetId id : order_) {
    const NetId r = root(id);
    stored[r] = 1;
    if (r != id) continue;
    const Gate& g = nl.gate(id);
    const int a = arity(g.type);
    if (a >= 1) stored[root(g.fanin0)] = 1;
    if (a >= 2) stored[root(g.fanin1)] = 1;
  }
  std::vector<std::uint32_t> old_slot(n, kNotStored);
  old_slot.swap(slot_);  // empty on the first build
  stored_.clear();
  held_.clear();
  row_slots_.clear();
  std::uint32_t count = 0;
  std::uint32_t bit = 0;
  for (NetId id = 0; id < n; ++id) {
    const bool buf = nl.gate(id).type == GateType::kBuf;
    if (stored[id]) {
      slot_[id] = count;
      stored_.push_back(id);
      // Faults sit on live nets, so a held root is never a BUF.
      if (!live_[id]) held_.push_back({count * w32, bit});
      if (whole_ && !buf) row_slots_.push_back(count * w32);
      ++count;
    }
    if (!buf) ++bit;
  }
  // Aliased BUFs read their root's slot.
  for (NetId id = 0; id < n; ++id) {
    if (slot_[id] == kNotStored && nl.gate(id).type == GateType::kBuf) {
      slot_[id] = slot_[root(id)];
    }
  }

  // Carry every stored value over, so a clock() after inject() latches what
  // the last eval() computed.
  std::vector<std::uint64_t> values(count * words_, 0);
  if (!old_slot.empty()) {
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::uint32_t from = old_slot[stored_[k]];
      if (from == kNotStored) continue;
      std::copy_n(values_.begin() + from * words_, words_, values.begin() + k * words_);
    }
  }
  values_.swap(values);
  and_masks_.assign(count * words_, ~0ull);
  or_masks_.assign(count * words_, 0);
  for (const Injected& f : faults_) {
    const std::size_t at = slot_[f.net] * words_ + f.machine / 64;
    const std::uint64_t bit_mask = 1ull << (f.machine % 64);
    if (f.stuck_at_one) {
      or_masks_[at] |= bit_mask;
    } else {
      and_masks_[at] &= ~bit_mask;
    }
  }

  dff_d_.clear();
  for (NetId q : nl.dffs()) {
    if (live_[q]) dff_d_.push_back(slot_[nl.gate(q).fanin0] * w32);
  }

  // Split the live roots in topo order into source writes and the
  // logic-gate sweep the fault_eval kernel runs. Sources have no fanins, so
  // evaluating all of them before all gates preserves topological order.
  sources_.clear();
  gate_ops_.clear();
  for (NetId id : order_) {
    if (root(id) != id) continue;
    const Gate& g = nl.gate(id);
    const std::uint32_t type = static_cast<std::uint32_t>(g.type) |
                               (site_[id] ? simd::kSimOpSite : 0u);
    if (is_source(g.type)) {
      std::uint32_t src = 0;
      if (g.type == GateType::kInput) src = input_index_[id] * w32;
      if (g.type == GateType::kDff) src = dff_index_[id] * w32;
      sources_.push_back({slot_[id] * w32, src, type});
    } else {
      const std::uint32_t a = slot_[g.fanin0] * w32;
      gate_ops_.push_back(
          {slot_[id] * w32, a, arity(g.type) == 2 ? slot_[g.fanin1] * w32 : a, type});
    }
  }
  stale_ = false;
}

std::size_t ParallelSimulator::offset(NetId net) const {
  MSTS_REQUIRE(!stale_, kStale);
  MSTS_REQUIRE(net < slot_.size() && slot_[net] != kNotStored,
               "net is not stored by this simulator");
  return static_cast<std::size_t>(slot_[net]) * words_;
}

std::size_t ParallelSimulator::stored_nets() const {
  MSTS_REQUIRE(!stale_, kStale);
  return stored_.size();
}

std::size_t ParallelSimulator::gate_ops() const {
  MSTS_REQUIRE(!stale_, kStale);
  return gate_ops_.size();
}

const std::uint64_t* ParallelSimulator::value_words(NetId net) const {
  return values_.data() + offset(net);
}

void ParallelSimulator::clear_faults() {
  if (faults_.empty()) return;
  for (const Injected& f : faults_) site_[f.net] = 0;
  faults_.clear();
  stale_ = true;
}

void ParallelSimulator::inject(const Fault& fault, int machine) {
  MSTS_REQUIRE(fault.net < netlist_.num_nets(), "fault net out of range");
  MSTS_REQUIRE(live_[fault.net] != 0, "fault net is outside the live set");
  MSTS_REQUIRE(machine >= 0 && machine < static_cast<int>(machines()),
               "machine out of range");
  faults_.push_back({fault.net, static_cast<std::uint32_t>(machine), fault.stuck_at_one});
  site_[fault.net] = 1;
  stale_ = true;
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
  refresh();
  for (const Held& h : held_) {
    const std::uint64_t v = 0 - ((good_row[h.bit / 64] >> (h.bit % 64)) & 1ull);
    std::fill_n(values_.data() + h.out, words_, v);
  }
}

void ParallelSimulator::good_row(std::uint64_t* row) const {
  MSTS_REQUIRE(whole_, "good_row needs a whole-netlist simulator");
  MSTS_REQUIRE(!stale_, kStale);
  const std::size_t n = row_slots_.size();
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t m = std::min<std::size_t>(64, n - base);
    std::uint64_t acc = 0;
    for (std::size_t j = 0; j < m; ++j) acc |= (values_[row_slots_[base + j]] & 1ull) << j;
    row[base / 64] = acc;
  }
}

void ParallelSimulator::eval() {
  refresh();
  const std::size_t w = words_;
  for (const SrcOp& s : sources_) {
    std::uint64_t* out = values_.data() + s.out;
    switch (static_cast<GateType>(s.type & simd::kSimOpTypeMask)) {
      case GateType::kInput:
        std::copy_n(input_words_.data() + s.src, w, out);
        break;
      case GateType::kDff:
        std::copy_n(state_.data() + s.src, w, out);
        break;
      case GateType::kConst0:
        std::fill_n(out, w, 0ull);
        break;
      default:  // kConst1
        std::fill_n(out, w, ~0ull);
        break;
    }
    if ((s.type & simd::kSimOpSite) != 0) {
      const std::uint64_t* am = and_masks_.data() + s.out;
      const std::uint64_t* om = or_masks_.data() + s.out;
      for (std::size_t i = 0; i < w; ++i) out[i] = (out[i] & am[i]) | om[i];
    }
  }
  kern_->fault_eval(gate_ops_.data(), gate_ops_.size(), values_.data(),
                    and_masks_.data(), or_masks_.data(), w);
}

void ParallelSimulator::clock() {
  refresh();
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
