// Tests for the parallel fault-simulation driver (digital/fault_sim.h).
#include "digital/fault_sim.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "base/units.h"
#include "digital/fir.h"
#include "dsp/fir_design.h"
#include "dsp/spectrum.h"
#include "stats/rng.h"

namespace msts::digital {
namespace {

// Small circuit: y = (a AND b) XOR c, 3-bit input bus mapped bitwise.
struct SmallCircuit {
  Netlist nl;
  Bus in;
  Bus out;
  NetId and_net;
};

SmallCircuit make_small() {
  SmallCircuit c;
  NetlistBuilder b(c.nl);
  c.in = b.input_bus("i", 3);
  c.and_net = c.nl.add_gate(GateType::kAnd, c.in.bits[0], c.in.bits[1], "g1");
  const NetId y = c.nl.add_gate(GateType::kXor, c.and_net, c.in.bits[2], "y");
  c.nl.mark_output(y);
  c.out.bits = {y};
  return c;
}

TEST(FaultSim, GoodWaveformMatchesTruthTable) {
  SmallCircuit c = make_small();
  const std::vector<std::int64_t> stim = {0, 1, 2, 3, -4, -3, -2, -1};  // 3-bit values
  const auto y = simulate_good(c.nl, c.in, c.out, stim);
  ASSERT_EQ(y.size(), stim.size());
  for (std::size_t i = 0; i < stim.size(); ++i) {
    const std::uint64_t bits = static_cast<std::uint64_t>(stim[i]);
    const bool a = bits & 1, b = bits & 2, cc = bits & 4;
    const bool expect = (a && b) ^ cc;
    // Output bus is 1 bit wide; value is sign-extended (bit pattern 1 -> -1).
    EXPECT_EQ(y[i] != 0, expect) << "i=" << i;
  }
}

TEST(FaultSim, DetectableFaultIsDetected) {
  SmallCircuit c = make_small();
  // Stimulus covers all 8 input combinations: every stuck-at on the AND net
  // and the inputs is detectable.
  std::vector<std::int64_t> stim;
  for (int v = 0; v < 8; ++v) stim.push_back(v >= 4 ? v - 8 : v);
  const auto faults = all_faults(c.nl);
  const auto r = simulate_faults(c.nl, c.in, c.out, stim, faults);
  ASSERT_EQ(r.detected.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_TRUE(r.detected[i]) << describe(c.nl, faults[i]);
  }
  EXPECT_DOUBLE_EQ(r.coverage(), 1.0);
}

TEST(FaultSim, UnexercisedFaultIsNotDetected) {
  SmallCircuit c = make_small();
  // Hold inputs at a=1,b=1,c=0 only: AND output is always 1, so SA1 on the
  // AND net can never be observed.
  const std::vector<std::int64_t> stim(4, 3);
  const Fault sa1{c.and_net, true};
  const Fault sa0{c.and_net, false};
  const Fault faults[] = {sa1, sa0};
  const auto r = simulate_faults(c.nl, c.in, c.out, stim, faults);
  EXPECT_FALSE(r.detected[0]);  // SA1 invisible
  EXPECT_TRUE(r.detected[1]);   // SA0 flips the output
  EXPECT_DOUBLE_EQ(r.coverage(), 0.5);
}

TEST(FaultSim, WaveformCaptureMatchesSingleFaultRuns) {
  SmallCircuit c = make_small();
  std::vector<std::int64_t> stim;
  for (int v = 0; v < 8; ++v) stim.push_back(v >= 4 ? v - 8 : v);
  const auto faults = all_faults(c.nl);
  FaultSimOptions opts;
  opts.capture_waveforms = true;
  const auto r = simulate_faults(c.nl, c.in, c.out, stim, faults, opts);
  ASSERT_EQ(r.waveforms.size(), faults.size());

  // Re-run each fault alone and compare streams.
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Fault one[] = {faults[i]};
    FaultSimOptions single;
    single.capture_waveforms = true;
    const auto rr = simulate_faults(c.nl, c.in, c.out, stim, one, single);
    ASSERT_EQ(r.waveforms[i], rr.waveforms[0]) << describe(c.nl, faults[i]);
  }
}

TEST(FaultSim, MoreThan63FaultsBatchCorrectly) {
  // The 13-tap FIR has thousands of faults; spot-check batching by verifying
  // that detection results are independent of batch position.
  const auto h = dsp::design_lowpass(5, 0.2);
  const auto q = dsp::quantize_coefficients(h, 6);
  const FirCircuit fir = build_fir(q, 6, 6);
  const Netlist nl = fir.netlist.with_explicit_branches();
  Bus in, out;
  for (std::size_t i = 0; i < fir.input.width(); ++i) in.bits.push_back(nl.inputs()[i]);
  for (std::size_t i = 0; i < fir.output.width(); ++i) out.bits.push_back(nl.outputs()[i]);

  stats::Rng rng(5);
  std::vector<std::int64_t> stim;
  for (int i = 0; i < 64; ++i) {
    stim.push_back(static_cast<std::int64_t>(rng.uniform_int(64)) - 32);
  }

  auto faults = collapsed_faults(nl);
  ASSERT_GT(faults.size(), 63u);
  const auto r_all = simulate_faults(nl, in, out, stim, faults);

  // Pick a handful of faults across batch boundaries and re-simulate alone.
  for (std::size_t idx : {std::size_t{0}, std::size_t{62}, std::size_t{63},
                          std::size_t{64}, faults.size() - 1}) {
    const Fault one[] = {faults[idx]};
    const auto r_one = simulate_faults(nl, in, out, stim, one);
    EXPECT_EQ(r_one.detected[0], r_all.detected[idx]) << "fault index " << idx;
  }
}

TEST(FaultSim, GoodWaveformIndependentOfFaultLoad) {
  SmallCircuit c = make_small();
  std::vector<std::int64_t> stim = {1, 3, 5, 7, 2, 6};
  const auto faults = all_faults(c.nl);
  const auto with_faults = simulate_faults(c.nl, c.in, c.out, stim, faults);
  const auto clean = simulate_good(c.nl, c.in, c.out, stim);
  EXPECT_EQ(with_faults.good_waveform, clean);
}

TEST(FaultSim, RejectsEmptyStimulus) {
  SmallCircuit c = make_small();
  EXPECT_THROW(simulate_faults(c.nl, c.in, c.out, {}, {}), std::invalid_argument);
}

// A negative word count is an error naming the field, not the default width.
TEST(FaultSim, RejectsNegativeMachineWords) {
  SmallCircuit c = make_small();
  const std::vector<std::int64_t> stim = {1, 3, 5};
  const auto faults = all_faults(c.nl);
  FaultSimOptions opts;
  opts.machine_words = -1;
  try {
    (void)simulate_faults(c.nl, c.in, c.out, stim, faults, opts);
    ADD_FAILURE() << "machine_words = -1 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("machine_words"), std::string::npos) << e.what();
  }
}

TEST(FaultSim, ResultIdenticalAcrossThreadCounts) {
  // The batch partition is fixed and batches are independent, so verdicts,
  // the good waveform, and captured waveforms must be identical for every
  // thread count.
  const auto h = dsp::design_lowpass(5, 0.2);
  const auto q = dsp::quantize_coefficients(h, 6);
  const FirCircuit fir = build_fir(q, 6, 6);
  const Netlist nl = fir.netlist.with_explicit_branches();
  Bus in, out;
  for (std::size_t i = 0; i < fir.input.width(); ++i) in.bits.push_back(nl.inputs()[i]);
  for (std::size_t i = 0; i < fir.output.width(); ++i) out.bits.push_back(nl.outputs()[i]);

  stats::Rng rng(6);
  std::vector<std::int64_t> stim;
  for (int i = 0; i < 48; ++i) {
    stim.push_back(static_cast<std::int64_t>(rng.uniform_int(64)) - 32);
  }
  auto faults = collapsed_faults(nl);
  ASSERT_GT(faults.size(), 126u);  // at least three batches

  FaultSimOptions serial;
  serial.capture_waveforms = true;
  serial.threads = 1;
  const auto r1 = simulate_faults(nl, in, out, stim, faults, serial);
  for (const int threads : {2, 8}) {
    FaultSimOptions opts = serial;
    opts.threads = threads;
    const auto rt = simulate_faults(nl, in, out, stim, faults, opts);
    EXPECT_EQ(rt.detected, r1.detected) << threads << " threads";
    EXPECT_EQ(rt.good_waveform, r1.good_waveform) << threads << " threads";
    EXPECT_EQ(rt.waveforms, r1.waveforms) << threads << " threads";
  }
}

TEST(FaultSim, StreamedVerdictsIdenticalAcrossThreadCounts) {
  // A visitor that runs a spectrum per fault on the worker threads, keyed
  // by fault index, must give what the stored-waveform path gives at every
  // thread count, and must see every fault index exactly once.
  const auto h = dsp::design_lowpass(5, 0.2);
  const auto q = dsp::quantize_coefficients(h, 6);
  const FirCircuit fir = build_fir(q, 6, 6);
  const Netlist nl = fir.netlist.with_explicit_branches();
  Bus in, out;
  for (std::size_t i = 0; i < fir.input.width(); ++i) in.bits.push_back(nl.inputs()[i]);
  for (std::size_t i = 0; i < fir.output.width(); ++i) out.bits.push_back(nl.outputs()[i]);

  stats::Rng rng(8);
  std::vector<std::int64_t> stim;
  for (int i = 0; i < 64; ++i) {
    stim.push_back(static_cast<std::int64_t>(rng.uniform_int(64)) - 32);
  }
  auto faults = collapsed_faults(nl);
  ASSERT_GT(faults.size(), 126u);  // at least three 64-machine batches

  auto powers = [](std::span<const std::int64_t> w) {
    const std::vector<double> x(w.begin(), w.end());
    const dsp::Spectrum spec(x, 1.0, dsp::WindowType::kBlackmanHarris4);
    std::vector<double> p;
    for (std::size_t k = 0; k < spec.num_bins(); ++k) p.push_back(spec.power_db(k));
    return p;
  };

  FaultSimOptions stored;
  stored.capture_waveforms = true;
  stored.machine_words = 1;
  const auto r = simulate_faults(nl, in, out, stim, faults, stored);
  std::vector<std::vector<double>> expected;
  for (const auto& w : r.waveforms) expected.push_back(powers(w));

  for (const int threads : {1, 2, 8}) {
    std::vector<std::vector<double>> got(faults.size());
    std::vector<int> visits(faults.size(), 0);
    FaultSimOptions opts;
    opts.threads = threads;
    opts.machine_words = 1;
    opts.on_waveform = [&](std::size_t i, std::span<const std::int64_t> w, bool) {
      ++visits[i];
      got[i] = powers(w);
    };
    const auto rs = simulate_faults(nl, in, out, stim, faults, opts);
    EXPECT_TRUE(rs.waveforms.empty());
    EXPECT_EQ(rs.detected, r.detected) << threads << " threads";
    EXPECT_EQ(visits, std::vector<int>(faults.size(), 1)) << threads << " threads";
    EXPECT_EQ(got, expected) << threads << " threads";
  }
}

TEST(FaultSim, VisitorDiffersFlagIsStreamUnequalToGood) {
  // `differs` is false exactly when the fault's stream equals the good
  // stream, i.e. it is the exact-compare verdict — over several
  // cone-ordered batches at the default width.
  const auto h = dsp::design_lowpass(5, 0.2);
  const auto q = dsp::quantize_coefficients(h, 6);
  const FirCircuit fir = build_fir(q, 6, 6);
  const Netlist nl = fir.netlist.with_explicit_branches();
  Bus in, out;
  for (std::size_t i = 0; i < fir.input.width(); ++i) in.bits.push_back(nl.inputs()[i]);
  for (std::size_t i = 0; i < fir.output.width(); ++i) out.bits.push_back(nl.outputs()[i]);
  // A short, mostly quiet stimulus leaves many faults unexcited.
  const std::vector<std::int64_t> stim = {0, 0, 5, 0, 0, 0, -3, 0};
  const auto faults = collapsed_faults(nl);

  std::vector<int> differs(faults.size(), -1);
  std::vector<std::vector<std::int64_t>> streams(faults.size());
  FaultSimOptions opts;
  opts.threads = 2;
  opts.machine_words = 1;
  opts.on_waveform = [&](std::size_t i, std::span<const std::int64_t> w, bool d) {
    differs[i] = d ? 1 : 0;
    streams[i].assign(w.begin(), w.end());
  };
  const auto r = simulate_faults(nl, in, out, stim, faults, opts);
  std::size_t equal = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const bool same = streams[i] == r.good_waveform;
    equal += same ? 1 : 0;
    EXPECT_EQ(differs[i], same ? 0 : 1) << "fault " << i;
    EXPECT_EQ(r.detected[i], !same) << "fault " << i;
  }
  EXPECT_GT(equal, 0u);
  EXPECT_LT(equal, faults.size());
}

TEST(FaultSim, VisitorExceptionResolvesToLowestFailingIndex) {
  const auto h = dsp::design_lowpass(5, 0.2);
  const auto q = dsp::quantize_coefficients(h, 6);
  const FirCircuit fir = build_fir(q, 6, 6);
  const Netlist nl = fir.netlist.with_explicit_branches();
  Bus in, out;
  for (std::size_t i = 0; i < fir.input.width(); ++i) in.bits.push_back(nl.inputs()[i]);
  for (std::size_t i = 0; i < fir.output.width(); ++i) out.bits.push_back(nl.outputs()[i]);
  const std::vector<std::int64_t> stim = {3, -7, 12, 0, 5, -1};
  const auto faults = collapsed_faults(nl);
  ASSERT_GT(faults.size(), 200u);

  for (const int threads : {1, 4}) {
    FaultSimOptions opts;
    opts.threads = threads;
    opts.machine_words = 1;
    opts.on_waveform = [](std::size_t i, std::span<const std::int64_t>, bool) {
      if (i == 70 || i == 71 || i == 200) throw std::runtime_error(std::to_string(i));
    };
    try {
      simulate_faults(nl, in, out, stim, faults, opts);
      ADD_FAILURE() << "visitor exception swallowed at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "70") << threads << " threads";
    }
  }
}

// simulate_faults validates both buses on entry, by name: bus values are
// int64, so a bus wider than 64 bits cannot be driven or decoded.
void expect_rejected(const Netlist& nl, const Bus& in, const Bus& out, const char* message) {
  FaultSimOptions opts;
  opts.on_waveform = [](std::size_t, std::span<const std::int64_t>, bool) {
    ADD_FAILURE() << "visitor reached past the bus check";
  };
  const std::vector<std::int64_t> stim = {1, 2, 3};
  const std::vector<Fault> faults = {Fault{in.bits.front(), true}};
  try {
    simulate_faults(nl, in, out, stim, faults, opts);
    ADD_FAILURE() << "accepted: " << message;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
  }
}

TEST(FaultSim, RejectsInputBusWiderThan64Bits) {
  Netlist nl;
  Bus in;
  for (int i = 0; i < 65; ++i) in.bits.push_back(nl.add_input());
  const Bus out{{nl.add_gate(GateType::kXor, in.bits[0], in.bits[64])}};
  expect_rejected(nl, in, out, "input bus width must be 1..64");
}

TEST(FaultSim, RejectsOutputBusWiderThan64Bits) {
  SmallCircuit c = make_small();
  Bus wide;
  for (int i = 0; i < 65; ++i) wide.bits.push_back(c.out.bits[0]);
  expect_rejected(c.nl, c.in, wide, "output bus width must be 1..64");
  expect_rejected(c.nl, c.in, Bus{}, "output bus width must be 1..64");
}

TEST(FaultSim, RejectsBusNetOutOfRange) {
  SmallCircuit c = make_small();
  const Bus bad{{c.out.bits[0], static_cast<NetId>(c.nl.num_nets())}};
  expect_rejected(c.nl, c.in, bad, "output bus net out of range");
  Bus in = c.in;
  in.bits.push_back(static_cast<NetId>(c.nl.num_nets() + 7));
  expect_rejected(c.nl, in, c.out, "input bus net out of range");
}

TEST(FaultSim, RejectsInputBusBitThatIsNotAPrimaryInput) {
  SmallCircuit c = make_small();
  Bus in = c.in;
  in.bits[1] = c.and_net;
  expect_rejected(c.nl, in, c.out, "input bus bit is not a primary input");
}

TEST(FaultSim, CoverageOfEmptyFaultListIsZero) {
  SmallCircuit c = make_small();
  const std::vector<std::int64_t> stim = {1, 2};
  const auto r = simulate_faults(c.nl, c.in, c.out, stim, {});
  EXPECT_DOUBLE_EQ(r.coverage(), 0.0);
  EXPECT_EQ(r.good_waveform.size(), stim.size());
}

}  // namespace
}  // namespace msts::digital
