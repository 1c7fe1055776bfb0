// Tests for the composable path-graph layer (path/path_graph.h): the
// centralized construction-time validation rules, canonical graph
// derivation, composition of non-canonical topologies, and the runtime
// contracts (workspace identity, volts conversion, rate checks). The
// bit-identity of the graph walk against an explicit Fig. 6 composition is
// covered by the differential pair in src/check (test_differential.cpp).
#include "path/path_graph.h"

#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "dsp/tonegen.h"
#include "path/receiver_path.h"

namespace msts::path {
namespace {

analog::Signal rf_tone(const PathGraphConfig& g, double freq, double amp,
                       std::size_t digital_n) {
  const dsp::Tone t{freq, amp, 0.0};
  analog::Signal s;
  s.fs = g.analog_fs;
  s.samples =
      dsp::generate_tones(std::span(&t, 1), 0.0, g.analog_fs,
                          digital_n * g.adc_decimation());
  return s;
}

// validate(config) must throw std::invalid_argument naming `field`.
template <typename Config>
void expect_rejected_naming(const Config& config, const std::string& field) {
  try {
    validate(config);
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};

// Every Uncertain field of the amplifier and mixer, with its field name.
template <typename Params>
struct UncertainField {
  stats::Uncertain Params::*member;
  const char* name;
};
const UncertainField<analog::AmpParams> kAmpFields[] = {
    {&analog::AmpParams::gain_db, "amp.gain_db"},
    {&analog::AmpParams::iip3_dbm, "amp.iip3_dbm"},
    {&analog::AmpParams::iip2_dbm, "amp.iip2_dbm"},
    {&analog::AmpParams::p1db_in_dbm, "amp.p1db_in_dbm"},
    {&analog::AmpParams::nf_db, "amp.nf_db"},
    {&analog::AmpParams::dc_offset_v, "amp.dc_offset_v"}};

const UncertainField<analog::MixerParams> kMixerFields[] = {
    {&analog::MixerParams::conv_gain_db, "mixer.conv_gain_db"},
    {&analog::MixerParams::iip3_dbm, "mixer.iip3_dbm"},
    {&analog::MixerParams::p1db_in_dbm, "mixer.p1db_in_dbm"},
    {&analog::MixerParams::lo_isolation_db, "mixer.lo_isolation_db"},
    {&analog::MixerParams::nf_db, "mixer.nf_db"}};

// ---------------------------------------------------------------------------
// Flat PathConfig validation (centralized construction-time rules)
// ---------------------------------------------------------------------------

TEST(PathConfigValidation, ReferenceConfigIsValid) {
  EXPECT_NO_THROW(validate(reference_path_config()));
}

TEST(PathConfigValidation, RejectsNonPositiveOrNonFiniteAnalogFs) {
  for (const double bad : {0.0, -1.0e6, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    PathConfig c = reference_path_config();
    c.analog_fs = bad;
    EXPECT_THROW(validate(c), std::invalid_argument) << bad;
    EXPECT_THROW(ReceiverPath{c}, std::invalid_argument) << bad;
  }
}

// The LO is simulated at analog_fs: 20 MHz at the reference 32 MHz rate is
// above Nyquist and must be refused with a message naming the field.
TEST(PathConfigValidation, RejectsLoOutsideAnalogNyquist) {
  for (const double bad : {20.0e6, 16.0e6, 0.0, -1.0e6,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    PathConfig c = reference_path_config();
    c.lo.freq_hz = bad;
    try {
      validate(c);
      ADD_FAILURE() << "accepted lo.freq_hz = " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("lo.freq_hz"), std::string::npos)
          << e.what();
    }
  }
  PathConfig ok = reference_path_config();
  ok.lo.freq_hz = 15.9e6;
  EXPECT_NO_THROW(validate(ok));
}

TEST(PathConfigValidation, RejectsNonPositiveOrNonFiniteLoAmplitude) {
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    PathConfig c = reference_path_config();
    c.lo.amplitude = bad;
    expect_rejected_naming(c, "lo.amplitude");
    EXPECT_THROW(ReceiverPath{c}, std::invalid_argument) << bad;
  }
}

// A non-finite nominal must fail at validation, by name, not layers down
// (a NaN amp gain would otherwise surface in the attribute model's dB
// conversion with a message that names no field).
TEST(PathConfigValidation, RejectsNonFiniteAmpAndMixerNominals) {
  for (const double bad : kNonFinite) {
    for (const auto& f : kAmpFields) {
      PathConfig c = reference_path_config();
      (c.amp.*f.member).nominal = bad;
      expect_rejected_naming(c, f.name);
    }
    for (const auto& f : kMixerFields) {
      PathConfig c = reference_path_config();
      (c.mixer.*f.member).nominal = bad;
      expect_rejected_naming(c, f.name);
    }
    PathConfig c = reference_path_config();
    c.analog_flatness_db.nominal = bad;
    expect_rejected_naming(c, "analog_flatness_db");
  }
}

TEST(PathConfigValidation, RejectsZeroDecimation) {
  PathConfig c = reference_path_config();
  c.adc_decimation = 0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(PathConfigValidation, RejectsEvenZeroOrTooShortFirTaps) {
  for (const std::size_t bad : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                                std::size_t{16}}) {
    PathConfig c = reference_path_config();
    c.fir_taps = bad;
    EXPECT_THROW(validate(c), std::invalid_argument) << bad;
    EXPECT_THROW(ReceiverPath{c}, std::invalid_argument) << bad;
  }
}

TEST(PathConfigValidation, RejectsFirCutoffOutsideOpenInterval) {
  for (const double bad : {0.0, -0.1, 0.5, 0.7}) {
    PathConfig c = reference_path_config();
    c.fir_cutoff_norm = bad;
    EXPECT_THROW(validate(c), std::invalid_argument) << bad;
  }
}

TEST(PathConfigValidation, RejectsFracBitsOutsideInt32Budget) {
  for (const int bad : {0, -3, 31, 64}) {
    PathConfig c = reference_path_config();
    c.fir_coeff_frac_bits = bad;
    EXPECT_THROW(validate(c), std::invalid_argument) << bad;
  }
}

TEST(PathConfigValidation, RejectsAdcBitsOutsideFilterBudget) {
  // The rule is the ADC model's own 4..20 range, so 2, 3 and 21..24 (inside
  // the FIR's input-width budget) never reach the Adc constructor.
  for (const int bad : {0, 1, 2, 3, 21, 24, 25, 40}) {
    PathConfig c = reference_path_config();
    c.adc.bits = bad;
    EXPECT_THROW(validate(c), std::invalid_argument) << bad;
    expect_rejected_naming(c, "adc.bits");
  }
}

// One bad LPF, ADC or LO value and the field its rejection must name: each
// must fail at validation, by name, not in a block constructor or the first
// transient (or never, as a NaN path gain).
struct BlockMutation {
  const char* field;
  void (*apply)(analog::LpfParams&, analog::AdcParams&, analog::LoParams&);
};
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
const BlockMutation kLpfAdcLoMutations[] = {
    {"lpf.order", [](auto& f, auto&, auto&) { f.order = 18; }},
    {"lpf.cutoff_hz", [](auto& f, auto&, auto&) { f.cutoff_hz.nominal = 17.0e6; }},
    {"lpf.cutoff_hz", [](auto& f, auto&, auto&) { f.cutoff_hz.nominal = kInf; }},
    {"lpf.cutoff_hz", [](auto& f, auto&, auto&) { f.cutoff_hz.nominal = kNaN; }},
    {"lpf.cutoff_hz", [](auto& f, auto&, auto&) { f.cutoff_hz.nominal = 0.0; }},
    {"lpf.passband_gain_db", [](auto& f, auto&, auto&) { f.passband_gain_db.nominal = kNaN; }},
    {"lpf.clock_hz", [](auto& f, auto&, auto&) { f.clock_hz = kNaN; }},
    {"lpf.clock_hz", [](auto& f, auto&, auto&) { f.clock_hz = 0.0; }},
    {"lpf.clock_spur_v", [](auto& f, auto&, auto&) { f.clock_spur_v.nominal = kInf; }},
    {"adc.vref", [](auto&, auto& a, auto&) { a.vref = kInf; }},
    {"adc.vref", [](auto&, auto& a, auto&) { a.vref = kNaN; }},
    {"adc.vref", [](auto&, auto& a, auto&) { a.vref = 0.0; }},
    {"adc.gain_error", [](auto&, auto& a, auto&) { a.gain_error.nominal = kNaN; }},
    {"adc.offset_error_v", [](auto&, auto& a, auto&) { a.offset_error_v.nominal = kNaN; }},
    {"adc.inl_peak_lsb", [](auto&, auto& a, auto&) { a.inl_peak_lsb.nominal = -kInf; }},
    {"adc.dnl_sigma_lsb", [](auto&, auto& a, auto&) { a.dnl_sigma_lsb.nominal = kNaN; }},
    {"lo.phase_noise_rad", [](auto&, auto&, auto& l) { l.phase_noise_rad.nominal = kNaN; }},
    {"lo.freq_error_ppm", [](auto&, auto&, auto& l) { l.freq_error_ppm.nominal = kInf; }},
};

TEST(PathConfigValidation, RejectsBadLpfAdcAndLoFieldsByName) {
  for (const BlockMutation& m : kLpfAdcLoMutations) {
    PathConfig c = reference_path_config();
    m.apply(c.lpf, c.adc, c.lo);
    expect_rejected_naming(c, m.field);
  }
}

// The edges of the tightened ranges still validate, build and run.
TEST(PathConfigValidation, AcceptedEdgesRunATransient) {
  for (const int bits : {4, 20}) {
    for (const int order : {2, 16}) {
      PathConfig c = reference_path_config();
      c.adc.bits = bits;
      c.lpf.order = order;
      c.lpf.cutoff_hz.nominal = 15.9e6;
      const PathGraph g(c);
      stats::Rng rng(3);
      const auto trace = g.run(rf_tone(g.config(), 10.4e6, 1e-3, 64), rng);
      EXPECT_EQ(trace.adc_codes.size(), 64u) << bits << " bits, order " << order;
    }
  }
}

TEST(PathConfigValidation, RejectsOddOrNonPositiveLpfOrder) {
  for (const int bad : {0, -2, 3, 5}) {
    PathConfig c = reference_path_config();
    c.lpf.order = bad;
    EXPECT_THROW(validate(c), std::invalid_argument) << bad;
  }
}

// ---------------------------------------------------------------------------
// Structural graph validation
// ---------------------------------------------------------------------------

TEST(PathGraphValidation, CanonicalGraphIsValidAndOrdered) {
  const PathGraphConfig g = reference_path_config();
  EXPECT_NO_THROW(validate(g));
  ASSERT_EQ(g.blocks.size(), 5u);
  EXPECT_EQ(g.blocks[0].kind, BlockKind::kAmp);
  EXPECT_EQ(g.blocks[1].kind, BlockKind::kMixer);
  EXPECT_EQ(g.blocks[2].kind, BlockKind::kLpf);
  EXPECT_EQ(g.blocks[3].kind, BlockKind::kAdc);
  EXPECT_EQ(g.blocks[4].kind, BlockKind::kFir);
  EXPECT_EQ(g.index_of(BlockKind::kAdc), std::optional<std::size_t>{3});
  EXPECT_EQ(g.count(BlockKind::kLpf), 1u);
  EXPECT_EQ(g.adc_decimation(), 8u);
  EXPECT_DOUBLE_EQ(g.digital_fs(), 4.0e6);
}

TEST(PathGraphValidation, RejectsEmptyGraph) {
  PathGraphConfig g = reference_path_config();
  g.blocks.clear();
  EXPECT_THROW(validate(g), std::invalid_argument);
}

TEST(PathGraphValidation, RequiresExactlyOneAdc) {
  PathGraphConfig none = reference_path_config();
  none.blocks.erase(none.blocks.begin() + 3);
  none.blocks.pop_back();  // the FIR would dangle without the ADC anyway
  EXPECT_THROW(validate(none), std::invalid_argument);

  PathGraphConfig two = reference_path_config();
  two.blocks.insert(two.blocks.begin() + 3, two.blocks[3]);
  EXPECT_THROW(validate(two), std::invalid_argument);
}

TEST(PathGraphValidation, RejectsAnalogBlocksBehindTheAdc) {
  PathGraphConfig g = reference_path_config();
  std::swap(g.blocks[2], g.blocks[3]);  // lpf behind the adc
  EXPECT_THROW(validate(g), std::invalid_argument);
}

TEST(PathGraphValidation, RejectsFirInFrontOfTheAdcOrRepeated) {
  PathGraphConfig front = reference_path_config();
  std::swap(front.blocks[3], front.blocks[4]);  // fir before the adc
  EXPECT_THROW(validate(front), std::invalid_argument);

  PathGraphConfig twice = reference_path_config();
  twice.blocks.push_back(twice.blocks[4]);
  EXPECT_THROW(validate(twice), std::invalid_argument);
}

TEST(PathGraphValidation, PerBlockRulesApplyInsideTheGraph) {
  PathGraphConfig g = reference_path_config();
  g.blocks[4].fir_taps = 12;  // even
  EXPECT_THROW(validate(g), std::invalid_argument);

  g = reference_path_config();
  g.blocks[3].adc_decimation = 0;
  EXPECT_THROW(validate(g), std::invalid_argument);

  g = reference_path_config();
  g.blocks[2].lpf.order = 3;
  EXPECT_THROW(validate(g), std::invalid_argument);

  g = reference_path_config();
  g.analog_fs = -1.0;
  EXPECT_THROW(validate(g), std::invalid_argument);

  g = reference_path_config();
  g.blocks[1].lo.amplitude = 0.0;
  expect_rejected_naming(g, "lo.amplitude");

  g = reference_path_config();
  g.blocks[3].adc.bits = 3;
  expect_rejected_naming(g, "adc.bits");

  for (const BlockMutation& m : kLpfAdcLoMutations) {
    g = reference_path_config();
    m.apply(g.blocks[2].lpf, g.blocks[3].adc, g.blocks[1].lo);
    expect_rejected_naming(g, m.field);
  }

  for (const double bad : kNonFinite) {
    for (const auto& f : kAmpFields) {
      g = reference_path_config();
      (g.blocks[0].amp.*f.member).nominal = bad;
      expect_rejected_naming(g, f.name);
    }
    for (const auto& f : kMixerFields) {
      g = reference_path_config();
      (g.blocks[1].mixer.*f.member).nominal = bad;
      expect_rejected_naming(g, f.name);
    }
    g = reference_path_config();
    g.analog_flatness_db.nominal = bad;
    expect_rejected_naming(g, "analog_flatness_db");
  }
}

TEST(PathGraphValidation, RejectsLoOutsideAnalogNyquist) {
  for (const double bad : {20.0e6, 16.0e6, 0.0, -1.0e6,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    PathGraphConfig g = reference_path_config();
    g.blocks[1].lo.freq_hz = bad;
    try {
      validate(g);
      ADD_FAILURE() << "accepted lo.freq_hz = " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("lo.freq_hz"), std::string::npos)
          << e.what();
    }
  }
  PathGraphConfig ok = reference_path_config();
  ok.blocks[1].lo.freq_hz = 15.9e6;
  EXPECT_NO_THROW(validate(ok));
}

// ---------------------------------------------------------------------------
// Composition and runtime
// ---------------------------------------------------------------------------

TEST(PathGraph, NominalRunHasConsistentDimensions) {
  const PathGraphConfig cfg = reference_path_config();
  const PathGraph g(cfg);
  stats::Rng rng(1);
  const auto trace = g.run(rf_tone(cfg, 10.5e6, 1e-3, 1024), rng);
  ASSERT_EQ(trace.analog_stages.size(), 3u);  // amp, mixer, lpf outputs
  EXPECT_EQ(trace.analog_stages[0].size(), 1024u * cfg.adc_decimation());
  EXPECT_EQ(trace.adc_codes.size(), 1024u);
  EXPECT_EQ(trace.filter_out.size(), 1024u);
  EXPECT_DOUBLE_EQ(trace.digital_fs, 4.0e6);
}

TEST(PathGraph, NonCanonicalTopologiesComposeAndRun) {
  const PathConfig base = reference_path_config();
  // Amp at IF: same block multiset as canonical, different arrangement.
  PathGraphConfig if_amp;
  if_amp.analog_fs = base.analog_fs;
  if_amp.blocks = {BlockConfig::make_mixer(base.mixer, base.lo),
                   BlockConfig::make_amp(base.amp),
                   BlockConfig::make_lpf(base.lpf),
                   BlockConfig::make_adc(base.adc, base.adc_decimation),
                   BlockConfig::make_fir(base.fir_taps, base.fir_cutoff_norm,
                                         base.fir_coeff_frac_bits)};
  // Passive front end, no digital filter.
  PathGraphConfig no_amp;
  no_amp.analog_fs = base.analog_fs;
  no_amp.blocks = {BlockConfig::make_mixer(base.mixer, base.lo),
                   BlockConfig::make_lpf(base.lpf),
                   BlockConfig::make_adc(base.adc, base.adc_decimation)};

  for (const PathGraphConfig& cfg : {if_amp, no_amp}) {
    const PathGraph g(cfg);
    stats::Rng rng(2);
    const auto trace = g.run(rf_tone(cfg, 10.5e6, 1e-3, 512), rng);
    EXPECT_EQ(trace.adc_codes.size(), 512u);
    const auto volts = g.output_volts(trace);
    if (cfg.count(BlockKind::kFir) == 0) {
      EXPECT_TRUE(trace.filter_out.empty());
      EXPECT_EQ(volts.size(), trace.adc_codes.size());
      EXPECT_DOUBLE_EQ(g.fir_magnitude_at(0.4e6), 1.0);
    } else {
      EXPECT_EQ(volts.size(), trace.filter_out.size());
    }
    // The tone got through: some code is nonzero.
    bool nonzero = false;
    for (const std::int64_t c : trace.adc_codes) nonzero |= (c != 0);
    EXPECT_TRUE(nonzero);
  }
}

TEST(PathGraph, WorkspaceRunIsBitIdenticalToAllocatingRun) {
  const PathGraphConfig cfg = reference_path_config();
  const PathGraph g(cfg);
  const auto rf = rf_tone(cfg, 10.4e6, 1e-3, 512);

  stats::Rng rng_a(42);
  const auto fresh = g.run(rf, rng_a);

  GraphWorkspace ws;
  for (int round = 0; round < 3; ++round) {
    stats::Rng rng_b(42);
    const auto& reused = g.run(rf, rng_b, ws);
    ASSERT_EQ(reused.adc_codes, fresh.adc_codes) << "round " << round;
    ASSERT_EQ(reused.filter_out, fresh.filter_out) << "round " << round;
    for (std::size_t s = 0; s < fresh.analog_stages.size(); ++s) {
      ASSERT_EQ(reused.analog_stages[s].samples, fresh.analog_stages[s].samples)
          << "round " << round << " stage " << s;
    }
    EXPECT_DOUBLE_EQ(reused.digital_fs, fresh.digital_fs);
  }
}

TEST(PathGraph, OutputVoltsIntoMatchesValueForm) {
  const PathGraphConfig cfg = reference_path_config();
  const PathGraph g(cfg);
  stats::Rng rng(3);
  const auto trace = g.run(rf_tone(cfg, 10.4e6, 1e-3, 256), rng);
  const auto by_value = g.output_volts(trace);
  std::vector<double> into(7, -99.0);
  g.output_volts_into(trace, into);
  EXPECT_EQ(into, by_value);
}

TEST(PathGraph, SampledIsDeterministicPerSeed) {
  const PathGraphConfig cfg = reference_path_config();
  stats::Rng mc_a(9), mc_b(9), mc_c(10);
  const PathGraph a = PathGraph::sampled(cfg, mc_a);
  const PathGraph b = PathGraph::sampled(cfg, mc_b);
  const PathGraph c = PathGraph::sampled(cfg, mc_c);

  const auto rf = rf_tone(cfg, 10.4e6, 1e-3, 256);
  stats::Rng na(5), nb(5), nc(5);
  const auto ta = a.run(rf, na);
  const auto tb = b.run(rf, nb);
  const auto tc = c.run(rf, nc);
  EXPECT_EQ(ta.filter_out, tb.filter_out);
  EXPECT_NE(ta.filter_out, tc.filter_out);
}

TEST(PathGraph, WorkspaceSurvivesRecordLengthChanges) {
  // Shrinking then regrowing the record must not leave stale tail samples.
  const PathGraphConfig cfg = reference_path_config();
  const PathGraph g(cfg);
  GraphWorkspace ws;
  for (std::size_t digital_n : {std::size_t{1024}, std::size_t{256}, std::size_t{1024}}) {
    const auto rf = rf_tone(cfg, 10.5e6, 1e-3, digital_n);
    stats::Rng rng_a(7);
    stats::Rng rng_b(7);
    const auto fresh = g.run(rf, rng_a);
    const auto& reused = g.run(rf, rng_b, ws);
    ASSERT_EQ(reused.adc_codes, fresh.adc_codes) << "digital_n " << digital_n;
    ASSERT_EQ(reused.filter_out, fresh.filter_out) << "digital_n " << digital_n;
  }
}

TEST(PathGraph, RejectsWrongSampleRate) {
  const PathGraphConfig cfg = reference_path_config();
  const PathGraph g(cfg);
  stats::Rng rng(1);
  analog::Signal bad;
  bad.fs = 1.0e6;
  bad.samples.assign(64, 0.0);
  EXPECT_THROW(g.run(bad, rng), std::invalid_argument);
}

TEST(PathGraph, ReceiverPathExposesItsGraph) {
  // ReceiverPath is the canonical graph itself; its named accessors are
  // views of the graph's stages.
  const ReceiverPath p(reference_path_config());
  const PathGraph& g = p;
  EXPECT_EQ(g.size(), 5u);
  EXPECT_EQ(g.kind_at(0), BlockKind::kAmp);
  EXPECT_EQ(g.kind_at(4), BlockKind::kFir);
  EXPECT_EQ(&p.lpf(), &g.lpf_at(2));
  EXPECT_EQ(&p.fir_coeffs(), &g.fir_at(4).coeffs);
}

}  // namespace
}  // namespace msts::path
