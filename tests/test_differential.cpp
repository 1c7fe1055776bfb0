// Tests for the golden-model differential harness (src/check): ulp metric,
// comparator semantics, reproducer format, determinism, registry publishing,
// and the shipped kernel-pair checks (six golden-model pairs plus the five
// SIMD-vs-scalar pairs). The binary carries the ctest label "differential"
// so the sanitizer leg can run exactly this suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/differential.h"
#include "check/generators.h"
#include "check/kernel_checks.h"
#include "core/synthesizer.h"
#include "obs/config.h"
#include "obs/registry.h"
#include "path/path_graph.h"
#include "stats/rng.h"

namespace msts {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// ulp_distance
// ---------------------------------------------------------------------------

TEST(UlpDistance, EqualValuesAreZero) {
  EXPECT_EQ(check::ulp_distance(1.0, 1.0), 0.0);
  EXPECT_EQ(check::ulp_distance(0.0, -0.0), 0.0);
  EXPECT_EQ(check::ulp_distance(kInf, kInf), 0.0);
  EXPECT_EQ(check::ulp_distance(-kInf, -kInf), 0.0);
  EXPECT_EQ(check::ulp_distance(kNan, kNan), 0.0);
}

TEST(UlpDistance, AdjacentDoublesAreOneUlp) {
  const double a = 1.0;
  const double b = std::nextafter(a, 2.0);
  EXPECT_EQ(check::ulp_distance(a, b), 1.0);
  EXPECT_EQ(check::ulp_distance(b, a), 1.0);
  // Across zero: -denorm_min .. +denorm_min is two steps.
  const double d = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(check::ulp_distance(-d, d), 2.0);
  EXPECT_EQ(check::ulp_distance(0.0, d), 1.0);
}

TEST(UlpDistance, MismatchedSpecialsAreInfinite) {
  EXPECT_EQ(check::ulp_distance(kNan, 1.0), kInf);
  EXPECT_EQ(check::ulp_distance(1.0, kNan), kInf);
  EXPECT_EQ(check::ulp_distance(kInf, 1.0), kInf);
  EXPECT_EQ(check::ulp_distance(kInf, -kInf), kInf);
}

TEST(UlpDistance, ScalesWithExponent) {
  // One ulp at 2^52 is exactly 1.0; distance 3 means three representables.
  const double a = 4503599627370496.0;  // 2^52
  EXPECT_EQ(check::ulp_distance(a, a + 3.0), 3.0);
}

// ---------------------------------------------------------------------------
// Harness semantics via synthetic kernel pairs
// ---------------------------------------------------------------------------

struct TrivialCase {
  int n = 0;
};

check::Report run_synthetic(
    const std::function<std::vector<double>(const TrivialCase&, stats::Rng&)>& fast,
    const std::function<std::vector<double>(const TrivialCase&, stats::Rng&)>& ref,
    const check::Tolerance& tol, const check::RunOptions& opts = {}) {
  return check::differential<TrivialCase>(
      "synthetic",
      [](stats::Rng& rng) { return TrivialCase{8 + static_cast<int>(rng.uniform_int(8))}; },
      fast, ref,
      [](const TrivialCase& c, obs::json::Writer& w) { w.kv("n", c.n); },
      tol, opts);
}

TEST(DifferentialHarness, IdenticalRngStateOnBothSides) {
  // Both sides draw from their RNG; if the harness hands them different
  // streams this cannot pass bit-identically.
  const auto draw = [](const TrivialCase& c, stats::Rng& rng) {
    std::vector<double> v(static_cast<std::size_t>(c.n));
    for (double& x : v) x = rng.normal();
    return v;
  };
  const check::Report r = run_synthetic(draw, draw, check::Tolerance::bit_identical());
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.cases, 24);
  EXPECT_GT(r.compared, 0u);
}

TEST(DifferentialHarness, FailureProducesParseableReproducer) {
  check::RunOptions opts;
  opts.cases = 5;
  const check::Report r = run_synthetic(
      [](const TrivialCase& c, stats::Rng&) {
        std::vector<double> v(static_cast<std::size_t>(c.n), 1.0);
        v[2] = 1.5;  // deliberate divergence at index 2
        return v;
      },
      [](const TrivialCase& c, stats::Rng&) {
        return std::vector<double>(static_cast<std::size_t>(c.n), 1.0);
      },
      check::Tolerance::abs_only(1e-9), opts);

  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.failures, r.cases);
  EXPECT_EQ(r.worst.worst_index, 2u);
  EXPECT_EQ(r.worst.fast_value, 1.5);
  EXPECT_EQ(r.worst.reference_value, 1.0);
  EXPECT_EQ(r.worst.max_abs, 0.5);

  // The reproducer is one valid JSON object naming the exact case to replay.
  std::string err;
  const auto doc = obs::json::parse(r.reproducer, &err);
  ASSERT_TRUE(doc.has_value()) << err << "\n" << r.reproducer;
  ASSERT_TRUE(doc->is_object());
  ASSERT_NE(doc->find("check"), nullptr);
  EXPECT_EQ(doc->find("check")->string, "synthetic");
  ASSERT_NE(doc->find("seed"), nullptr);
  ASSERT_NE(doc->find("case"), nullptr);
  EXPECT_EQ(doc->find("case")->number, 0.0);  // first failing case
  ASSERT_NE(doc->find("config"), nullptr);
  ASSERT_TRUE(doc->find("config")->is_object());
  ASSERT_NE(doc->find("config")->find("n"), nullptr);
  EXPECT_TRUE(doc->find("config")->find("n")->is_number());
}

TEST(DifferentialHarness, SizeMismatchFailsWithSizesInReproducer) {
  check::RunOptions opts;
  opts.cases = 2;
  const check::Report r = run_synthetic(
      [](const TrivialCase& c, stats::Rng&) {
        return std::vector<double>(static_cast<std::size_t>(c.n) + 1, 0.0);
      },
      [](const TrivialCase& c, stats::Rng&) {
        return std::vector<double>(static_cast<std::size_t>(c.n), 0.0);
      },
      check::Tolerance::abs_only(1.0), opts);
  EXPECT_FALSE(r.passed());
  const auto doc = obs::json::parse(r.reproducer);
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("fast_size"), nullptr);
  ASSERT_NE(doc->find("reference_size"), nullptr);
  EXPECT_EQ(doc->find("fast_size")->number,
            doc->find("reference_size")->number + 1.0);
}

TEST(DifferentialHarness, AbsOrUlpPassesWhenEitherBoundHolds) {
  // 1e9 vs next representable: abs diff far above 1e-12 but only 1 ulp.
  const double big = 1.0e9;
  const double big_next = std::nextafter(big, 2.0e9);
  check::RunOptions opts;
  opts.cases = 1;
  const check::Report r = run_synthetic(
      [&](const TrivialCase&, stats::Rng&) { return std::vector<double>{big, 1e-13}; },
      [&](const TrivialCase&, stats::Rng&) { return std::vector<double>{big_next, 0.0}; },
      check::Tolerance::abs_or_ulp(1e-12, 4.0), opts);
  EXPECT_TRUE(r.passed()) << r.reproducer;
}

TEST(DifferentialHarness, SameSeedReproducesIdenticalReport) {
  check::RunOptions opts;
  opts.cases = 4;
  const check::Report a = check::check_oscillator_vs_libm_trig(opts);
  const check::Report b = check::check_oscillator_vs_libm_trig(opts);
  EXPECT_EQ(a.cases, b.cases);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.compared, b.compared);
  EXPECT_EQ(a.worst_case, b.worst_case);
  EXPECT_EQ(a.worst.worst_index, b.worst.worst_index);
  // Bit-compare the divergence magnitudes: the run is a pure function of
  // (seed, cases), so even the worst-case float must replay exactly.
  EXPECT_EQ(std::memcmp(&a.worst.max_abs, &b.worst.max_abs, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.worst.fast_value, &b.worst.fast_value, sizeof(double)), 0);
}

TEST(DifferentialHarness, DifferentSeedDrawsDifferentCases) {
  check::RunOptions a_opts;
  a_opts.cases = 3;
  check::RunOptions b_opts = a_opts;
  b_opts.seed ^= 0x1234;
  const check::Report a = check::check_oscillator_vs_libm_trig(a_opts);
  const check::Report b = check::check_oscillator_vs_libm_trig(b_opts);
  // Same-structure runs over different cases should (overwhelmingly) observe
  // different worst divergences.
  EXPECT_NE(a.worst.fast_value, b.worst.fast_value);
}

TEST(DifferentialHarness, PublishesRegistryMetrics) {
  const obs::Config prior = obs::current_config();
  obs::Config cfg;
  cfg.metrics = true;
  obs::configure(cfg);
  obs::Registry::instance().reset();

  check::RunOptions opts;
  opts.cases = 3;
  const check::Report r = check::check_oscillator_vs_libm_trig(opts);

  bool saw_cases = false, saw_failures = false, saw_hist = false;
  for (const obs::Metric& m : obs::Registry::instance().snapshot()) {
    if (m.name == "check.oscillator_vs_libm_trig.cases") {
      saw_cases = true;
      EXPECT_EQ(m.count, static_cast<std::uint64_t>(r.cases));
    }
    if (m.name == "check.oscillator_vs_libm_trig.failures") saw_failures = true;
    if (m.name == "check.oscillator_vs_libm_trig.max_abs") {
      saw_hist = true;
      EXPECT_EQ(m.kind, obs::Metric::Kind::kHistogram);
    }
  }
  obs::Registry::instance().reset();
  obs::configure(prior);

  EXPECT_TRUE(saw_cases);
  EXPECT_TRUE(saw_failures);
  EXPECT_TRUE(saw_hist);
}

// ---------------------------------------------------------------------------
// Generators stay inside every block precondition
// ---------------------------------------------------------------------------

TEST(Generators, RandomPathConfigAlwaysConstructible) {
  stats::Rng rng(0xC0FFEE);
  for (int i = 0; i < 50; ++i) {
    const path::PathConfig cfg = check::random_path_config(rng);
    EXPECT_NO_THROW({ path::PathGraph p(cfg); })
        << "draw " << i;
    EXPECT_GE(cfg.digital_fs(), 2.0e6);  // decimation <= 16 at 32 MHz
  }
}

TEST(Generators, RandomSpecTripleIsWellFormed) {
  stats::Rng rng(0xBEEF);
  for (int i = 0; i < 200; ++i) {
    const check::SpecTriple t = check::random_spec_triple(rng);
    EXPECT_NE(t.guard_delta, 0.0);  // always_guard_banded default
    if (t.spec.side == stats::SpecSide::kTwoSided) {
      EXPECT_LT(t.spec.lo, t.spec.hi);
      EXPECT_LE(t.threshold.lo, t.threshold.hi);
    }
    // Yield stays in the band the generator promises, so MC conditionals are
    // well determined.
    const double z_yield = [&] {
      const auto& p = t.param;
      switch (t.spec.side) {
        case stats::SpecSide::kLowerBound: return 1.0 - p.cdf(t.spec.lo);
        case stats::SpecSide::kUpperBound: return p.cdf(t.spec.hi);
        case stats::SpecSide::kTwoSided:
          return p.cdf(t.spec.hi) - p.cdf(t.spec.lo);
      }
      return 0.0;
    }();
    EXPECT_GT(z_yield, 0.05) << "draw " << i;
    EXPECT_LT(z_yield, 0.99) << "draw " << i;
  }
}

// ---------------------------------------------------------------------------
// The six shipped kernel pairs
// ---------------------------------------------------------------------------

TEST(KernelChecks, FftPlanMatchesNaiveDft) {
  const check::Report r = check::check_fft_plan_vs_naive_dft();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.cases, 24);
  EXPECT_GT(r.compared, 0u);
}

TEST(KernelChecks, GoertzelMatchesDirectCorrelation) {
  const check::Report r = check::check_goertzel_vs_direct_correlation();
  EXPECT_TRUE(r.passed()) << r.reproducer;
}

TEST(KernelChecks, OscillatorMatchesLibmTrig) {
  const check::Report r = check::check_oscillator_vs_libm_trig();
  EXPECT_TRUE(r.passed()) << r.reproducer;
}

TEST(KernelChecks, WorkspaceRunBitIdenticalToAllocatingRun) {
  const check::Report r = check::check_path_workspace_vs_allocating_run();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  // Bit-identical contract: the worst divergence must be exactly zero.
  EXPECT_EQ(r.worst.max_abs, 0.0);
  EXPECT_EQ(r.worst.max_ulp, 0.0);
}

TEST(KernelChecks, GraphWalkBitIdenticalToFig6Composition) {
  // The canonical-instance equivalence contract: sampling and walking the
  // canonical graph reproduces the Fig. 6 chain composed block by block
  // bit-for-bit (codes, FIR words, volts, response).
  const check::Report r = check::check_path_graph_vs_fig6_composition();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.worst.max_abs, 0.0);
  EXPECT_EQ(r.worst.max_ulp, 0.0);
}

TEST(KernelChecks, ParallelMcBitIdenticalToSerial) {
  const check::Report r = check::check_parallel_mc_vs_serial();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.worst.max_abs, 0.0);
}

TEST(KernelChecks, GuardBandedAnalyticMatchesMonteCarlo) {
  // The regression net for the guard-band integration fix: without threshold
  // cuts in evaluate_test's grid, sharp-error guard-banded cases diverge from
  // Monte Carlo by far more than sampling error (see src/stats/yield.cpp).
  check::RunOptions opts;
  opts.cases = 16;
  const check::Report r = check::check_guard_band_analytic_vs_mc(opts);
  EXPECT_TRUE(r.passed()) << r.reproducer;
}

// ---------------------------------------------------------------------------
// The SIMD-vs-scalar pairs (green on every backend: when the run is already
// forced scalar they degenerate to an identity check)
// ---------------------------------------------------------------------------

TEST(KernelChecks, SimdWindowBitIdenticalToScalar) {
  const check::Report r = check::check_simd_window_vs_scalar();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.worst.max_abs, 0.0);
  EXPECT_EQ(r.worst.max_ulp, 0.0);
}

TEST(KernelChecks, SimdRfftWithinUlpsOfScalar) {
  const check::Report r = check::check_simd_rfft_vs_scalar();
  EXPECT_TRUE(r.passed()) << r.reproducer;
}

TEST(KernelChecks, SimdBiquadWithinUlpsOfScalar) {
  const check::Report r = check::check_simd_biquad_vs_scalar();
  EXPECT_TRUE(r.passed()) << r.reproducer;
}

TEST(KernelChecks, SimdAddCosineWithinResyncBoundOfScalar) {
  const check::Report r = check::check_simd_add_cosine_vs_scalar();
  EXPECT_TRUE(r.passed()) << r.reproducer;
}

TEST(KernelChecks, SimdFaultSimBitIdenticalAcrossWidths) {
  const check::Report r = check::check_simd_fault_sim_wide_vs_64();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.worst.max_abs, 0.0);
  EXPECT_EQ(r.worst.max_ulp, 0.0);
}

TEST(KernelChecks, FaultSimConeBatchesBitIdenticalToFullSweep) {
  // Cone-restricted, cone-ordered batches over the good trace give the
  // full-netlist sweep's verdicts, streams and good waveform bit for bit —
  // with DFF feedback, constant and input fault sites, output bits outside
  // every cone, at 1, 4 and 8 words.
  const check::Report r = check::check_fault_sim_cone_vs_full_sweep();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.worst.max_abs, 0.0);
  EXPECT_EQ(r.worst.max_ulp, 0.0);
}

TEST(KernelChecks, FaultSimBitIdenticalToSerialEvalGate) {
  // simulate_faults on branched netlists — BUF aliasing, site-only masks,
  // cone-restricted batches at 1, 4 and 8 words — gives the verdicts,
  // streams and good waveform of one eval_gate machine per fault, with
  // faults mid-chain, on chain roots, inputs, DFF Q pins and constants.
  const check::Report r = check::check_fault_sim_vs_serial_eval_gate();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.worst.max_abs, 0.0);
  EXPECT_EQ(r.worst.max_ulp, 0.0);
}

TEST(KernelChecks, FaultSimCaptureBitIdenticalToBusValue) {
  // Every fault's streamed output, decoded from bit planes, equals the
  // per-machine bus_value() capture — at output widths 1, 63 and 64 and
  // with a partial last machine group.
  const check::Report r = check::check_fault_sim_capture_vs_bus_value();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.worst.max_abs, 0.0);
  EXPECT_EQ(r.worst.max_ulp, 0.0);
}

TEST(KernelChecks, NoiseBlocksBitIdenticalToPerSampleDraws) {
  // Rng::fill_normal at the chunk edges with and without a cached partner,
  // the amplifier, LO and mixer noise blocks, and the ADC's INL table over
  // every code: all bit-identical to one normal() per deviate.
  const check::Report r = check::check_noise_blocks_vs_per_sample_draws();
  EXPECT_TRUE(r.passed()) << r.reproducer;
  EXPECT_EQ(r.worst.max_abs, 0.0);
  EXPECT_EQ(r.worst.max_ulp, 0.0);
}

TEST(KernelChecks, RunAllCoversEveryPair) {
  check::RunOptions opts;
  opts.cases = 2;  // smoke pass over all sixteen pairs
  const std::vector<check::Report> reports = check::run_all_kernel_checks(opts);
  ASSERT_EQ(reports.size(), 16u);
  for (const check::Report& r : reports) {
    EXPECT_TRUE(r.passed()) << r.name << ": " << r.reproducer;
    EXPECT_EQ(r.cases, 2);
  }
}

// ---------------------------------------------------------------------------
// Field-mutation property: every numeric field of a PathGraphConfig and its
// blocks, set to NaN, +/-inf, 0 and a negative value (frequencies also to
// analog_fs / 2 and analog_fs), must end either in a std::invalid_argument
// naming the field or in a TestSynthesizer plan whose numbers are all
// finite. The differential harness supplies the seeded streams (each case
// mutates a random_path_config graph drawn from its own stream) and the
// JSON reproducer; the golden side is the contract itself, zero violations.
// ---------------------------------------------------------------------------

using Graph = path::PathGraphConfig;

struct FieldMutation {
  std::string field;  ///< What a rejection must name ("amp.gain_db").
  std::string part;   ///< The mutated component (".wc", ...; may be empty).
  double value = 0.0;
  Graph graph;
};

struct Mutator {
  std::string field, part;
  std::vector<double> values;
  std::function<void(Graph&, double)> set;
};

path::BlockConfig& first(Graph& g, path::BlockKind kind) {
  return g.blocks[*g.index_of(kind)];
}

std::vector<Mutator> all_mutators(double analog_fs) {
  const std::vector<double> real = {kNan, kInf, -kInf, 0.0, -1.0};
  std::vector<double> freq = real;
  freq.insert(freq.end(), {analog_fs / 2.0, analog_fs});
  const std::vector<double> signed_int = {0.0, -1.0};
  const std::vector<double> unsigned_int = {0.0};  // no negative unsigned value
  std::vector<Mutator> out;
  auto uncertain = [&](const std::string& field, stats::Uncertain& (*get)(Graph&),
                       const std::vector<double>& nominal_values) {
    out.push_back({field, ".nominal", nominal_values,
                   [get](Graph& g, double v) { get(g).nominal = v; }});
    out.push_back({field, ".wc", real, [get](Graph& g, double v) { get(g).wc = v; }});
    out.push_back({field, ".sigma", real, [get](Graph& g, double v) { get(g).sigma = v; }});
  };
#define MSTS_UNCERTAIN(name, kind, member, values)                                      \
  uncertain(name, [](Graph& g) -> stats::Uncertain& {                                  \
    return first(g, path::BlockKind::kind).member;                                      \
  }, values)
#define MSTS_SCALAR(name, kind, member, type, values)                                   \
  out.push_back({name, "", values, [](Graph& g, double v) {                             \
    first(g, path::BlockKind::kind).member = static_cast<type>(v);                      \
  }})
  uncertain("analog_flatness_db",
            [](Graph& g) -> stats::Uncertain& { return g.analog_flatness_db; }, real);
  out.push_back({"analog_fs", "", real, [](Graph& g, double v) { g.analog_fs = v; }});
  MSTS_UNCERTAIN("amp.gain_db", kAmp, amp.gain_db, real);
  MSTS_UNCERTAIN("amp.iip3_dbm", kAmp, amp.iip3_dbm, real);
  MSTS_UNCERTAIN("amp.iip2_dbm", kAmp, amp.iip2_dbm, real);
  MSTS_UNCERTAIN("amp.p1db_in_dbm", kAmp, amp.p1db_in_dbm, real);
  MSTS_UNCERTAIN("amp.nf_db", kAmp, amp.nf_db, real);
  MSTS_UNCERTAIN("amp.dc_offset_v", kAmp, amp.dc_offset_v, real);
  MSTS_UNCERTAIN("mixer.conv_gain_db", kMixer, mixer.conv_gain_db, real);
  MSTS_UNCERTAIN("mixer.iip3_dbm", kMixer, mixer.iip3_dbm, real);
  MSTS_UNCERTAIN("mixer.p1db_in_dbm", kMixer, mixer.p1db_in_dbm, real);
  MSTS_UNCERTAIN("mixer.lo_isolation_db", kMixer, mixer.lo_isolation_db, real);
  MSTS_UNCERTAIN("mixer.nf_db", kMixer, mixer.nf_db, real);
  MSTS_UNCERTAIN("lo.freq_error_ppm", kMixer, lo.freq_error_ppm, real);
  MSTS_UNCERTAIN("lo.phase_noise_rad", kMixer, lo.phase_noise_rad, real);
  MSTS_SCALAR("lo.freq_hz", kMixer, lo.freq_hz, double, freq);
  MSTS_SCALAR("lo.amplitude", kMixer, lo.amplitude, double, real);
  MSTS_UNCERTAIN("lpf.cutoff_hz", kLpf, lpf.cutoff_hz, freq);
  MSTS_UNCERTAIN("lpf.passband_gain_db", kLpf, lpf.passband_gain_db, real);
  MSTS_UNCERTAIN("lpf.clock_spur_v", kLpf, lpf.clock_spur_v, real);
  MSTS_SCALAR("lpf.order", kLpf, lpf.order, int, signed_int);
  MSTS_SCALAR("lpf.clock_hz", kLpf, lpf.clock_hz, double, freq);
  MSTS_UNCERTAIN("adc.offset_error_v", kAdc, adc.offset_error_v, real);
  MSTS_UNCERTAIN("adc.gain_error", kAdc, adc.gain_error, real);
  MSTS_UNCERTAIN("adc.inl_peak_lsb", kAdc, adc.inl_peak_lsb, real);
  MSTS_UNCERTAIN("adc.dnl_sigma_lsb", kAdc, adc.dnl_sigma_lsb, real);
  MSTS_SCALAR("adc.bits", kAdc, adc.bits, int, signed_int);
  MSTS_SCALAR("adc.vref", kAdc, adc.vref, double, real);
  MSTS_SCALAR("adc_decimation", kAdc, adc_decimation, std::size_t, unsigned_int);
  MSTS_SCALAR("fir_taps", kFir, fir_taps, std::size_t, unsigned_int);
  MSTS_SCALAR("fir_cutoff_norm", kFir, fir_cutoff_norm, double, real);
  MSTS_SCALAR("fir_coeff_frac_bits", kFir, fir_coeff_frac_bits, int, signed_int);
#undef MSTS_UNCERTAIN
#undef MSTS_SCALAR
  return out;
}

// Every number of the plan is finite; a spec side may be open (+/-inf) but
// never NaN.
bool plan_is_finite(const std::vector<core::PlannedTest>& plan) {
  auto finite = [](std::initializer_list<double> xs) {
    return std::all_of(xs.begin(), xs.end(), [](double x) { return std::isfinite(x); });
  };
  auto no_nan = [](const stats::SpecLimits& s) {
    return !std::isnan(s.lo) && !std::isnan(s.hi);
  };
  for (const core::PlannedTest& t : plan) {
    if (!finite({t.error.nominal, t.error.wc, t.error.sigma})) return false;
    if (!t.has_study) continue;
    const core::ParameterStudy& st = t.study;
    if (!finite({st.population.mean, st.population.sigma, st.error_wc}) ||
        !no_nan(st.spec)) {
      return false;
    }
    for (const core::ThresholdRow& r : st.rows) {
      const stats::TestOutcome& o = r.outcome;
      if (!no_nan(r.threshold) || !finite({o.yield, o.defect_rate, o.accept_rate,
                                           o.yield_loss, o.fault_coverage_loss})) {
        return false;
      }
    }
  }
  return true;
}

// 0 when the mutation ends as the contract allows, 1 when it does not.
double mutation_violation(const FieldMutation& m) {
  try {
    return plan_is_finite(core::TestSynthesizer(m.graph).synthesize()) ? 0.0 : 1.0;
  } catch (const std::invalid_argument& e) {
    return std::string(e.what()).find(m.field) != std::string::npos ? 0.0 : 1.0;
  } catch (...) {
    return 1.0;
  }
}

TEST(FieldMutations, RejectedByNameOrSynthesizedFinite) {
  const std::vector<Mutator> mutators =
      all_mutators(path::reference_path_config().analog_fs);
  // (mutator, value) pairs in case order; the generator walks them.
  auto cases = std::make_shared<std::vector<std::pair<const Mutator*, double>>>();
  for (const Mutator& m : mutators) {
    for (const double v : m.values) cases->emplace_back(&m, v);
  }
  auto next = std::make_shared<std::size_t>(0);

  check::RunOptions opts;
  opts.seed = 0x5EEDF1E1D5ull;
  opts.cases = static_cast<int>(cases->size());
  const check::Report report = check::differential<FieldMutation>(
      "path_field_mutations",
      [cases, next](stats::Rng& rng) {
        const auto& [mutator, value] = (*cases)[(*next)++];
        FieldMutation m{mutator->field, mutator->part, value,
                        check::random_path_config(rng)};
        mutator->set(m.graph, value);
        return m;
      },
      [](const FieldMutation& m, stats::Rng&) {
        return std::vector<double>{mutation_violation(m)};
      },
      [](const FieldMutation&, stats::Rng&) { return std::vector<double>{0.0}; },
      [](const FieldMutation& m, obs::json::Writer& w) {
        w.kv("field", m.field + m.part).kv("value", m.value);  // non-finite: null
        check::describe(m.graph, w);
      },
      check::Tolerance::bit_identical(), opts);

  EXPECT_GT(report.cases, 300);
  // The reproducer names the first mutation (field, value, graph) that was
  // neither rejected by name nor synthesized finite.
  EXPECT_EQ(report.failures, 0) << report.reproducer;
}

}  // namespace
}  // namespace msts
