#include "check/kernel_checks.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "analog/adc.h"
#include "analog/amp.h"
#include "analog/lo.h"
#include "analog/lpf.h"
#include "analog/mixer.h"
#include "analog/noise.h"
#include "base/simd.h"
#include "base/units.h"
#include "check/generators.h"
#include "digital/fault_sim.h"
#include "digital/faults.h"
#include "digital/fir.h"
#include "digital/sim.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/fir_design.h"
#include "dsp/oscillator.h"
#include "dsp/tonegen.h"
#include "dsp/window.h"
#include "path/path_graph.h"
#include "stats/monte_carlo.h"
#include "stats/yield.h"

namespace msts::check {

namespace {

// Interleaves re/im so complex outputs flow through the scalar comparator.
void push_complex(std::vector<double>& out, const std::complex<double>& v) {
  out.push_back(v.real());
  out.push_back(v.imag());
}

}  // namespace

// ---------------------------------------------------------------------------
// Planned real FFT vs naive O(N^2) DFT.
// ---------------------------------------------------------------------------

Report check_fft_plan_vs_naive_dft(const RunOptions& opts) {
  using Case = RecordCase;
  return differential<Case>(
      "fft_plan_vs_naive_dft",
      [](stats::Rng& rng) { return random_record(rng, /*min_log2=*/4, /*max_log2=*/10); },
      [](const Case& c, stats::Rng&) {
        std::vector<double> out;
        const auto bins = dsp::rfft(c.samples);
        out.reserve(2 * bins.size());
        for (const auto& b : bins) push_complex(out, b);
        return out;
      },
      [](const Case& c, stats::Rng&) {
        // One-sided naive DFT with exact library trig at every (n, k) angle.
        const std::size_t n = c.samples.size();
        std::vector<double> out;
        out.reserve(2 * (n / 2 + 1));
        for (std::size_t k = 0; k <= n / 2; ++k) {
          std::complex<double> acc(0.0, 0.0);
          for (std::size_t i = 0; i < n; ++i) {
            const double a = -kTwoPi * static_cast<double>(i) *
                             static_cast<double>(k) / static_cast<double>(n);
            acc += c.samples[i] * std::complex<double>(std::cos(a), std::sin(a));
          }
          push_complex(out, acc);
        }
        return out;
      },
      [](const Case& c, obs::json::Writer& w) { describe(c, w); },
      // Bin magnitudes reach N * sum(amplitudes); the abs bound absorbs
      // cancellation noise on near-empty bins, the ulp bound scales with the
      // loaded bins.
      Tolerance::abs_or_ulp(1e-6, 1e5), opts);
}

// ---------------------------------------------------------------------------
// Blockwise Goertzel single-bin DFT vs direct correlation.
// ---------------------------------------------------------------------------

namespace {

struct SingleBinCase {
  RecordCase rec;
  double freq = 0.0;
};

}  // namespace

Report check_goertzel_vs_direct_correlation(const RunOptions& opts) {
  using Case = SingleBinCase;
  return differential<Case>(
      "goertzel_vs_direct_correlation",
      [](stats::Rng& rng) {
        Case c;
        c.rec = random_record(rng, /*min_log2=*/6, /*max_log2=*/13);
        const double u = rng.uniform();
        if (u < 0.15) {
          c.freq = 0.0;  // DC branch
        } else if (u < 0.3) {
          c.freq = 0.5 * c.rec.fs;  // Nyquist branch
        } else if (u < 0.6) {
          // Bin-centred (the production use: coherent translated tests).
          c.freq = dsp::coherent_frequency(c.rec.fs, c.rec.samples.size(),
                                           rng.uniform(0.02, 0.45) * c.rec.fs);
        } else {
          // Arbitrary off-bin frequency.
          c.freq = rng.uniform(0.001, 0.499) * c.rec.fs;
        }
        return c;
      },
      [](const Case& c, stats::Rng&) {
        std::vector<double> out;
        push_complex(out, dsp::single_bin_dft(c.rec.samples, c.freq, c.rec.fs));
        return out;
      },
      [](const Case& c, stats::Rng&) {
        // Direct correlation with a libm cos/sin pair at every sample, with
        // the same one-sided 2/N (1/N at DC/Nyquist) scaling.
        const std::size_t n = c.rec.samples.size();
        std::complex<double> acc(0.0, 0.0);
        const double w = kTwoPi * c.freq / c.rec.fs;
        for (std::size_t i = 0; i < n; ++i) {
          const double a = -w * static_cast<double>(i);
          acc += c.rec.samples[i] * std::complex<double>(std::cos(a), std::sin(a));
        }
        const bool self_mirrored = (c.freq == 0.0) || (c.freq == 0.5 * c.rec.fs);
        acc *= (self_mirrored ? 1.0 : 2.0) / static_cast<double>(n);
        std::vector<double> out;
        push_complex(out, acc);
        return out;
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("freq", c.freq);
        describe(c.rec, w);
      },
      Tolerance::abs_or_ulp(1e-8, 1e5), opts);
}

// ---------------------------------------------------------------------------
// Recurrence oscillator vs long-double libm trig.
// ---------------------------------------------------------------------------

namespace {

struct OscCase {
  double omega = 0.0;
  double phase = 0.0;
  double amp = 1.0;
  std::size_t n = 0;
};

}  // namespace

Report check_oscillator_vs_libm_trig(const RunOptions& opts) {
  using Case = OscCase;
  return differential<Case>(
      "oscillator_vs_libm_trig",
      [](stats::Rng& rng) {
        Case c;
        c.omega = rng.uniform(1e-4, 0.99 * kPi);
        c.phase = rng.uniform(0.0, kTwoPi);
        c.amp = rng.uniform(0.1, 2.0);
        c.n = std::size_t{1} << (10 + rng.uniform_int(5));  // 1k .. 16k
        return c;
      },
      [](const Case& c, stats::Rng&) {
        // Both generation paths: the 4-lane add_cosine used by tonegen, then
        // the single streaming phasor used by the LO.
        std::vector<double> out(c.n, 0.0);
        dsp::add_cosine(out.data(), c.n, c.omega, c.phase, c.amp);
        dsp::PhasorOscillator osc(c.omega, c.phase);
        out.reserve(2 * c.n);
        for (std::size_t i = 0; i < c.n; ++i) out.push_back(c.amp * osc.cos_next());
        return out;
      },
      [](const Case& c, stats::Rng&) {
        // Long-double golden model: the angle product omega * i is formed in
        // 80-bit precision, so its rounding stays far below the oscillators'
        // 1e-12 drift contract.
        std::vector<double> out;
        out.reserve(2 * c.n);
        for (int rep = 0; rep < 2; ++rep) {
          for (std::size_t i = 0; i < c.n; ++i) {
            const long double angle =
                static_cast<long double>(c.omega) * static_cast<long double>(i) +
                static_cast<long double>(c.phase);
            out.push_back(static_cast<double>(
                static_cast<long double>(c.amp) * std::cos(angle)));
          }
        }
        return out;
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("omega", c.omega);
        w.kv("phase", c.phase);
        w.kv("amp", c.amp);
        w.kv("n", static_cast<std::uint64_t>(c.n));
      },
      Tolerance::abs_only(5e-12), opts);
}

// ---------------------------------------------------------------------------
// Workspace-reusing transient vs allocating transient.
// ---------------------------------------------------------------------------

namespace {

struct PathCase {
  path::PathConfig cfg;
  std::size_t digital_record = 256;
  std::vector<dsp::Tone> rf_tones;
};

PathCase random_path_case(stats::Rng& rng) {
  PathCase c;
  c.cfg = random_path_config(rng);
  c.digital_record = std::size_t{1} << (8 + rng.uniform_int(3));  // 256..1024
  const double digital_fs = c.cfg.digital_fs();
  const std::size_t ntones = 1 + static_cast<std::size_t>(rng.uniform_int(2));
  for (std::size_t t = 0; t < ntones; ++t) {
    dsp::Tone tone;
    const double if_freq = dsp::coherent_frequency(
        digital_fs, c.digital_record, rng.uniform(0.05, 0.3) * digital_fs);
    tone.freq = c.cfg.lo.freq_hz + if_freq;
    tone.amplitude = rng.uniform(0.001, 0.008);
    tone.phase = 0.0;
    c.rf_tones.push_back(tone);
  }
  return c;
}

void describe_path_case(const PathCase& c, obs::json::Writer& w) {
  describe(c.cfg, w);
  w.kv("digital_record", static_cast<std::uint64_t>(c.digital_record));
  w.key("rf_tones").begin_array();
  for (const dsp::Tone& t : c.rf_tones) {
    w.begin_object();
    w.kv("freq", t.freq);
    w.kv("amplitude", t.amplitude);
    w.end_object();
  }
  w.end_array();
}

// RF stimulus of a PathCase (deterministic; both sides build the same one).
analog::Signal make_case_rf(const PathCase& c) {
  analog::Signal rf;
  rf.fs = c.cfg.analog_fs;
  rf.samples = dsp::generate_tones(c.rf_tones, 0.0, c.cfg.analog_fs,
                                   c.digital_record * c.cfg.adc_decimation);
  return rf;
}

// Flattens the observable outputs of one transient: ADC codes, the
// full-precision FIR output, its volts conversion and one point of the FIR
// response.
std::vector<double> flatten_outputs(const std::vector<std::int64_t>& adc_codes,
                                    const std::vector<std::int64_t>& filter_out,
                                    const std::vector<double>& volts,
                                    double fir_magnitude) {
  std::vector<double> out;
  out.reserve(adc_codes.size() + filter_out.size() + volts.size() + 1);
  for (std::int64_t v : adc_codes) out.push_back(static_cast<double>(v));
  for (std::int64_t v : filter_out) out.push_back(static_cast<double>(v));
  out.insert(out.end(), volts.begin(), volts.end());
  out.push_back(fir_magnitude);
  return out;
}

std::vector<double> flatten_trace(const path::PathGraph& g,
                                  const path::PathGraph::Trace& t,
                                  const std::vector<double>& volts) {
  return flatten_outputs(t.adc_codes, t.filter_out, volts,
                         g.fir_magnitude_at(0.1 * g.config().digital_fs()));
}

}  // namespace

Report check_path_workspace_vs_allocating_run(const RunOptions& opts) {
  using Case = PathCase;
  // One workspace shared across every case: steady-state reuse across
  // different record lengths and configs is exactly the contract under test.
  auto ws = std::make_shared<path::GraphWorkspace>();
  return differential<Case>(
      "path_workspace_vs_allocating_run",
      [](stats::Rng& rng) { return random_path_case(rng); },
      [ws](const Case& c, stats::Rng& rng) {
        const auto g = path::PathGraph::sampled(c.cfg, rng);
        const auto& trace = g.run(make_case_rf(c), rng, *ws);
        g.output_volts_into(trace, ws->volts);
        return flatten_trace(g, trace, ws->volts);
      },
      [](const Case& c, stats::Rng& rng) {
        const auto g = path::PathGraph::sampled(c.cfg, rng);
        const path::PathGraph::Trace trace = g.run(make_case_rf(c), rng);
        return flatten_trace(g, trace, g.output_volts(trace));
      },
      [](const Case& c, obs::json::Writer& w) { describe_path_case(c, w); },
      Tolerance::bit_identical(), opts);
}

// ---------------------------------------------------------------------------
// Generic path-graph walk vs an explicit Fig. 6 composition. The fast side
// samples and runs the canonical graph through PathGraph (the generic stage
// walker any topology uses). The golden side composes the paper's chain by
// hand from the flat PathConfig: each block sampled in the documented draw
// order (ADC, LPF, LO, mixer, amplifier), then amp → LO/mixer → LPF → ADC
// through the value-form block APIs, and the FIR as a stepwise
// digital::FirModel. Both draw from the same stream, so every output — ADC
// codes, full-precision FIR words, the volts conversion and the FIR
// response — must be bit-identical.
// ---------------------------------------------------------------------------

Report check_path_graph_vs_fig6_composition(const RunOptions& opts) {
  using Case = PathCase;
  return differential<Case>(
      "path_graph_vs_fig6_composition",
      [](stats::Rng& rng) { return random_path_case(rng); },
      [](const Case& c, stats::Rng& rng) {
        const auto g = path::PathGraph::sampled(c.cfg, rng);
        const path::PathGraph::Trace trace = g.run(make_case_rf(c), rng);
        return flatten_trace(g, trace, g.output_volts(trace));
      },
      [](const Case& c, stats::Rng& rng) {
        const path::PathConfig& cfg = c.cfg;
        const analog::Adc adc = analog::Adc::sampled(cfg.adc, rng);
        const analog::LowPassFilter lpf = analog::LowPassFilter::sampled(cfg.lpf, rng);
        const analog::LocalOscillator lo = analog::LocalOscillator::sampled(cfg.lo, rng);
        const analog::Mixer mixer = analog::Mixer::sampled(cfg.mixer, rng);
        const analog::Amplifier amp = analog::Amplifier::sampled(cfg.amp, rng);
        const std::vector<std::int32_t> coeffs = dsp::quantize_coefficients(
            dsp::design_lowpass(cfg.fir_taps, cfg.fir_cutoff_norm),
            cfg.fir_coeff_frac_bits);

        const analog::Signal rf = make_case_rf(c);
        const analog::Signal after_amp = amp.process(rf, rng);
        const analog::Signal lo_wave = lo.generate(rf.fs, rf.size(), rng);
        const analog::Signal after_mixer = mixer.process(after_amp, lo_wave, rng);
        const analog::Signal after_lpf = lpf.process(after_mixer);
        const std::vector<std::int64_t> codes =
            adc.digitize(after_lpf, cfg.adc_decimation);

        digital::FirModel fir(coeffs, adc.bits());
        std::vector<std::int64_t> filter_out;
        for (std::int64_t x : codes) filter_out.push_back(fir.step(x));
        const double scale =
            adc.lsb() / static_cast<double>(1 << cfg.fir_coeff_frac_bits);
        std::vector<double> volts;
        for (std::int64_t v : filter_out) volts.push_back(static_cast<double>(v) * scale);

        const double fs_d = cfg.digital_fs();
        return flatten_outputs(
            codes, filter_out, volts,
            std::abs(dsp::frequency_response_fixed(coeffs, cfg.fir_coeff_frac_bits,
                                                   0.1 * fs_d / fs_d)));
      },
      [](const Case& c, obs::json::Writer& w) { describe_path_case(c, w); },
      Tolerance::bit_identical(), opts);
}

// ---------------------------------------------------------------------------
// Parallel Monte-Carlo evaluation vs the serial path.
// ---------------------------------------------------------------------------

namespace {

struct McCase {
  SpecTriple triple;
  int trials = 1000;
};

std::vector<double> flatten_outcome(const stats::TestOutcome& o) {
  return {o.yield, o.defect_rate, o.accept_rate, o.yield_loss,
          o.fault_coverage_loss};
}

}  // namespace

Report check_parallel_mc_vs_serial(const RunOptions& opts) {
  using Case = McCase;
  SpecTripleOptions triple_opts;
  triple_opts.always_guard_banded = false;  // thresholds at and off the spec
  return differential<Case>(
      "parallel_mc_vs_serial",
      [triple_opts](stats::Rng& rng) {
        Case c;
        c.triple = random_spec_triple(rng, triple_opts);
        c.trials = 1000 + static_cast<int>(rng.uniform_int(39001));
        return c;
      },
      [](const Case& c, stats::Rng& rng) {
        return flatten_outcome(stats::evaluate_test_mc(
            c.triple.param, c.triple.spec, c.triple.threshold, c.triple.error,
            rng, c.trials, /*threads=*/4));
      },
      [](const Case& c, stats::Rng& rng) {
        return flatten_outcome(stats::evaluate_test_mc(
            c.triple.param, c.triple.spec, c.triple.threshold, c.triple.error,
            rng, c.trials, /*threads=*/1));
      },
      [](const Case& c, obs::json::Writer& w) {
        describe(c.triple, w);
        w.kv("trials", c.trials);
      },
      Tolerance::bit_identical(), opts);
}

// ---------------------------------------------------------------------------
// Analytic guard-banded evaluation vs Monte Carlo.
// ---------------------------------------------------------------------------

Report check_guard_band_analytic_vs_mc(const RunOptions& opts) {
  using Case = SpecTriple;
  SpecTripleOptions triple_opts;
  triple_opts.always_guard_banded = true;
  triple_opts.sharp_errors_only = true;
  // 1.2M trials put ~4.5 sigma of Monte-Carlo sampling error at ~8e-3 even
  // for the conditional losses (the faulty population is >= ~7 % of trials by
  // construction of the generator). An analytic integration grid that fails
  // to cut at the guard-banded threshold mis-assigns up to half a grid cell
  // of probability mass at the acceptance step — amplified by the conditional
  // denominators, that lands well outside this band, which is how the
  // harness catches the yield.cpp segmentation bug.
  constexpr int kGrid = 501;
  constexpr int kTrials = 1200000;
  return differential<Case>(
      "guard_band_analytic_vs_mc",
      [triple_opts](stats::Rng& rng) { return random_spec_triple(rng, triple_opts); },
      [](const Case& c, stats::Rng&) {
        const stats::TestOutcome o =
            stats::evaluate_test(c.param, c.spec, c.threshold, c.error, kGrid);
        return std::vector<double>{o.yield, o.accept_rate, o.yield_loss,
                                   o.fault_coverage_loss};
      },
      [](const Case& c, stats::Rng& rng) {
        const stats::TestOutcome o = stats::evaluate_test_mc(
            c.param, c.spec, c.threshold, c.error, rng, kTrials);
        return std::vector<double>{o.yield, o.accept_rate, o.yield_loss,
                                   o.fault_coverage_loss};
      },
      [](const Case& c, obs::json::Writer& w) { describe(c, w); },
      Tolerance::abs_only(8e-3), opts);
}

// ---------------------------------------------------------------------------
// SIMD backend vs forced-scalar pairs. Each reference closure re-runs the
// identical public API inside simd::ScopedIsa(kScalar); the fast side uses
// whatever backend the run dispatched to (see kernel_checks.h).
// ---------------------------------------------------------------------------

Report check_simd_window_vs_scalar(const RunOptions& opts) {
  using Case = RecordCase;
  return differential<Case>(
      "simd_window_vs_scalar",
      [](stats::Rng& rng) { return random_record(rng, /*min_log2=*/4, /*max_log2=*/12); },
      [](const Case& c, stats::Rng&) {
        const auto w = dsp::make_window(c.samples.size(), c.window);
        std::vector<double> out(c.samples.size());
        dsp::apply_window(c.samples.data(), w.data(), out.data(), out.size());
        return out;
      },
      [](const Case& c, stats::Rng&) {
        simd::ScopedIsa scalar(simd::Isa::kScalar);
        const auto w = dsp::make_window(c.samples.size(), c.window);
        std::vector<double> out(c.samples.size());
        dsp::apply_window(c.samples.data(), w.data(), out.data(), out.size());
        return out;
      },
      [](const Case& c, obs::json::Writer& w) { describe(c, w); },
      // Elementwise IEEE multiply: no contraction opportunity at any width.
      Tolerance::bit_identical(), opts);
}

Report check_simd_rfft_vs_scalar(const RunOptions& opts) {
  using Case = RecordCase;
  return differential<Case>(
      "simd_rfft_vs_scalar",
      [](stats::Rng& rng) { return random_record(rng, /*min_log2=*/4, /*max_log2=*/12); },
      [](const Case& c, stats::Rng&) {
        std::vector<double> out;
        const auto bins = dsp::rfft(c.samples);
        out.reserve(2 * bins.size());
        for (const auto& b : bins) push_complex(out, b);
        return out;
      },
      [](const Case& c, stats::Rng&) {
        simd::ScopedIsa scalar(simd::Isa::kScalar);
        std::vector<double> out;
        const auto bins = dsp::rfft(c.samples);
        out.reserve(2 * bins.size());
        for (const auto& b : bins) push_complex(out, b);
        return out;
      },
      [](const Case& c, obs::json::Writer& w) { describe(c, w); },
      // FMA contraction plus reassociated butterflies: a handful of ulps on
      // loaded bins, cancellation noise (absorbed by the abs bound) on empty
      // ones. Far tighter than the naive-DFT pair — same algorithm, same
      // twiddles, only the contraction pattern differs.
      Tolerance::abs_or_ulp(1e-9, 64), opts);
}

namespace {

struct BiquadCase {
  analog::LpfParams params;
  RecordCase rec;
};

}  // namespace

Report check_simd_biquad_vs_scalar(const RunOptions& opts) {
  using Case = BiquadCase;
  return differential<Case>(
      "simd_biquad_vs_scalar",
      [](stats::Rng& rng) {
        Case c;
        c.rec = random_record(rng, /*min_log2=*/8, /*max_log2=*/12);
        c.params.order = 2 * (1 + static_cast<int>(rng.uniform_int(3)));  // 2/4/6
        c.params.cutoff_hz =
            stats::Uncertain::exact(rng.uniform(0.05, 0.2) * c.rec.fs);
        c.params.clock_hz = 0.4 * c.rec.fs;
        return c;
      },
      [](const Case& c, stats::Rng& rng) {
        const auto f = analog::LowPassFilter::sampled(c.params, rng);
        analog::Signal in{c.rec.fs, c.rec.samples};
        return f.process(in).samples;
      },
      [](const Case& c, stats::Rng& rng) {
        simd::ScopedIsa scalar(simd::Isa::kScalar);
        const auto f = analog::LowPassFilter::sampled(c.params, rng);
        analog::Signal in{c.rec.fs, c.rec.samples};
        return f.process(in).samples;
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("order", c.params.order);
        w.kv("cutoff_hz", c.params.cutoff_hz.nominal);
        describe(c.rec, w);
      },
      // The vector feed-forward taps contract to FMA; the recurrence keeps
      // reference order. Unit-scale records stay within a few hundred ulps
      // even through a 6th-order cascade.
      Tolerance::abs_or_ulp(1e-10, 1e3), opts);
}

Report check_simd_add_cosine_vs_scalar(const RunOptions& opts) {
  struct Case {
    double omega = 0.0;
    double phase = 0.0;
    double amp = 1.0;
    std::size_t n = 0;
  };
  return differential<Case>(
      "simd_add_cosine_vs_scalar",
      [](stats::Rng& rng) {
        Case c;
        c.omega = rng.uniform(1e-4, 0.99 * kPi);
        c.phase = rng.uniform(0.0, kTwoPi);
        c.amp = rng.uniform(0.1, 2.0);
        c.n = std::size_t{1} << (10 + rng.uniform_int(5));  // 1k .. 16k
        return c;
      },
      [](const Case& c, stats::Rng&) {
        std::vector<double> out(c.n, 0.0);
        dsp::add_cosine(out.data(), c.n, c.omega, c.phase, c.amp);
        return out;
      },
      [](const Case& c, stats::Rng&) {
        simd::ScopedIsa scalar(simd::Isa::kScalar);
        std::vector<double> out(c.n, 0.0);
        dsp::add_cosine(out.data(), c.n, c.omega, c.phase, c.amp);
        return out;
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("omega", c.omega);
        w.kv("phase", c.phase);
        w.kv("amp", c.amp);
        w.kv("n", static_cast<std::uint64_t>(c.n));
      },
      // Every backend reseeds its phasors from the same double-double carrier
      // each kCosineResyncPeriod samples; between resyncs the lane recurrences
      // accumulate at most a couple of ulps relative to each other.
      Tolerance::abs_only(1e-12), opts);
}

namespace {

struct FaultSimCase {
  digital::Netlist nl;
  digital::Bus in;
  digital::Bus out;
  std::vector<std::int64_t> stimulus;
  std::vector<digital::Fault> faults;
};

// Random DAG of gates with a few DFFs, same shape as the randomized property
// tests (tests/test_random_circuits.cpp). Returns the net pool too.
FaultSimCase random_fault_sim_case(stats::Rng& rng,
                                   std::vector<digital::NetId>* nets = nullptr) {
  FaultSimCase c;
  const std::size_t inputs = 4 + rng.uniform_int(3);
  const std::size_t gates = 40 + rng.uniform_int(81);
  std::vector<digital::NetId> pool;
  for (std::size_t i = 0; i < inputs; ++i) {
    const digital::NetId n = c.nl.add_input("i" + std::to_string(i));
    c.in.bits.push_back(n);
    pool.push_back(n);
  }
  const digital::GateType kinds[] = {
      digital::GateType::kAnd, digital::GateType::kOr,  digital::GateType::kNand,
      digital::GateType::kNor, digital::GateType::kXor, digital::GateType::kXnor,
      digital::GateType::kNot, digital::GateType::kBuf};
  for (std::size_t g = 0; g < gates; ++g) {
    if (rng.uniform() < 0.12) {
      pool.push_back(c.nl.add_dff(pool[rng.uniform_int(pool.size())]));
      continue;
    }
    const digital::GateType t = kinds[rng.uniform_int(8)];
    const digital::NetId a = pool[rng.uniform_int(pool.size())];
    const digital::NetId b = pool[rng.uniform_int(pool.size())];
    pool.push_back(c.nl.add_gate(t, a, b));
  }
  for (std::size_t o = 0; o < 3; ++o) {
    const digital::NetId n = pool[pool.size() - 1 - o];
    c.nl.mark_output(n);
    c.out.bits.push_back(n);
  }
  const std::int64_t hi = 1ll << (inputs - 1);
  const std::size_t cycles = 24 + rng.uniform_int(41);
  for (std::size_t i = 0; i < cycles; ++i) {
    c.stimulus.push_back(static_cast<std::int64_t>(rng.uniform_int(2 * hi)) - hi);
  }
  c.faults = digital::collapsed_faults(c.nl);
  if (nets != nullptr) *nets = std::move(pool);
  return c;
}

// Detection verdicts (0/1) followed by the good-machine waveform, so both
// the exact-compare logic and the captured stream are pinned.
std::vector<double> flatten_fault_sim(const digital::FaultSimResult& r) {
  std::vector<double> out;
  out.reserve(r.detected.size() + r.good_waveform.size());
  for (const bool d : r.detected) out.push_back(d ? 1.0 : 0.0);
  for (const std::int64_t v : r.good_waveform) out.push_back(static_cast<double>(v));
  return out;
}

}  // namespace

Report check_simd_fault_sim_wide_vs_64(const RunOptions& opts) {
  using Case = FaultSimCase;
  return differential<Case>(
      "simd_fault_sim_wide_vs_64",
      [](stats::Rng& rng) { return random_fault_sim_case(rng); },
      [](const Case& c, stats::Rng&) {
        digital::FaultSimOptions fo;
        // The active backend's native width (8 words on AVX-512), not the
        // default batch width, so the widest kernel stays covered.
        fo.machine_words = simd::kernels().fault_words;
        fo.threads = 1;
        return flatten_fault_sim(
            digital::simulate_faults(c.nl, c.in, c.out, c.stimulus, c.faults, fo));
      },
      [](const Case& c, stats::Rng&) {
        digital::FaultSimOptions fo;
        fo.machine_words = 1;  // the classic 64-machine batches
        fo.threads = 1;
        return flatten_fault_sim(
            digital::simulate_faults(c.nl, c.in, c.out, c.stimulus, c.faults, fo));
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("nets", static_cast<std::uint64_t>(c.nl.num_nets()));
        w.kv("faults", static_cast<std::uint64_t>(c.faults.size()));
        w.kv("cycles", static_cast<std::uint64_t>(c.stimulus.size()));
        w.kv("inputs", static_cast<std::uint64_t>(c.in.bits.size()));
      },
      // Exact logic: any width disagreement is a real bug, never drift.
      Tolerance::bit_identical(), opts);
}

namespace {

// A random circuit observed through output buses of widths 1, 63, 64 (the
// sign-extension edges) and one random width, against a fault list whose
// length is never a multiple of 64, so the last machine group is partial.
struct CaptureCase {
  FaultSimCase sim;
  std::vector<digital::Bus> outs;
};

CaptureCase random_capture_case(stats::Rng& rng) {
  CaptureCase c;
  std::vector<digital::NetId> nets;
  c.sim = random_fault_sim_case(rng, &nets);
  for (const std::size_t width : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                                  2 + rng.uniform_int(61)}) {
    digital::Bus bus;
    for (std::size_t b = 0; b < width; ++b) {
      bus.bits.push_back(nets[rng.uniform_int(nets.size())]);
    }
    c.outs.push_back(std::move(bus));
  }
  // Sampled with replacement: up to a few 512-machine batches.
  const std::size_t count = 64 * rng.uniform_int(19) + 1 + rng.uniform_int(63);
  std::vector<digital::Fault> faults;
  for (std::size_t i = 0; i < count; ++i) {
    faults.push_back(c.sim.faults[rng.uniform_int(c.sim.faults.size())]);
  }
  c.sim.faults = std::move(faults);
  return c;
}

// Each sample as two exactly representable halves, so a 64-bit value
// survives the comparator's doubles bit for bit.
void push_sample(std::vector<double>& out, std::int64_t v) {
  out.push_back(static_cast<double>(static_cast<std::uint32_t>(v)));
  out.push_back(static_cast<double>(static_cast<std::int32_t>(v >> 32)));
}

}  // namespace

Report check_fault_sim_capture_vs_bus_value(const RunOptions& opts) {
  using Case = CaptureCase;
  return differential<Case>(
      "fault_sim_capture_vs_bus_value",
      [](stats::Rng& rng) { return random_capture_case(rng); },
      [](const Case& c, stats::Rng&) {
        std::vector<double> out;
        for (const digital::Bus& bus : c.outs) {
          std::vector<std::vector<std::int64_t>> streams(c.sim.faults.size());
          digital::FaultSimOptions fo;
          fo.machine_words = 0;  // active backend width
          fo.threads = 1;
          fo.on_waveform = [&](std::size_t i, std::span<const std::int64_t> w, bool) {
            streams[i].assign(w.begin(), w.end());
          };
          const auto r = digital::simulate_faults(c.sim.nl, c.sim.in, bus, c.sim.stimulus,
                                                  c.sim.faults, fo);
          for (const std::int64_t v : r.good_waveform) push_sample(out, v);
          for (const auto& s : streams) {
            for (const std::int64_t v : s) push_sample(out, v);
          }
        }
        return out;
      },
      [](const Case& c, stats::Rng&) {
        // One bus_value() per machine per cycle, on the same batch
        // partition as the fast side.
        const std::size_t words = static_cast<std::size_t>(simd::kernels().fault_words);
        const std::size_t per_batch = 64 * words - 1;
        std::vector<double> out;
        for (const digital::Bus& bus : c.outs) {
          std::vector<std::vector<std::int64_t>> streams(c.sim.faults.size());
          std::vector<std::int64_t> good;
          for (std::size_t base = 0; base < c.sim.faults.size(); base += per_batch) {
            const std::size_t batch = std::min(per_batch, c.sim.faults.size() - base);
            digital::ParallelSimulator sim(c.sim.nl, words);
            for (std::size_t i = 0; i < batch; ++i) {
              sim.inject(c.sim.faults[base + i], static_cast<int>(i + 1));
            }
            for (const std::int64_t x : c.sim.stimulus) {
              sim.set_bus(c.sim.in, x);
              sim.eval();
              if (base == 0) good.push_back(sim.bus_value(bus, 0));
              for (std::size_t i = 0; i < batch; ++i) {
                streams[base + i].push_back(sim.bus_value(bus, static_cast<int>(i + 1)));
              }
              sim.clock();
            }
          }
          for (const std::int64_t v : good) push_sample(out, v);
          for (const auto& s : streams) {
            for (const std::int64_t v : s) push_sample(out, v);
          }
        }
        return out;
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("nets", static_cast<std::uint64_t>(c.sim.nl.num_nets()));
        w.kv("faults", static_cast<std::uint64_t>(c.sim.faults.size()));
        w.kv("cycles", static_cast<std::uint64_t>(c.sim.stimulus.size()));
        w.kv("random_width", static_cast<std::uint64_t>(c.outs.back().width()));
        w.kv("fault_words", static_cast<std::uint64_t>(simd::kernels().fault_words));
      },
      // Exact logic on both sides: any difference is a decoding bug.
      Tolerance::bit_identical(), opts);
}

// ---------------------------------------------------------------------------
// Cone-restricted fault batches vs the full sweep. The fast side is
// simulate_faults itself: faults ordered by fan-out cone, each batch
// simulating only the union of its cones over the recorded good trace. The
// golden side is the same ParallelSimulator with the whole netlist live, on
// the contiguous, unsorted batch partition, read out with one bus_value()
// per machine per cycle and an explicit per-machine exact compare.
// ---------------------------------------------------------------------------

namespace {

// A random sequential circuit whose DFFs partly read nets declared after
// them (feedback through state), with constant-fed gates and an unused
// input on the output bus, against faults that include every input, DFF Q
// and constant site. Half the cases keep only a handful of faults, so most
// output bits lie outside every cone.
FaultSimCase random_cone_case(stats::Rng& rng) {
  std::vector<digital::NetId> nets;
  FaultSimCase c = random_fault_sim_case(rng, &nets);
  digital::Netlist& nl = c.nl;
  for (const digital::NetId q : std::vector<digital::NetId>(nl.dffs())) {
    if (rng.uniform() < 0.6) {
      nl.set_dff_input(q, q + static_cast<digital::NetId>(rng.uniform_int(nl.num_nets() - q)));
    }
  }
  const digital::NetId c0 = nl.add_const(false);
  const digital::NetId c1 = nl.add_const(true);
  const digital::NetId unused = nl.add_input("unused");
  const digital::NetId g0 = nl.add_gate(digital::GateType::kOr, c0, nets[rng.uniform_int(nets.size())]);
  const digital::NetId g1 = nl.add_gate(digital::GateType::kXor, c1, nets[rng.uniform_int(nets.size())]);
  for (const digital::NetId o : {g0, g1, unused, c.in.bits[0]}) c.out.bits.push_back(o);
  if (!nl.dffs().empty()) c.out.bits.push_back(nl.dffs()[rng.uniform_int(nl.dffs().size())]);

  std::vector<digital::Fault> pool = digital::collapsed_faults(nl);
  for (const digital::NetId n : {c0, c1}) {
    pool.push_back({n, false});
    pool.push_back({n, true});
  }
  for (const digital::NetId n : nl.inputs()) {
    if (n == unused) continue;
    pool.push_back({n, false});
    pool.push_back({n, true});
  }
  for (const digital::NetId n : nl.dffs()) {
    pool.push_back({n, false});
    pool.push_back({n, true});
  }
  std::erase_if(pool, [&](const digital::Fault& f) { return f.net == unused; });
  // Sampled with replacement: a handful, or up to a few 512-machine batches.
  const std::size_t count = rng.uniform() < 0.5
                                ? 1 + rng.uniform_int(6)
                                : 64 * rng.uniform_int(19) + 1 + rng.uniform_int(63);
  c.faults.clear();
  for (std::size_t i = 0; i < count; ++i) {
    c.faults.push_back(pool[rng.uniform_int(pool.size())]);
  }
  return c;
}

constexpr std::size_t kConeWidths[] = {1, 4, 8};

}  // namespace

Report check_fault_sim_cone_vs_full_sweep(const RunOptions& opts) {
  using Case = FaultSimCase;
  return differential<Case>(
      "fault_sim_cone_vs_full_sweep",
      [](stats::Rng& rng) { return random_cone_case(rng); },
      [](const Case& c, stats::Rng&) {
        std::vector<double> out;
        for (const std::size_t words : kConeWidths) {
          std::vector<std::vector<std::int64_t>> streams(c.faults.size());
          digital::FaultSimOptions fo;
          fo.machine_words = static_cast<int>(words);
          fo.threads = 1;
          fo.on_waveform = [&](std::size_t i, std::span<const std::int64_t> w, bool) {
            streams[i].assign(w.begin(), w.end());
          };
          const auto r = digital::simulate_faults(c.nl, c.in, c.out, c.stimulus, c.faults, fo);
          for (const bool d : r.detected) out.push_back(d ? 1.0 : 0.0);
          for (const std::int64_t v : r.good_waveform) push_sample(out, v);
          for (const auto& s : streams) {
            for (const std::int64_t v : s) push_sample(out, v);
          }
        }
        return out;
      },
      [](const Case& c, stats::Rng&) {
        std::vector<double> out;
        for (const std::size_t words : kConeWidths) {
          const std::size_t per_batch = 64 * words - 1;
          std::vector<std::vector<std::int64_t>> streams(c.faults.size());
          std::vector<std::int64_t> good;
          std::vector<double> detected(c.faults.size(), 0.0);
          for (std::size_t base = 0; base < c.faults.size(); base += per_batch) {
            const std::size_t batch = std::min(per_batch, c.faults.size() - base);
            digital::ParallelSimulator sim(c.nl, words);  // whole netlist live
            for (std::size_t i = 0; i < batch; ++i) {
              sim.inject(c.faults[base + i], static_cast<int>(i + 1));
            }
            for (const std::int64_t x : c.stimulus) {
              sim.set_bus(c.in, x);
              sim.eval();
              if (base == 0) good.push_back(sim.bus_value(c.out, 0));
              for (std::size_t i = 0; i < batch; ++i) {
                const int m = static_cast<int>(i + 1);
                streams[base + i].push_back(sim.bus_value(c.out, m));
                for (const digital::NetId b : c.out.bits) {
                  if (sim.value_in_machine(b, m) != sim.value_in_machine(b, 0)) {
                    detected[base + i] = 1.0;
                  }
                }
              }
              sim.clock();
            }
          }
          out.insert(out.end(), detected.begin(), detected.end());
          for (const std::int64_t v : good) push_sample(out, v);
          for (const auto& s : streams) {
            for (const std::int64_t v : s) push_sample(out, v);
          }
        }
        return out;
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("nets", static_cast<std::uint64_t>(c.nl.num_nets()));
        w.kv("dffs", static_cast<std::uint64_t>(c.nl.dffs().size()));
        w.kv("faults", static_cast<std::uint64_t>(c.faults.size()));
        w.kv("cycles", static_cast<std::uint64_t>(c.stimulus.size()));
        w.kv("outputs", static_cast<std::uint64_t>(c.out.width()));
      },
      // Exact logic on both sides: any difference is a cone or trace bug.
      Tolerance::bit_identical(), opts);
}

// ---------------------------------------------------------------------------
// Fault simulation vs a serial eval_gate model. The fast side is
// simulate_faults at 1, 4 and 8 words: cone-restricted batches, unfaulted
// BUFs aliased to their roots, masks at fault sites only. The golden side
// simulates one machine per fault, stepping Netlist::topo_order with
// digital::eval_gate and overriding the fault net after each evaluation —
// no SimOps, no masks, no aliasing, no cones — so a bug shared by every
// ParallelSimulator configuration cannot sit on both sides.
// ---------------------------------------------------------------------------

namespace {

// A random sequential circuit with DFF feedback, BUF chains of depth 2..4
// (some with a second reader mid-chain) and constant-fed gates, passed
// through with_explicit_branches. Faults sit on BUFs inside chains, on chain
// roots, on inputs, DFF Q pins and constants, or anywhere in the collapsed
// universe; the output bus also carries an unfaulted BUF of an undriven
// input, outside every cone.
struct BranchedCase {
  FaultSimCase sim;
  std::size_t buf_chains = 0;
};

BranchedCase random_branched_case(stats::Rng& rng) {
  std::vector<digital::NetId> nets;
  FaultSimCase base = random_fault_sim_case(rng, &nets);
  digital::Netlist& nl = base.nl;
  using digital::GateType;
  for (const digital::NetId q : std::vector<digital::NetId>(nl.dffs())) {
    if (rng.uniform() < 0.5) {
      nl.set_dff_input(q, q + static_cast<digital::NetId>(rng.uniform_int(nl.num_nets() - q)));
    }
  }
  auto any = [&] { return nets[rng.uniform_int(nets.size())]; };
  const GateType kinds[] = {GateType::kAnd, GateType::kXor, GateType::kNor, GateType::kXnor};
  const std::size_t chains = 2 + rng.uniform_int(3);
  for (std::size_t k = 0; k < chains; ++k) {
    digital::NetId end = any();
    std::vector<digital::NetId> chain;
    for (std::size_t d = 0, depth = 2 + rng.uniform_int(3); d < depth; ++d) {
      end = nl.add_gate(GateType::kBuf, end);
      chain.push_back(end);
    }
    const digital::NetId reader = nl.add_gate(kinds[rng.uniform_int(4)], end, any());
    nl.mark_output(reader);
    nets.push_back(reader);
    if (rng.uniform() < 0.5) {
      const digital::NetId mid = chain[rng.uniform_int(chain.size() - 1)];
      nets.push_back(nl.add_gate(kinds[rng.uniform_int(4)], mid, any()));
    }
  }
  nl.mark_output(nl.add_gate(GateType::kOr, nl.add_const(false), any()));
  nl.mark_output(nl.add_gate(GateType::kXor, nl.add_const(true), any()));
  if (!nl.dffs().empty()) nl.mark_output(nl.dffs()[rng.uniform_int(nl.dffs().size())]);
  const digital::NetId quiet = nl.add_input("quiet");  // never driven, never faulted
  nl.mark_output(nl.add_gate(GateType::kBuf, quiet));

  BranchedCase c;
  c.sim.nl = nl.with_explicit_branches();
  const digital::Netlist& bn = c.sim.nl;
  // Inputs keep their order through the transform; `quiet` is the last.
  c.sim.in.bits.assign(bn.inputs().begin(), bn.inputs().begin() +
                                                static_cast<std::ptrdiff_t>(base.in.width()));
  c.sim.out.bits = bn.outputs();
  c.sim.stimulus = base.stimulus;
  const digital::NetId bquiet = bn.inputs().back();

  // Fault site classes on the branched netlist.
  std::vector<digital::NetId> chain_bufs, chain_roots, sources;
  for (digital::NetId id = 0; id < bn.num_nets(); ++id) {
    const digital::Gate& g = bn.gate(id);
    if (g.type == GateType::kBuf && bn.gate(g.fanin0).type == GateType::kBuf) {
      chain_bufs.push_back(id);
      digital::NetId r = g.fanin0;
      while (bn.gate(r).type == GateType::kBuf) r = bn.gate(r).fanin0;
      if (r != bquiet) chain_roots.push_back(r);
    }
    const bool source = g.type == GateType::kInput || g.type == GateType::kDff ||
                        g.type == GateType::kConst0 || g.type == GateType::kConst1;
    if (source && id != bquiet) sources.push_back(id);
  }
  std::vector<digital::Fault> collapsed = digital::collapsed_faults(bn);
  std::erase_if(collapsed, [&](const digital::Fault& f) {
    return f.net == bquiet ||
           (bn.gate(f.net).type == GateType::kBuf && bn.gate(f.net).fanin0 == bquiet);
  });
  const std::vector<const std::vector<digital::NetId>*> classes = {&chain_bufs, &chain_roots,
                                                                   &sources};
  const std::size_t count = rng.uniform() < 0.5
                                ? 1 + rng.uniform_int(6)
                                : 64 * rng.uniform_int(10) + 1 + rng.uniform_int(63);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t k = rng.uniform_int(classes.size() + 1);
    if (k == classes.size() || classes[k]->empty()) {
      c.sim.faults.push_back(collapsed[rng.uniform_int(collapsed.size())]);
    } else {
      const std::vector<digital::NetId>& pool = *classes[k];
      c.sim.faults.push_back({pool[rng.uniform_int(pool.size())], rng.uniform() < 0.5});
    }
  }
  c.buf_chains = chains;
  return c;
}

// The output stream of one machine: every net's value an all-0 / all-1
// word, stepped through the topological order with eval_gate; `fault` (if
// any) overrides its net after each evaluation.
std::vector<std::int64_t> run_serial_machine(const digital::Netlist& nl,
                                             const std::vector<digital::NetId>& topo,
                                             const FaultSimCase& c,
                                             const digital::Fault* fault) {
  std::vector<std::uint64_t> value(nl.num_nets(), 0);
  std::vector<std::uint64_t> state(nl.num_nets(), 0);
  std::vector<std::uint64_t> drive(nl.num_nets(), 0);  // undriven inputs stay 0
  std::vector<std::int64_t> stream;
  for (const std::int64_t x : c.stimulus) {
    for (std::size_t i = 0; i < c.in.width(); ++i) {
      drive[c.in.bits[i]] = ((x >> i) & 1) != 0 ? ~0ull : 0ull;
    }
    for (const digital::NetId id : topo) {
      const digital::Gate& g = nl.gate(id);
      std::uint64_t v = 0;
      switch (g.type) {
        case digital::GateType::kInput: v = drive[id]; break;
        case digital::GateType::kDff: v = state[id]; break;
        default:
          v = digital::eval_gate(g.type, value[g.fanin0],
                                 digital::arity(g.type) == 2 ? value[g.fanin1] : 0);
      }
      if (fault != nullptr && fault->net == id) v = fault->stuck_at_one ? ~0ull : 0ull;
      value[id] = v;
    }
    std::uint64_t raw = 0;
    for (std::size_t b = 0; b < c.out.width(); ++b) {
      raw |= (value[c.out.bits[b]] & 1ull) << b;
    }
    const std::size_t w = c.out.width();
    if (w < 64 && ((raw >> (w - 1)) & 1ull)) raw |= ~0ull << w;
    stream.push_back(static_cast<std::int64_t>(raw));
    for (const digital::NetId q : nl.dffs()) state[q] = value[nl.gate(q).fanin0];
  }
  return stream;
}

}  // namespace

Report check_fault_sim_vs_serial_eval_gate(const RunOptions& opts) {
  using Case = BranchedCase;
  return differential<Case>(
      "fault_sim_vs_serial_eval_gate",
      [](stats::Rng& rng) { return random_branched_case(rng); },
      [](const Case& c, stats::Rng&) {
        std::vector<double> out;
        for (const std::size_t words : kConeWidths) {
          std::vector<std::vector<std::int64_t>> streams(c.sim.faults.size());
          digital::FaultSimOptions fo;
          fo.machine_words = static_cast<int>(words);
          fo.threads = 1;
          fo.on_waveform = [&](std::size_t i, std::span<const std::int64_t> w, bool) {
            streams[i].assign(w.begin(), w.end());
          };
          const auto r = digital::simulate_faults(c.sim.nl, c.sim.in, c.sim.out,
                                                  c.sim.stimulus, c.sim.faults, fo);
          for (const bool d : r.detected) out.push_back(d ? 1.0 : 0.0);
          for (const std::int64_t v : r.good_waveform) push_sample(out, v);
          for (const auto& s : streams) {
            for (const std::int64_t v : s) push_sample(out, v);
          }
        }
        return out;
      },
      [](const Case& c, stats::Rng&) {
        const std::vector<digital::NetId> topo = c.sim.nl.topo_order();
        const std::vector<std::int64_t> good =
            run_serial_machine(c.sim.nl, topo, c.sim, nullptr);
        std::vector<std::vector<std::int64_t>> streams;
        for (const digital::Fault& f : c.sim.faults) {
          streams.push_back(run_serial_machine(c.sim.nl, topo, c.sim, &f));
        }
        std::vector<double> one;
        for (const auto& s : streams) one.push_back(s != good ? 1.0 : 0.0);
        for (const std::int64_t v : good) push_sample(one, v);
        for (const auto& s : streams) {
          for (const std::int64_t v : s) push_sample(one, v);
        }
        std::vector<double> out;
        for (std::size_t k = 0; k < std::size(kConeWidths); ++k) {
          out.insert(out.end(), one.begin(), one.end());
        }
        return out;
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("nets", static_cast<std::uint64_t>(c.sim.nl.num_nets()));
        w.kv("dffs", static_cast<std::uint64_t>(c.sim.nl.dffs().size()));
        w.kv("buf_chains", static_cast<std::uint64_t>(c.buf_chains));
        w.kv("faults", static_cast<std::uint64_t>(c.sim.faults.size()));
        w.kv("cycles", static_cast<std::uint64_t>(c.sim.stimulus.size()));
        w.kv("outputs", static_cast<std::uint64_t>(c.sim.out.width()));
      },
      // Exact logic on both sides: any difference is a simulator bug.
      Tolerance::bit_identical(), opts);
}

// ---------------------------------------------------------------------------
// Block Gaussian noise vs per-sample draws. The fast side draws through
// Rng::fill_normal and the block noise stages (amplifier, LO phase walk,
// mixer, the ADC's DNL walk over the shared INL bow); the golden side is the
// per-sample formulation: one normal() per deviate, the stage arithmetic
// spelled out, and a per-code std::sin for the bow.
// ---------------------------------------------------------------------------

namespace {

struct NoiseCase {
  std::size_t fill_n = 0;  ///< Deviates for the bare fill_normal call.
  bool precached = false;  ///< Enter fill_normal with a cached partner.
  double fs = 32.0e6;
  std::vector<double> rf;  ///< Amplifier / mixer input block.
  analog::AmpParams amp;
  analog::MixerParams mixer;
  analog::LoParams lo;
  analog::AdcParams adc;
};

NoiseCase random_noise_case(stats::Rng& rng) {
  constexpr std::size_t kBlock = stats::Rng::kNormalBlock;
  NoiseCase c;
  const std::size_t edges[] = {0,          1,          2 * rng.uniform_int(200) + 1,
                               kBlock - 1, kBlock,     kBlock + 1,
                               rng.uniform_int(4 * kBlock)};
  c.fill_n = edges[rng.uniform_int(std::size(edges))];
  c.precached = rng.uniform() < 0.5;
  c.rf.resize(rng.uniform_int(3 * kBlock + 2));
  for (double& x : c.rf) x = rng.uniform(-0.01, 0.01);
  c.amp.gain_db = stats::Uncertain::from_tolerance(rng.uniform(5.0, 20.0), 1.0);
  c.amp.nf_db = stats::Uncertain::from_tolerance(rng.uniform(1.0, 12.0), 0.5);
  c.amp.iip2_dbm = stats::Uncertain::from_tolerance(rng.uniform(20.0, 50.0), 3.0);
  c.mixer.nf_db = stats::Uncertain::from_tolerance(rng.uniform(4.0, 15.0), 1.0);
  c.mixer.lo_isolation_db = stats::Uncertain::from_tolerance(rng.uniform(20.0, 60.0), 4.0);
  c.lo.freq_hz = rng.uniform(1.0e6, 15.0e6);
  // Strictly positive: a jitter-free LO draws no noise on either side.
  const double walk = rng.uniform(1e-4, 5e-3);
  c.lo.phase_noise_rad = stats::Uncertain::from_tolerance(walk, 0.5 * walk);
  c.adc.bits = 4 + static_cast<int>(rng.uniform_int(11));  // 4..14
  c.adc.inl_peak_lsb = stats::Uncertain::from_tolerance(rng.uniform(-1.0, 1.0), 0.3);
  c.adc.dnl_sigma_lsb = stats::Uncertain::from_tolerance(rng.uniform(0.05, 0.5), 0.05);
  return c;
}

// Position inside code c's cell, so inl_at(position) reads code c.
double code_position(std::size_t c, std::size_t codes) {
  return -1.0 + static_cast<double>(2 * c + 1) / static_cast<double>(codes - 1);
}

}  // namespace

Report check_noise_blocks_vs_per_sample_draws(const RunOptions& opts) {
  using Case = NoiseCase;
  return differential<Case>(
      "noise_blocks_vs_per_sample_draws",
      [](stats::Rng& rng) { return random_noise_case(rng); },
      [](const Case& c, stats::Rng& rng) {
        std::vector<double> out;
        if (c.precached) rng.normal();  // leaves the partner deviate cached
        out.resize(c.fill_n);
        rng.fill_normal(out.data(), c.fill_n);
        out.push_back(rng.normal());
        push_sample(out, static_cast<std::int64_t>(rng.next_u64()));

        const analog::Signal in{c.fs, c.rf};
        analog::Signal amp_out, lo_wave, mixer_out;
        analog::Amplifier::sampled(c.amp, rng).process_into(in, rng, amp_out);
        analog::LocalOscillator::sampled(c.lo, rng)
            .generate_into(c.fs, c.rf.size(), rng, lo_wave);
        analog::Mixer::sampled(c.mixer, rng).process_into(in, lo_wave, rng, mixer_out);
        for (const analog::Signal* s : {&amp_out, &lo_wave, &mixer_out}) {
          out.insert(out.end(), s->samples.begin(), s->samples.end());
        }

        const analog::Adc adc = analog::Adc::sampled(c.adc, rng);
        const std::size_t codes = std::size_t{1} << adc.bits();
        for (std::size_t k = 0; k < codes; ++k) {
          out.push_back(adc.inl_at(code_position(k, codes)));
        }
        return out;
      },
      [](const Case& c, stats::Rng& rng) {
        std::vector<double> out;
        if (c.precached) rng.normal();
        for (std::size_t i = 0; i < c.fill_n; ++i) out.push_back(rng.normal());
        out.push_back(rng.normal());
        push_sample(out, static_cast<std::int64_t>(rng.next_u64()));

        const std::size_t n = c.rf.size();
        const analog::Amplifier amp = analog::Amplifier::sampled(c.amp, rng);
        {
          const double a1 = amplitude_ratio_from_db(amp.actual_gain_db());
          const double c3 = analog::c3_from_iip3(vpeak_from_dbm(amp.actual_iip3_dbm()));
          const double c2 = analog::c2_from_iip2(vpeak_from_dbm(amp.actual_iip2_dbm()));
          const double vsat =
              analog::vsat_from_p1db(vpeak_from_dbm(amp.actual_p1db_in_dbm()), a1);
          const double sigma = analog::noise_vrms_from_nf(amp.actual_nf_db(), c.fs);
          for (std::size_t i = 0; i < n; ++i) {
            const double xn = c.rf[i] + sigma * rng.normal();
            out.push_back(analog::apply_nonlinearity(xn, a1, c2, c3, vsat) +
                          amp.actual_dc_offset_v());
          }
        }

        const analog::LocalOscillator lo = analog::LocalOscillator::sampled(c.lo, rng);
        std::vector<double> lo_wave;
        {
          dsp::PhasorOscillator osc(kTwoPi * lo.actual_freq_hz() / c.fs, 0.0);
          for (std::size_t i = 0; i < n; ++i) {
            lo_wave.push_back(lo.amplitude() *
                              osc.jitter_cos_next(lo.actual_phase_noise_rad() *
                                                  rng.normal()));
          }
          out.insert(out.end(), lo_wave.begin(), lo_wave.end());
        }

        const analog::Mixer mixer = analog::Mixer::sampled(c.mixer, rng);
        {
          const double g = amplitude_ratio_from_db(mixer.actual_conv_gain_db());
          const double a1 = 2.0 * g;
          const double c3 =
              analog::c3_from_iip3(vpeak_from_dbm(mixer.actual_iip3_dbm()));
          const double vsat =
              2.0 * analog::vsat_from_p1db(vpeak_from_dbm(mixer.actual_p1db_in_dbm()), g);
          const double leak = amplitude_ratio_from_db(-mixer.actual_lo_isolation_db());
          const double sigma = analog::noise_vrms_from_nf(mixer.actual_nf_db(), c.fs);
          for (std::size_t i = 0; i < n; ++i) {
            const double x = c.rf[i] + sigma * rng.normal();
            const double distorted = analog::apply_nonlinearity(x, a1, 0.0, c3, vsat);
            out.push_back(distorted * lo_wave[i] + leak * lo_wave[i]);
          }
        }

        // Adc::sampled's documented draw order: pattern seed, DNL sigma, INL
        // peak (gain and offset error follow; the INL table needs neither).
        const std::uint64_t pattern_seed = rng.next_u64();
        const double dnl_sigma = std::abs(stats::sample(c.adc.dnl_sigma_lsb, rng));
        const double inl_peak = stats::sample(c.adc.inl_peak_lsb, rng);
        const std::size_t codes = std::size_t{1} << c.adc.bits;
        std::vector<double> table(codes);
        stats::Rng pattern_rng(pattern_seed);
        double walk = 0.0;
        for (std::size_t k = 0; k < codes; ++k) {
          const double u =
              2.0 * static_cast<double>(k) / static_cast<double>(codes - 1) - 1.0;
          walk += dnl_sigma * pattern_rng.normal() / std::sqrt(static_cast<double>(codes));
          table[k] = inl_peak * std::sin(kPi * u) + walk;
        }
        double mean = 0.0;
        for (const double v : table) mean += v;
        mean /= static_cast<double>(codes);
        for (const double v : table) out.push_back(v - mean);
        return out;
      },
      [](const Case& c, obs::json::Writer& w) {
        w.kv("fill_n", static_cast<std::uint64_t>(c.fill_n));
        w.kv("precached", c.precached);
        w.kv("block_n", static_cast<std::uint64_t>(c.rf.size()));
        w.kv("amp_nf_db", c.amp.nf_db.nominal);
        w.kv("mixer_nf_db", c.mixer.nf_db.nominal);
        w.kv("lo_freq_hz", c.lo.freq_hz);
        w.kv("lo_phase_noise_rad", c.lo.phase_noise_rad.nominal);
        w.kv("adc_bits", c.adc.bits);
      },
      // Same deviates, same arithmetic: any difference is a draw-order or
      // transform bug.
      Tolerance::bit_identical(), opts);
}

std::vector<Report> run_all_kernel_checks(const RunOptions& opts) {
  return {
      check_fft_plan_vs_naive_dft(opts),
      check_goertzel_vs_direct_correlation(opts),
      check_oscillator_vs_libm_trig(opts),
      check_path_workspace_vs_allocating_run(opts),
      check_path_graph_vs_fig6_composition(opts),
      check_parallel_mc_vs_serial(opts),
      check_guard_band_analytic_vs_mc(opts),
      check_simd_window_vs_scalar(opts),
      check_simd_rfft_vs_scalar(opts),
      check_simd_biquad_vs_scalar(opts),
      check_simd_add_cosine_vs_scalar(opts),
      check_simd_fault_sim_wide_vs_64(opts),
      check_fault_sim_capture_vs_bus_value(opts),
      check_noise_blocks_vs_per_sample_draws(opts),
      check_fault_sim_cone_vs_full_sweep(opts),
      check_fault_sim_vs_serial_eval_gate(opts),
  };
}

}  // namespace msts::check
