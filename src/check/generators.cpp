#include "check/generators.h"

#include <algorithm>
#include <cstdint>

#include "base/units.h"
#include "stats/uncertain.h"

namespace msts::check {

path::PathConfig random_path_config(stats::Rng& rng) {
  path::PathConfig c = path::reference_path_config();
  static constexpr std::size_t kDecim[] = {4, 8, 16};
  c.adc_decimation = kDecim[rng.uniform_int(3)];
  c.fir_taps = 9 + 2 * static_cast<std::size_t>(rng.uniform_int(7));  // odd, 9..21
  c.fir_cutoff_norm = rng.uniform(0.2, 0.35);
  c.fir_coeff_frac_bits = 8 + static_cast<int>(rng.uniform_int(5));   // 8..12
  c.amp.gain_db = stats::Uncertain::from_tolerance(rng.uniform(10.0, 18.0), 1.0);
  c.mixer.conv_gain_db =
      stats::Uncertain::from_tolerance(rng.uniform(8.0, 12.0), 1.0);
  c.lo.freq_hz = rng.uniform(8.0e6, 11.0e6);
  c.lpf.cutoff_hz =
      stats::Uncertain::from_tolerance(rng.uniform(0.8e6, 1.2e6), 5.0e4);
  c.lpf.order = 2 * (1 + static_cast<int>(rng.uniform_int(3)));  // 2, 4, 6
  c.adc.bits = 10 + static_cast<int>(rng.uniform_int(5));        // 10..14
  return c;
}

void describe(const path::PathGraphConfig& g, obs::json::Writer& w) {
  w.kv("analog_fs", g.analog_fs);
  w.key("blocks").begin_array();
  for (const path::BlockConfig& b : g.blocks) {
    w.begin_object().kv("kind", path::to_string(b.kind));
    switch (b.kind) {
      case path::BlockKind::kAmp: w.kv("gain_db", b.amp.gain_db.nominal); break;
      case path::BlockKind::kMixer:
        w.kv("conv_gain_db", b.mixer.conv_gain_db.nominal).kv("lo_freq_hz", b.lo.freq_hz);
        break;
      case path::BlockKind::kLpf:
        w.kv("cutoff_hz", b.lpf.cutoff_hz.nominal).kv("order", b.lpf.order);
        break;
      case path::BlockKind::kAdc:
        w.kv("bits", b.adc.bits).kv("decimation", std::uint64_t{b.adc_decimation});
        break;
      case path::BlockKind::kFir:
        w.kv("taps", std::uint64_t{b.fir_taps}).kv("cutoff_norm", b.fir_cutoff_norm);
        w.kv("coeff_frac_bits", b.fir_coeff_frac_bits);
        break;
    }
    w.end_object();
  }
  w.end_array();
}

RecordCase random_record(stats::Rng& rng, std::size_t min_log2,
                         std::size_t max_log2) {
  RecordCase c;
  const std::size_t log2n =
      min_log2 + static_cast<std::size_t>(rng.uniform_int(max_log2 - min_log2 + 1));
  const std::size_t n = std::size_t{1} << log2n;
  c.fs = rng.uniform(1.0e6, 8.0e6);
  static constexpr dsp::WindowType kWindows[] = {
      dsp::WindowType::kRectangular,     dsp::WindowType::kHann,
      dsp::WindowType::kHamming,         dsp::WindowType::kBlackman,
      dsp::WindowType::kBlackmanHarris4, dsp::WindowType::kFlatTop,
  };
  c.window = kWindows[rng.uniform_int(6)];
  const std::size_t ntones = 1 + static_cast<std::size_t>(rng.uniform_int(4));
  for (std::size_t t = 0; t < ntones; ++t) {
    dsp::Tone tone;
    tone.freq = dsp::coherent_frequency(c.fs, n, rng.uniform(0.02, 0.45) * c.fs);
    tone.amplitude = rng.uniform(0.05, 1.5);
    tone.phase = rng.uniform(0.0, kTwoPi);
    c.tones.push_back(tone);
  }
  c.noise_sigma = (rng.uniform() < 0.5) ? 0.0 : rng.uniform(1e-5, 1e-2);
  c.samples = dsp::generate_tones(c.tones, 0.0, c.fs, n);
  if (c.noise_sigma > 0.0) {
    for (double& v : c.samples) v += rng.normal(0.0, c.noise_sigma);
  }
  return c;
}

void describe(const RecordCase& c, obs::json::Writer& w) {
  w.kv("n", static_cast<std::uint64_t>(c.samples.size()));
  w.kv("fs", c.fs);
  w.kv("window", dsp::to_string(c.window));
  w.kv("noise_sigma", c.noise_sigma);
  w.key("tones").begin_array();
  for (const dsp::Tone& t : c.tones) {
    w.begin_object();
    w.kv("freq", t.freq);
    w.kv("amplitude", t.amplitude);
    w.kv("phase", t.phase);
    w.end_object();
  }
  w.end_array();
}

namespace {

const char* to_string(stats::SpecSide side) {
  switch (side) {
    case stats::SpecSide::kLowerBound: return "lower_bound";
    case stats::SpecSide::kUpperBound: return "upper_bound";
    case stats::SpecSide::kTwoSided: return "two_sided";
  }
  return "?";
}

const char* to_string(stats::ErrorModel::Kind kind) {
  switch (kind) {
    case stats::ErrorModel::Kind::kNone: return "none";
    case stats::ErrorModel::Kind::kUniform: return "uniform";
    case stats::ErrorModel::Kind::kGaussian: return "gaussian";
  }
  return "?";
}

}  // namespace

SpecTriple random_spec_triple(stats::Rng& rng, const SpecTripleOptions& opts) {
  SpecTriple t;
  t.param.mean = rng.uniform(-5.0, 5.0);
  t.param.sigma = rng.uniform(0.5, 2.0);
  const double s = t.param.sigma;
  double half = 0.0;
  switch (rng.uniform_int(3)) {
    case 0:
      t.spec = stats::SpecLimits::at_least(t.param.mean + rng.uniform(-1.5, 0.8) * s);
      break;
    case 1:
      t.spec = stats::SpecLimits::at_most(t.param.mean + rng.uniform(-0.8, 1.5) * s);
      break;
    default: {
      half = rng.uniform(0.8, 2.0) * s;
      const double center = t.param.mean + rng.uniform(-0.5, 0.5) * s;
      t.spec = stats::SpecLimits::window(center - half, center + half);
      break;
    }
  }
  const double u = rng.uniform();
  if (opts.sharp_errors_only) {
    // A zero or near-zero error keeps the acceptance indicator a (near-)step
    // at the threshold — the configuration most sensitive to integration-grid
    // placement.
    t.error = (u < 0.5) ? stats::ErrorModel::none()
                        : stats::ErrorModel::uniform(rng.uniform(0.01, 0.05) * s);
  } else if (u < 1.0 / 3.0) {
    t.error = stats::ErrorModel::none();
  } else if (u < 2.0 / 3.0) {
    t.error = stats::ErrorModel::uniform(rng.uniform(0.05, 0.3) * s);
  } else {
    t.error = stats::ErrorModel::gaussian(rng.uniform(0.05, 0.3) * s);
  }
  double delta_mag = rng.uniform(0.05, 0.4) * s;
  if (t.spec.side == stats::SpecSide::kTwoSided) {
    delta_mag = std::min(delta_mag, 0.45 * half);  // never collapse the window
  }
  double delta = (rng.uniform() < 0.5 ? -1.0 : 1.0) * delta_mag;
  if (!opts.always_guard_banded && rng.uniform() < 0.25) delta = 0.0;
  t.guard_delta = delta;
  t.threshold = delta >= 0.0 ? t.spec.tightened(delta) : t.spec.loosened(-delta);
  return t;
}

void describe(const SpecTriple& c, obs::json::Writer& w) {
  w.kv("mean", c.param.mean);
  w.kv("sigma", c.param.sigma);
  w.kv("spec_side", to_string(c.spec.side));
  w.kv("spec_lo", c.spec.lo);
  w.kv("spec_hi", c.spec.hi);
  w.kv("threshold_lo", c.threshold.lo);
  w.kv("threshold_hi", c.threshold.hi);
  w.kv("error_kind", to_string(c.error.kind));
  w.kv("error_magnitude", c.error.magnitude);
  w.kv("guard_delta", c.guard_delta);
}

}  // namespace msts::check
