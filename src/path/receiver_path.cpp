#include "path/receiver_path.h"

#include <cmath>
#include <utility>

#include "base/require.h"
#include "base/units.h"
#include "digital/fir.h"
#include "dsp/fir_design.h"
#include "obs/registry.h"
#include "path/workspace.h"
#include "stats/uncertain.h"

namespace msts::path {

PathConfig reference_path_config() {
  PathConfig c;
  c.analog_fs = 32.0e6;
  c.adc_decimation = 8;

  c.amp.gain_db = stats::Uncertain::from_tolerance(15.0, 1.0);
  c.amp.iip3_dbm = stats::Uncertain::from_tolerance(10.0, 1.5);
  c.amp.iip2_dbm = stats::Uncertain::from_tolerance(45.0, 3.0);
  c.amp.p1db_in_dbm = stats::Uncertain::from_tolerance(0.0, 1.0);
  c.amp.nf_db = stats::Uncertain::from_tolerance(3.0, 0.5);
  c.amp.dc_offset_v = stats::Uncertain::from_tolerance(0.0, 2e-3);

  c.mixer.conv_gain_db = stats::Uncertain::from_tolerance(10.0, 1.0);
  c.mixer.iip3_dbm = stats::Uncertain::from_tolerance(2.0, 1.5);
  c.mixer.p1db_in_dbm = stats::Uncertain::from_tolerance(-8.0, 1.0);
  c.mixer.lo_isolation_db = stats::Uncertain::from_tolerance(40.0, 4.0);
  c.mixer.nf_db = stats::Uncertain::from_tolerance(8.0, 1.0);

  c.lo.freq_hz = 10.0e6;
  c.lo.freq_error_ppm = stats::Uncertain::from_tolerance(0.0, 10.0);
  c.lo.phase_noise_rad = stats::Uncertain::from_tolerance(2e-4, 1e-4);

  c.lpf.cutoff_hz = stats::Uncertain::from_tolerance(1.0e6, 5.0e4);
  c.lpf.passband_gain_db = stats::Uncertain::from_tolerance(0.0, 0.5);
  c.lpf.order = 4;
  // 6.4 MHz: folds to 1.6 MHz at the 4 MHz digital rate, so the spur stays
  // observable (a clock at a multiple of the digital rate would alias to DC).
  c.lpf.clock_hz = 6.4e6;
  c.lpf.clock_spur_v = stats::Uncertain::from_tolerance(200e-6, 100e-6);

  c.adc.bits = 12;
  c.adc.vref = 0.5;
  c.adc.offset_error_v = stats::Uncertain::from_tolerance(0.0, 1e-3);
  c.adc.gain_error = stats::Uncertain::from_tolerance(0.0, 0.01);
  c.adc.inl_peak_lsb = stats::Uncertain::from_tolerance(0.5, 0.3);
  c.adc.dnl_sigma_lsb = stats::Uncertain::from_tolerance(0.2, 0.1);

  c.fir_taps = 13;
  c.fir_cutoff_norm = 0.3;
  c.fir_coeff_frac_bits = 10;
  return c;
}

namespace {

std::vector<std::int32_t> design_path_fir(const PathConfig& c) {
  const auto h = dsp::design_lowpass(c.fir_taps, c.fir_cutoff_norm);
  return dsp::quantize_coefficients(h, c.fir_coeff_frac_bits);
}

}  // namespace

ReceiverPath::ReceiverPath(const PathConfig& config, analog::Amplifier amp,
                           analog::Mixer mixer, analog::LocalOscillator lo,
                           analog::LowPassFilter lpf, analog::Adc adc)
    : config_(config),
      graph_(PathGraph::from_stages(
          graph_from_config(config),
          {std::move(amp), PathGraph::MixerStage{std::move(mixer), std::move(lo)},
           std::move(lpf), PathGraph::AdcStage{std::move(adc), config.adc_decimation},
           PathGraph::FirStage{design_path_fir(config), config.fir_coeff_frac_bits,
                               config.adc.bits}})) {}

ReceiverPath::ReceiverPath(const PathConfig& c)
    : ReceiverPath(c, analog::Amplifier(c.amp), analog::Mixer(c.mixer),
                   analog::LocalOscillator(c.lo), analog::LowPassFilter(c.lpf),
                   analog::Adc(c.adc)) {}

ReceiverPath ReceiverPath::sampled(const PathConfig& c, stats::Rng& rng) {
  // Blocks draw in reverse signal order — ADC, LPF, LO, mixer, amplifier —
  // a bit-identity contract pinned in test_analog_blocks. PathGraph::sampled
  // draws in graph order instead.
  analog::Adc adc = analog::Adc::sampled(c.adc, rng);
  analog::LowPassFilter lpf = analog::LowPassFilter::sampled(c.lpf, rng);
  analog::LocalOscillator lo = analog::LocalOscillator::sampled(c.lo, rng);
  analog::Mixer mixer = analog::Mixer::sampled(c.mixer, rng);
  analog::Amplifier amp = analog::Amplifier::sampled(c.amp, rng);
  return ReceiverPath(c, std::move(amp), std::move(mixer), std::move(lo),
                      std::move(lpf), std::move(adc));
}

ReceiverPath::Trace ReceiverPath::run(const analog::Signal& rf,
                                      stats::Rng& noise_rng) const {
  PathWorkspace ws;
  run(rf, noise_rng, ws);
  return std::move(ws.trace);
}

const ReceiverPath::Trace& ReceiverPath::run(const analog::Signal& rf,
                                             stats::Rng& noise_rng,
                                             PathWorkspace& ws) const {
  MSTS_REQUIRE(rf.fs == config_.analog_fs, "RF input must use the analog rate");
  Trace& t = ws.trace;
  obs::counter_add(t.after_amp.samples.capacity() >= rf.size()
                       ? "path.workspace.reuse"
                       : "path.workspace.grow");
  amp().process_into(rf, noise_rng, t.after_amp);
  lo().generate_into(rf.fs, rf.size(), noise_rng, ws.lo_wave);
  mixer().process_into(t.after_amp, ws.lo_wave, noise_rng, t.after_mixer);
  lpf().process_into(t.after_mixer, t.after_lpf);
  adc().digitize_into(t.after_lpf, config_.adc_decimation, t.adc_codes);
  digital::fir_block_into(fir_coeffs(), adc().bits(), t.adc_codes, t.filter_out);
  t.digital_fs = config_.digital_fs();
  return t;
}

std::vector<double> ReceiverPath::filter_output_volts(const Trace& trace) const {
  std::vector<double> out;
  filter_output_volts_into(trace, out);
  return out;
}

void ReceiverPath::filter_output_volts_into(const Trace& trace,
                                            std::vector<double>& out) const {
  const double scale =
      adc().lsb() / static_cast<double>(1 << config_.fir_coeff_frac_bits);
  out.resize(trace.filter_out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(trace.filter_out[i]) * scale;
  }
}

std::vector<double> ReceiverPath::adc_output_volts(const Trace& trace) const {
  std::vector<double> out;
  out.reserve(trace.adc_codes.size());
  for (std::int64_t v : trace.adc_codes) out.push_back(static_cast<double>(v) * adc().lsb());
  return out;
}

double ReceiverPath::fir_magnitude_at(double f) const {
  return std::abs(dsp::frequency_response_fixed(
      fir_coeffs(), config_.fir_coeff_frac_bits, f / config_.digital_fs()));
}

}  // namespace msts::path
