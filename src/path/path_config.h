// Flat configuration of the canonical receiver path (the paper's Fig. 6
// chain), kept only to construct that path. Every consumer takes a
// PathGraphConfig (path/path_graph.h); a PathConfig converts into one
// implicitly — amp, mixer(+LO), LPF, ADC, FIR — through the one conversion
// constructor PathGraphConfig(const PathConfig&), so flat and canonical
// graph descriptions are the same path by construction.
#pragma once

#include <cstddef>

#include "analog/adc.h"
#include "analog/amp.h"
#include "analog/lo.h"
#include "analog/lpf.h"
#include "analog/mixer.h"
#include "stats/uncertain.h"

namespace msts::path {

/// Full configuration of the reference path (nominals + tolerances).
struct PathConfig {
  double analog_fs = 32.0e6;        ///< Analog simulation rate.
  std::size_t adc_decimation = 8;   ///< Digital rate = analog_fs / this.

  analog::AmpParams amp;
  analog::MixerParams mixer;
  analog::LoParams lo;
  analog::LpfParams lpf;
  analog::AdcParams adc;

  std::size_t fir_taps = 13;
  double fir_cutoff_norm = 0.3;     ///< Digital cutoff as fraction of digital fs.
  int fir_coeff_frac_bits = 10;

  /// Pass-band gain flatness allowance of the analog chain (dB): how much
  /// the amp+mixer gain may tilt between two in-band frequencies. The
  /// behavioral blocks are frequency-flat, but the attribute model budgets
  /// this when a translated test compares gains at two frequencies (e.g.
  /// the cutoff measurement referencing a low-frequency gain).
  stats::Uncertain analog_flatness_db = stats::Uncertain::from_tolerance(0.0, 0.3);

  double digital_fs() const { return analog_fs / static_cast<double>(adc_decimation); }
};

/// The communication-path configuration used throughout the experiments
/// (values recorded in DESIGN.md section 5).
PathConfig reference_path_config();

}  // namespace msts::path
