// Thermal-noise helpers shared by the analog block models.
//
// Blocks with a noise figure add input-referred Gaussian noise whose power is
// (F - 1) * k * T * B into the reference impedance, the standard cascade
// model. B is half the simulation rate (the Nyquist band of the sampled
// waveform), so the per-sample sigma is rate-dependent exactly as a real
// noise density would be.
#pragma once

#include <algorithm>
#include <cstddef>

#include "stats/rng.h"

namespace msts::analog {

/// Boltzmann constant (J/K).
inline constexpr double kBoltzmann = 1.380649e-23;

/// Reference temperature for noise figure definitions (K).
inline constexpr double kT0 = 290.0;

/// RMS voltage of the input-referred noise a block with noise figure
/// `nf_db` adds over the band [0, fs/2] across kRefImpedance.
double noise_vrms_from_nf(double nf_db, double fs);

/// Thermal noise floor of the source itself over [0, fs/2] (volts RMS).
double source_noise_vrms(double fs);

/// Calls body(i, z) for i = 0..n-1 with z the i-th standard normal deviate
/// of `rng`: the same deviates, in the same order, as n serial normal()
/// calls, drawn in stack blocks through Rng::fill_normal.
template <typename Body>
void for_each_normal(stats::Rng& rng, std::size_t n, Body&& body) {
  double z[stats::Rng::kNormalBlock] = {};
  for (std::size_t base = 0; base < n; base += stats::Rng::kNormalBlock) {
    const std::size_t len = std::min(stats::Rng::kNormalBlock, n - base);
    rng.fill_normal(z, len);
    for (std::size_t j = 0; j < len; ++j) body(base + j, z[j]);
  }
}

}  // namespace msts::analog
