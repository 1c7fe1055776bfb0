// The experimental signal path of the paper (Fig. 6):
//   Amp -> Mixer (with LO) -> switched-cap LPF -> ADC -> digital FIR filter.
//
// ReceiverPath is the canonical PathGraph of a flat PathConfig, with no
// state of its own. It adds only the flat-config front door and named
// accessors for the Fig. 6 blocks; running, sampling and every measurement
// go through PathGraph (path/path_graph.h, path/measurements.h). New code
// uses PathGraph directly.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "analog/adc.h"
#include "analog/amp.h"
#include "analog/lo.h"
#include "analog/lpf.h"
#include "analog/mixer.h"
#include "path/path_config.h"
#include "path/path_graph.h"
#include "stats/rng.h"

namespace msts::path {

/// One manufactured Fig. 6 path.
class ReceiverPath : public PathGraph {
 public:
  /// Path with every block at its nominal parameters.
  explicit ReceiverPath(const PathConfig& config);

  /// Monte-Carlo path: PathGraph::sampled on the canonical graph (blocks
  /// draw ADC, LPF, LO, mixer, amplifier).
  static ReceiverPath sampled(const PathConfig& config, stats::Rng& rng);

  /// The FIR output in volts (PathGraph::output_volts on this path).
  std::vector<double> filter_output_volts(const Trace& trace) const {
    return output_volts(trace);
  }

  const analog::Amplifier& amp() const { return amp_at(0); }
  const analog::Mixer& mixer() const { return mixer_at(1).mixer; }
  const analog::LocalOscillator& lo() const { return mixer_at(1).lo; }
  const analog::LowPassFilter& lpf() const { return lpf_at(2); }
  const analog::Adc& adc() const { return adc_at(3).adc; }
  const std::vector<std::int32_t>& fir_coeffs() const { return fir_at(4).coeffs; }

 private:
  explicit ReceiverPath(PathGraph graph) : PathGraph(std::move(graph)) {}
};

}  // namespace msts::path
