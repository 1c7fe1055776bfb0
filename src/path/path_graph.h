// Composable path graphs: a declarative, ordered block list that a runnable
// path is composed from.
//
// The paper's methodology (attribute propagation, translation, FCL/YL) is
// defined over an arbitrary mixed-signal path; a PathGraphConfig makes the
// path structure itself data: any arrangement of amplifier / mixer(+LO) /
// low-pass-filter blocks in front of exactly one ADC, optionally followed by
// one digital FIR block. The paper's Fig. 6 receiver is just one instance —
// a flat PathConfig converts into it. PathGraphConfig is the one path
// description every consumer takes; PathGraph is the only path type
// that runs, samples and is measured; the graph walk is pinned against an
// explicit block-by-block Fig. 6 composition by a differential pair in
// src/check.
//
// The same BlockConfig list drives three layers:
//   * PathGraph       — the transient simulator (this header; measured by
//                       path/measurements.h),
//   * PathAttrModel   — the attribute-domain cascade (core/attr_models.h),
//   * content_key     — the service cache key (service/request.h), which
//                       serializes block order + every per-block field so two
//                       topologies differing only in arrangement never
//                       collide.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "analog/adc.h"
#include "analog/amp.h"
#include "analog/lo.h"
#include "analog/lpf.h"
#include "analog/mixer.h"
#include "analog/signal.h"
#include "path/path_config.h"
#include "stats/rng.h"
#include "stats/uncertain.h"

namespace msts::path {

/// The block families a graph may compose.
enum class BlockKind : std::uint8_t { kAmp, kMixer, kLpf, kAdc, kFir };

std::string to_string(BlockKind kind);

/// One block of a path graph: a kind tag plus its parameter payload. Only the
/// members matching `kind` are meaningful; the factories below set them.
struct BlockConfig {
  BlockKind kind = BlockKind::kAmp;

  analog::AmpParams amp;          ///< kAmp.
  analog::MixerParams mixer;      ///< kMixer.
  analog::LoParams lo;            ///< kMixer (the mixer's LO).
  analog::LpfParams lpf;          ///< kLpf.
  analog::AdcParams adc;          ///< kAdc.
  std::size_t adc_decimation = 1; ///< kAdc.
  std::size_t fir_taps = 13;      ///< kFir.
  double fir_cutoff_norm = 0.3;   ///< kFir.
  int fir_coeff_frac_bits = 10;   ///< kFir.

  static BlockConfig make_amp(const analog::AmpParams& params);
  static BlockConfig make_mixer(const analog::MixerParams& params,
                                const analog::LoParams& lo);
  static BlockConfig make_lpf(const analog::LpfParams& params);
  static BlockConfig make_adc(const analog::AdcParams& params,
                              std::size_t decimation);
  static BlockConfig make_fir(std::size_t taps, double cutoff_norm, int frac_bits);
};

/// Declarative path description: an ordered block list plus the path-level
/// context (analog rate, flatness budget) shared by every topology.
struct PathGraphConfig {
  double analog_fs = 32.0e6;
  std::vector<BlockConfig> blocks;
  stats::Uncertain analog_flatness_db = stats::Uncertain::from_tolerance(0.0, 0.3);

  PathGraphConfig() = default;
  /// The canonical Fig. 6 graph of a flat config: amp → mixer → lpf → adc →
  /// fir. Deliberately implicit — the one place that knows flat → graph, so
  /// every consumer taking a PathGraphConfig also accepts a PathConfig. A
  /// plain copy: it does not validate (the consumers do).
  PathGraphConfig(const PathConfig& config);

  /// Index of the first block of `kind` (nullopt when absent).
  std::optional<std::size_t> index_of(BlockKind kind) const;
  /// Number of blocks of `kind`.
  std::size_t count(BlockKind kind) const;
  /// The first block of `kind`; throws naming the kind when there is none.
  const BlockConfig& required_block(BlockKind kind) const;
  /// The one block of `kind`, for a consumer whose formulas read one block
  /// per kind; throws naming the kind when the graph has none or several.
  const BlockConfig& only_block(BlockKind kind) const;
  /// Decimation of the (single) ADC block; requires a valid graph.
  std::size_t adc_decimation() const;
  double digital_fs() const {
    return analog_fs / static_cast<double>(adc_decimation());
  }
};

/// Construction-time validation shared by every consumer (a PathConfig
/// converts and is checked as its canonical graph). Throws via MSTS_REQUIRE
/// on the first violated rule, naming the field:
///   * analog_fs must be a positive, finite rate;
///   * analog_flatness_db has a finite nominal;
///   * at least one block, exactly one ADC, analog blocks only in front of
///     it, at most one FIR and only behind it;
///   * every Uncertain field has a finite nominal and a finite, non-negative
///     wc and sigma;
///   * amp.nf_db and mixer.nf_db >= 0 dB (a noise factor of at least 1);
///   * lo.freq_hz finite and in (0, analog_fs / 2);
///   * lo.amplitude finite and > 0;
///   * lpf.order even and in [2, 16] (at most 8 biquads);
///   * lpf.cutoff_hz finite and in (0, analog_fs / 2);
///   * lpf.clock_hz finite and > 0;
///   * adc_decimation >= 1;
///   * adc.bits in [4, 20] (the ADC model's range);
///   * adc.vref finite and > 0;
///   * adc.gain_error > -1 (a positive gain factor);
///   * fir_taps odd and >= 3 (type-I linear-phase design);
///   * fir_cutoff_norm in (0, 0.5);
///   * fir_coeff_frac_bits in [1, 30] (the int32 coefficient budget).
void validate(const PathGraphConfig& graph);

struct GraphWorkspace;

/// One manufactured path composed from a graph description.
class PathGraph {
 public:
  /// A mixer and the LO that drives it manufacture (and sample) together.
  struct MixerStage {
    analog::Mixer mixer;
    analog::LocalOscillator lo;
  };
  struct AdcStage {
    analog::Adc adc;
    std::size_t decimation = 1;
  };
  struct FirStage {
    std::vector<std::int32_t> coeffs;
    int frac_bits = 10;
    int input_bits = 12;  ///< ADC word width feeding the filter.
  };
  using Stage =
      std::variant<analog::Amplifier, MixerStage, analog::LowPassFilter, AdcStage,
                   FirStage>;

  /// Every block at its nominal parameters.
  explicit PathGraph(const PathGraphConfig& config);

  /// Monte-Carlo instance: blocks drawn in reverse graph order, each LO
  /// before its mixer — on the canonical graph ADC, LPF, LO, mixer,
  /// amplifier. The draw order is a bit-identity contract (pinned by
  /// SampledDrawOrder in test_analog_blocks): every Monte-Carlo fingerprint
  /// depends on it.
  static PathGraph sampled(const PathGraphConfig& config, stats::Rng& rng);

  /// Everything a transient run produces.
  struct Trace {
    /// Output of each pre-ADC block, in graph order.
    std::vector<analog::Signal> analog_stages;
    std::vector<std::int64_t> adc_codes;
    /// Full-precision FIR output; empty when the graph has no FIR block.
    std::vector<std::int64_t> filter_out;
    double digital_fs = 0.0;
  };

  /// Drives the RF input through every block in order.
  Trace run(const analog::Signal& rf, stats::Rng& noise_rng) const;

  /// Same transient into a reused workspace (bit-identical to the allocating
  /// overload; the returned reference is valid until the next run).
  const Trace& run(const analog::Signal& rf, stats::Rng& noise_rng,
                   GraphWorkspace& ws) const;

  /// Digital output in volts: the FIR output with LSB and coefficient scaling
  /// undone, or the raw ADC codes times the LSB when the graph has no FIR.
  std::vector<double> output_volts(const Trace& trace) const;
  void output_volts_into(const Trace& trace, std::vector<double>& out) const;

  const PathGraphConfig& config() const { return config_; }
  std::size_t size() const { return stages_.size(); }
  BlockKind kind_at(std::size_t i) const { return config_.blocks[i].kind; }

  /// Typed stage accessors; each requires the block at `i` to be of the
  /// matching kind.
  const analog::Amplifier& amp_at(std::size_t i) const;
  const MixerStage& mixer_at(std::size_t i) const;
  const analog::LowPassFilter& lpf_at(std::size_t i) const;
  const AdcStage& adc_at(std::size_t i) const;
  const FirStage& fir_at(std::size_t i) const;

  /// Exact magnitude response of the FIR block at frequency f (digital
  /// rate); 1.0 when the graph has no FIR block.
  double fir_magnitude_at(double f) const;

 private:
  /// Validates `config` and manufactures every block: at nominal when `rng`
  /// is null, else sampled in the order documented on sampled().
  PathGraph(const PathGraphConfig& config, stats::Rng* rng);

  PathGraphConfig config_;
  std::vector<Stage> stages_;
  std::size_t adc_index_ = 0;
};

/// Reusable buffer set for repeated transient runs.
///
/// Measurement procedures (P1dB sweeps, cutoff bisection, Monte-Carlo loops)
/// run a path dozens of times with identically-sized records. Passing the
/// same workspace to consecutive runs makes them allocation-free at steady
/// state: each stage resizes its target (a no-op once capacity exists) and
/// overwrites every element, so results are bit-identical to the allocating
/// overload. Not thread-safe: use one per thread (the measurement layer keeps
/// a thread_local instance).
struct GraphWorkspace {
  PathGraph::Trace trace;      ///< Result of the most recent run().
  analog::Signal lo_wave;      ///< LO waveform (internal to a mixer stage).
  std::vector<double> volts;   ///< Scratch for output_volts_into.
};

}  // namespace msts::path
