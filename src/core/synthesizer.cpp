#include "core/synthesizer.h"

#include <iomanip>
#include <sstream>

#include "base/require.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace msts::core {

TestSynthesizer::TestSynthesizer(const path::PathGraphConfig& graph, bool adaptive,
                                 double spec_sigmas)
    : graph_(graph),
      translator_(graph_),
      adaptive_(adaptive),
      spec_sigmas_(spec_sigmas) {
  MSTS_REQUIRE(spec_sigmas > 0.0, "spec placement must be positive");
}

namespace {

stats::Normal population_of(const stats::Uncertain& param) {
  // Toolkit convention: tolerance = 3 sigma. Guard against exact parameters.
  const double sigma = (param.sigma > 0.0) ? param.sigma : 1e-9;
  return stats::Normal{param.nominal, sigma};
}

const path::BlockConfig* first_block(const path::PathGraphConfig& g,
                                     path::BlockKind kind) {
  const auto idx = g.index_of(kind);
  return idx ? &g.blocks[*idx] : nullptr;
}

}  // namespace

ParameterStudy TestSynthesizer::study_mixer_p1db() const {
  obs::Span span("core.study_mixer_p1db");
  const auto analysis = translator_.analyze_mixer_p1db();
  const auto* mixer = first_block(graph_, path::BlockKind::kMixer);
  MSTS_REQUIRE(mixer != nullptr, "study needs a mixer block");
  const auto& p = mixer->mixer.p1db_in_dbm;
  return threshold_study(
      "mixer.P1dB", "dBm", population_of(p),
      stats::SpecLimits::at_least(p.nominal - spec_sigmas_ * population_of(p).sigma),
      analysis.error);
}

ParameterStudy TestSynthesizer::study_mixer_iip3() const {
  obs::Span span("core.study_mixer_iip3");
  const auto analysis = translator_.analyze_mixer_iip3(adaptive_);
  const auto* mixer = first_block(graph_, path::BlockKind::kMixer);
  MSTS_REQUIRE(mixer != nullptr, "study needs a mixer block");
  const auto& p = mixer->mixer.iip3_dbm;
  return threshold_study(
      "mixer.IIP3", "dBm", population_of(p),
      stats::SpecLimits::at_least(p.nominal - spec_sigmas_ * population_of(p).sigma),
      analysis.error);
}

ParameterStudy TestSynthesizer::study_lpf_cutoff() const {
  obs::Span span("core.study_lpf_cutoff");
  const auto analysis = translator_.analyze_lpf_cutoff();
  const auto* lpf = first_block(graph_, path::BlockKind::kLpf);
  MSTS_REQUIRE(lpf != nullptr, "study needs an LPF block");
  const auto& p = lpf->lpf.cutoff_hz;
  const double half = spec_sigmas_ * population_of(p).sigma;
  return threshold_study("lpf.f_c", "Hz", population_of(p),
                         stats::SpecLimits::window(p.nominal - half, p.nominal + half),
                         analysis.error);
}

std::vector<PlannedTest> TestSynthesizer::synthesize() const {
  obs::Span span("core.synthesize");
  obs::counter_add("core.synthesize.calls");
  std::vector<PlannedTest> plan;

  auto add = [&](const std::string& module, const std::string& parameter,
                 const std::string& unit, const TranslationAnalysis& a) {
    PlannedTest t;
    t.module = module;
    t.parameter = parameter;
    t.unit = unit;
    t.method = a.method;
    t.translatable = a.translatable;
    t.error = a.error;
    t.formula = a.formula;
    plan.push_back(t);
    return plan.size() - 1;
  };

  // The plan walks the graph's block list in order, emitting each block's
  // Table 1 rows; the canonical receiver graph reproduces the original flat
  // plan byte-for-byte (amp, mixer, lo, lpf, adc). Repeated kinds are
  // disambiguated with "#2", "#3"... suffixes, and the threshold studies
  // (which analyze the first block of their kind) attach to the first
  // occurrence only.
  const bool has_mixer = graph_.index_of(path::BlockKind::kMixer).has_value();
  std::size_t seen[5] = {0, 0, 0, 0, 0};
  std::size_t lo_seen = 0;
  auto numbered = [](std::string name, std::size_t n) {
    if (n > 1) name += "#" + std::to_string(n);
    return name;
  };

  for (const path::BlockConfig& b : graph_.blocks) {
    const std::size_t n = ++seen[static_cast<std::size_t>(b.kind)];
    const std::string m = numbered(path::to_string(b.kind), n);
    switch (b.kind) {
      case path::BlockKind::kAmp:
        // Amp rows other than the composed gain probe through the mixer; on
        // a mixerless graph they have no translated form.
        add(m, "Gain", "dB", translator_.analyze_path_gain());
        if (has_mixer) {
          add(m, "IIP3", "dBm", translator_.analyze_mixer_iip3(adaptive_));
          add(m, "DC offset", "V", translator_.analyze_amp_offset());
          add(m, "HD3", "dBc", translator_.analyze_amp_hd3());
        }
        break;

      case path::BlockKind::kMixer: {
        add(m, "Gain", "dB", translator_.analyze_path_gain());
        {
          const auto idx = add(m, "IIP3", "dBm", translator_.analyze_mixer_iip3(adaptive_));
          if (n == 1) {
            plan[idx].has_study = true;
            plan[idx].study = study_mixer_iip3();
          }
        }
        add(m, "LO isolation", "dB", translator_.analyze_mixer_lo_isolation());
        add(m, "NF", "dB", translator_.analyze_path_nf());
        {
          const auto idx = add(m, "P1dB", "dBm", translator_.analyze_mixer_p1db());
          if (n == 1) {
            plan[idx].has_study = true;
            plan[idx].study = study_mixer_p1db();
          }
        }

        // The mixer's LO is tested through the same block.
        const std::string lo_m = numbered("lo", ++lo_seen);
        add(lo_m, "Frequency error", "ppm", translator_.analyze_lo_freq_error());
        {
          // Phase noise: visible as the composed SNR skirt at the output.
          TranslationAnalysis a;
          a.method = TranslationMethod::kComposition;
          a.error = stats::Uncertain(0.0, 1.0, 0.33);
          a.formula = "phase-noise skirt folded into the composed SNR measurement";
          add(lo_m, "Phase noise", "dB", a);
        }
        break;
      }

      case path::BlockKind::kLpf: {
        add(m, "Passband gain", "dB", translator_.analyze_path_gain());
        {
          const auto idx = add(m, "f_c", "Hz", translator_.analyze_lpf_cutoff());
          if (n == 1) {
            plan[idx].has_study = true;
            plan[idx].study = study_lpf_cutoff();
          }
        }
        {
          TranslationAnalysis a;
          a.method = TranslationMethod::kPropagation;
          a.error = graph_.analog_flatness_db;
          a.formula = "stop-band gain from out-of-band tone vs pass-band reference";
          add(m, "Stopband gain", "dB", a);
        }
        add(m, "Dynamic range", "dB", translator_.analyze_path_nf());
        break;
      }

      case path::BlockKind::kAdc: {
        add(m, "Offset error", "V", translator_.analyze_adc_offset());
        {
          TranslationAnalysis a;
          a.method = TranslationMethod::kPropagation;
          a.error = stats::Uncertain(0.0, 0.3, 0.1);  // LSB
          a.formula = "INL/DNL from output-spectrum distortion of a propagated "
                      "near-full-scale tone";
          add(m, "INL/DNL", "LSB", a);
        }
        add(m, "NF / DR", "dB", translator_.analyze_path_nf());
        break;
      }

      case path::BlockKind::kFir:
        // Deterministic digital block: nothing to test analogically (the
        // paper's "no added noise" observation); covered by scan/BIST.
        break;
    }
  }

  return plan;
}

std::string format_plan(const std::vector<PlannedTest>& plan) {
  std::ostringstream os;
  os << std::left << std::setw(7) << "module" << std::setw(17) << "parameter"
     << std::setw(14) << "method" << std::setw(14) << "error(wc)" << "computation\n";
  os << std::string(96, '-') << "\n";
  for (const PlannedTest& t : plan) {
    std::ostringstream err;
    if (t.translatable) {
      err << std::setprecision(3) << t.error.wc << " " << t.unit;
    } else {
      err << "-";
    }
    os << std::left << std::setw(7) << t.module << std::setw(17) << t.parameter
       << std::setw(14) << to_string(t.method) << std::setw(14) << err.str()
       << t.formula << "\n";
  }
  return os.str();
}

std::string format_study(const ParameterStudy& study) {
  std::ostringstream os;
  os << study.parameter << " (" << study.unit << "): population N("
     << study.population.mean << ", " << study.population.sigma
     << "), err(wc) = " << study.error_wc << "\n";
  os << std::left << std::setw(10) << "Thr" << std::right << std::setw(10) << "FCL %"
     << std::setw(10) << "YL %" << "\n";
  for (const ThresholdRow& r : study.rows) {
    os << std::left << std::setw(10) << r.label << std::right << std::fixed
       << std::setprecision(2) << std::setw(10) << 100.0 * r.outcome.fault_coverage_loss
       << std::setw(10) << 100.0 * r.outcome.yield_loss << "\n";
    os.unsetf(std::ios::fixed);
  }
  return os.str();
}

}  // namespace msts::core
