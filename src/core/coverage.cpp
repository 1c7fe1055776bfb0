#include "core/coverage.h"

#include "base/require.h"
#include "obs/span.h"

namespace msts::core {

const ThresholdRow& ParameterStudy::row(const std::string& label) const {
  for (const ThresholdRow& r : rows) {
    if (r.label == label) return r;
  }
  MSTS_REQUIRE(false, "no threshold row labelled '" + label + "'");
  return rows.front();  // unreachable
}

ParameterStudy threshold_study(const std::string& parameter, const std::string& unit,
                               const stats::Normal& population,
                               const stats::SpecLimits& spec,
                               const stats::Uncertain& error,
                               ErrorTreatment treatment) {
  MSTS_REQUIRE(error.wc >= 0.0, "error must be non-negative");
  obs::Span span("core.threshold_study");
  ParameterStudy s;
  s.parameter = parameter;
  s.unit = unit;
  s.population = population;
  s.spec = spec;
  s.error_wc = error.wc;
  s.treatment = treatment;

  const auto model = (treatment == ErrorTreatment::kWorstCase)
                         ? stats::ErrorModel::uniform(error.wc)
                         : stats::ErrorModel::gaussian(error.sigma);
  const struct {
    const char* label;
    stats::SpecLimits thr;
  } choices[] = {
      {"Tol", spec},
      {"Tol-Err", spec.loosened(error.wc)},
      {"Tol+Err", spec.tightened(error.wc)},
  };
  for (const auto& c : choices) {
    ThresholdRow row;
    row.label = c.label;
    row.threshold = c.thr;
    row.outcome = stats::evaluate_test(population, spec, c.thr, model);
    s.rows.push_back(row);
  }
  return s;
}

std::vector<std::pair<double, stats::TestOutcome>> threshold_sweep(
    const stats::Normal& population, const stats::SpecLimits& spec,
    const stats::Uncertain& error, int steps) {
  MSTS_REQUIRE(steps >= 3, "need at least three sweep points");
  const auto model = stats::ErrorModel::uniform(error.wc);
  std::vector<std::pair<double, stats::TestOutcome>> out;
  for (int i = 0; i < steps; ++i) {
    // shift from -err (loosened) to +err (tightened).
    const double shift =
        -error.wc + 2.0 * error.wc * static_cast<double>(i) / (steps - 1);
    const auto thr = spec.tightened(shift);
    out.emplace_back(shift, stats::evaluate_test(population, spec, thr, model));
  }
  return out;
}

}  // namespace msts::core
