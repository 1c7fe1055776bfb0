#include "core/diagnosis.h"

#include <algorithm>
#include <cmath>

#include "base/require.h"

namespace msts::core {

double signature_similarity(const FaultSignature& a, const FaultSignature& b) {
  if (a.bins.empty() || b.bins.empty()) return 0.0;
  // Sparse cosine similarity over the union of bins.
  double dot = 0.0, na = 0.0, nb = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.bins.size() || j < b.bins.size()) {
    if (j >= b.bins.size() || (i < a.bins.size() && a.bins[i] < b.bins[j])) {
      na += static_cast<double>(a.excess_db[i]) * a.excess_db[i];
      ++i;
    } else if (i >= a.bins.size() || b.bins[j] < a.bins[i]) {
      nb += static_cast<double>(b.excess_db[j]) * b.excess_db[j];
      ++j;
    } else {
      dot += static_cast<double>(a.excess_db[i]) * b.excess_db[j];
      na += static_cast<double>(a.excess_db[i]) * a.excess_db[i];
      nb += static_cast<double>(b.excess_db[j]) * b.excess_db[j];
      ++i;
      ++j;
    }
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

FaultSignature FaultDictionary::signature_of(
    std::span<const std::int64_t> filter_out) const {
  MSTS_REQUIRE(filter_out.size() == plan_.record, "record length mismatch");
  FaultSignature sig;
  const dsp::Spectrum spec(tester_.output_volts(filter_out), tester_.digital_fs(),
                           plan_.window);
  MSTS_REQUIRE(spec.num_bins() == mask_.num_bins(), "spectrum and mask sizes differ");
  for (std::size_t k = 0; k < spec.num_bins(); ++k) {
    if (!mask_.exceeds(spec, k)) continue;
    sig.bins.push_back(static_cast<std::uint32_t>(k));
    sig.excess_db.push_back(static_cast<float>(spec.power_db(k) - mask_.mask_db(k)));
  }
  return sig;
}

FaultDictionary::FaultDictionary(const DigitalTester& tester,
                                 const DigitalTestPlan& plan,
                                 std::span<const std::int64_t> stimulus_codes,
                                 std::span<const digital::Fault> faults)
    : tester_(tester), plan_(plan), mask_(plan) {
  MSTS_REQUIRE(stimulus_codes.size() == plan.record, "stimulus length mismatch");
  // Signatures are built on the workers as the streams arrive, keyed by
  // fault index; no fault's waveform outlives its batch. A stream equal to
  // the good machine's shares the good stream's signature, taken once.
  entries_.resize(faults.size());
  std::vector<std::uint8_t> as_good(faults.size(), 0);
  digital::FaultSimOptions opts;
  opts.on_waveform = [&](std::size_t i, std::span<const std::int64_t> waveform,
                         bool differs) {
    if (differs) {
      entries_[i] = signature_of(waveform);
    } else {
      as_good[i] = 1;
    }
  };
  const auto sim = digital::simulate_faults(tester.netlist(), tester.input_bus(),
                                            tester.output_bus(), stimulus_codes, faults,
                                            opts);
  const FaultSignature good = signature_of(sim.good_waveform);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (as_good[i]) entries_[i] = good;
    entries_[i].fault = faults[i];
  }
}

std::vector<DiagnosisCandidate> FaultDictionary::diagnose(
    std::span<const std::int64_t> filter_out, std::size_t top_k) const {
  const FaultSignature observed = signature_of(filter_out);
  std::vector<DiagnosisCandidate> ranked;
  ranked.reserve(entries_.size());
  for (const FaultSignature& e : entries_) {
    DiagnosisCandidate c;
    c.fault = e.fault;
    c.score = signature_similarity(observed, e);
    ranked.push_back(c);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const DiagnosisCandidate& a, const DiagnosisCandidate& b) {
              return a.score > b.score;
            });
  if (ranked.size() > top_k) ranked.resize(top_k);
  return ranked;
}

}  // namespace msts::core
