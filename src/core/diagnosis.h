// Spectral fault diagnosis for the digital filter.
//
// The spectral detector of core/digital_test.h answers "is there a fault?";
// this module answers "which one?". A fault dictionary stores, per fault,
// the signature the fault leaves in the output spectrum (which bins exceed
// the mask and by how much); diagnosing a failing device ranks dictionary
// entries by signature similarity. This is the classic dictionary-based
// diagnosis flow, driven entirely by the translated (primary-port) test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/digital_test.h"

namespace msts::core {

/// Spectral signature: mask-exceeding bins and their levels.
struct FaultSignature {
  digital::Fault fault;
  std::vector<std::uint32_t> bins;   ///< Bins over the mask, ascending.
  std::vector<float> excess_db;      ///< Excess over the mask per bin.
};

/// One ranked diagnosis candidate.
struct DiagnosisCandidate {
  digital::Fault fault;
  double score = 0.0;  ///< Cosine similarity of the signatures (0..1).
};

/// Dictionary of fault signatures for one digital test plan.
class FaultDictionary {
 public:
  /// Builds the dictionary by simulating `faults` against the plan's
  /// stimulus (same machinery as the spectral campaign). Faults whose
  /// signature is empty (undetectable under this plan) are stored without
  /// bins and never match.
  FaultDictionary(const DigitalTester& tester, const DigitalTestPlan& plan,
                  std::span<const std::int64_t> stimulus_codes,
                  std::span<const digital::Fault> faults);

  /// Extracts the signature of an observed output stream.
  FaultSignature signature_of(std::span<const std::int64_t> filter_out) const;

  /// Ranks dictionary entries against an observed output stream.
  std::vector<DiagnosisCandidate> diagnose(std::span<const std::int64_t> filter_out,
                                           std::size_t top_k = 5) const;

  std::size_t size() const { return entries_.size(); }
  const FaultSignature& entry(std::size_t i) const { return entries_[i]; }

 private:
  const DigitalTester& tester_;
  DigitalTestPlan plan_;
  MaskTest mask_;
  std::vector<FaultSignature> entries_;
};

/// Cosine similarity of two signatures over the union of their bins.
double signature_similarity(const FaultSignature& a, const FaultSignature& b);

}  // namespace msts::core
