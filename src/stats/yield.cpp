#include "stats/yield.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "base/require.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "stats/parallel.h"

namespace msts::stats {

bool SpecLimits::passes(double x) const {
  switch (side) {
    case SpecSide::kLowerBound: return x >= lo;
    case SpecSide::kUpperBound: return x <= hi;
    case SpecSide::kTwoSided: return x >= lo && x <= hi;
  }
  return false;
}

SpecLimits SpecLimits::at_least(double lo) {
  return SpecLimits{SpecSide::kLowerBound, lo, std::numeric_limits<double>::infinity()};
}

SpecLimits SpecLimits::at_most(double hi) {
  return SpecLimits{SpecSide::kUpperBound, -std::numeric_limits<double>::infinity(), hi};
}

SpecLimits SpecLimits::window(double lo, double hi) {
  MSTS_REQUIRE(lo <= hi, "window limits out of order");
  return SpecLimits{SpecSide::kTwoSided, lo, hi};
}

SpecLimits SpecLimits::loosened(double delta) const {
  SpecLimits out = *this;
  switch (side) {
    case SpecSide::kLowerBound: out.lo -= delta; break;
    case SpecSide::kUpperBound: out.hi += delta; break;
    case SpecSide::kTwoSided:
      out.lo -= delta;
      out.hi += delta;
      break;
  }
  if (side == SpecSide::kTwoSided && out.lo > out.hi) {
    // Over-tightening crossed the window. An inverted (lo > hi) region would
    // still reject everything through passes(), but its limits no longer mean
    // anything; collapse to the zero-width window at the crossing point so
    // the result is a well-formed "accepts (almost) nothing" region and
    // further loosening recovers a sensible window.
    const double mid = 0.5 * (out.lo + out.hi);
    out.lo = mid;
    out.hi = mid;
  }
  return out;
}

SpecLimits SpecLimits::tightened(double delta) const { return loosened(-delta); }

ErrorModel ErrorModel::none() { return ErrorModel{Kind::kNone, 0.0}; }

ErrorModel ErrorModel::uniform(double half_width) {
  MSTS_REQUIRE(half_width >= 0.0, "error half-width must be non-negative");
  return ErrorModel{Kind::kUniform, half_width};
}

ErrorModel ErrorModel::gaussian(double sigma) {
  MSTS_REQUIRE(sigma >= 0.0, "error sigma must be non-negative");
  return ErrorModel{Kind::kGaussian, sigma};
}

namespace {

// P(x + E falls inside `thr`) for the given error model.
double accept_probability(double x, const SpecLimits& thr, const ErrorModel& err) {
  if (err.kind == ErrorModel::Kind::kNone || err.magnitude == 0.0) {
    return thr.passes(x) ? 1.0 : 0.0;
  }
  auto cdf_below = [&](double limit) -> double {
    // P(x + E <= limit) = P(E <= limit - x).
    const double d = limit - x;
    switch (err.kind) {
      case ErrorModel::Kind::kNone:
        return d >= 0.0 ? 1.0 : 0.0;
      case ErrorModel::Kind::kUniform: {
        if (err.magnitude == 0.0) return d >= 0.0 ? 1.0 : 0.0;
        if (d <= -err.magnitude) return 0.0;
        if (d >= err.magnitude) return 1.0;
        return (d + err.magnitude) / (2.0 * err.magnitude);
      }
      case ErrorModel::Kind::kGaussian: {
        if (err.magnitude == 0.0) return d >= 0.0 ? 1.0 : 0.0;
        return normal_cdf(d / err.magnitude);
      }
    }
    return 0.0;
  };

  switch (thr.side) {
    case SpecSide::kLowerBound: return 1.0 - cdf_below(thr.lo);
    case SpecSide::kUpperBound: return cdf_below(thr.hi);
    case SpecSide::kTwoSided: return cdf_below(thr.hi) - cdf_below(thr.lo);
  }
  return 0.0;
}

}  // namespace

TestOutcome evaluate_test(const Normal& param, const SpecLimits& spec,
                          const SpecLimits& threshold, const ErrorModel& error,
                          int grid) {
  MSTS_REQUIRE(param.sigma > 0.0, "parameter spread must be positive");
  MSTS_REQUIRE(grid >= 101, "grid too coarse");

  const double span = 8.0 * param.sigma;
  const double lo = param.mean - span;
  const double hi = param.mean + span;

  // Split the integration domain at every discontinuity of the integrand: the
  // spec boundaries (where the good/faulty indicator jumps) AND the threshold
  // boundaries (where a zero-error acceptance step jumps, and where the
  // error-smeared acceptance ramp kinks). Guard-banded thresholds
  // (tightened/loosened) sit strictly between the spec bounds, so omitting
  // their cuts would land the acceptance step mid-segment and cost O(dx)
  // accuracy in exactly the yield-loss / coverage-loss numbers this function
  // exists to produce.
  std::vector<double> cuts = {lo, hi};
  for (double b : {spec.lo, spec.hi, threshold.lo, threshold.hi}) {
    if (std::isfinite(b) && b > lo && b < hi) cuts.push_back(b);
  }
  std::sort(cuts.begin(), cuts.end());

  double p_good = 0.0;
  double p_accept = 0.0;
  double p_good_reject = 0.0;
  double p_faulty_accept = 0.0;
  double mass = 0.0;

  for (std::size_t seg = 0; seg + 1 < cuts.size(); ++seg) {
    const double a = cuts[seg];
    const double b = cuts[seg + 1];
    if (b - a <= 0.0) continue;
    const int pts = std::max(16, static_cast<int>(grid * (b - a) / (hi - lo)));
    const double dx = (b - a) / static_cast<double>(pts);
    const bool good = spec.passes(0.5 * (a + b));
    // Midpoint rule: never evaluates at a segment boundary, where the
    // good/faulty indicator and a zero-error acceptance step both jump.
    for (int i = 0; i < pts; ++i) {
      const double x = a + dx * (static_cast<double>(i) + 0.5);
      const double w = param.pdf(x) * dx;
      const double pa = accept_probability(x, threshold, error);
      mass += w;
      p_accept += w * pa;
      if (good) {
        p_good += w;
        p_good_reject += w * (1.0 - pa);
      } else {
        p_faulty_accept += w * pa;
      }
    }
  }

  // Normalise for the (tiny) tail mass beyond +/-8 sigma.
  TestOutcome out;
  out.yield = p_good / mass;
  out.defect_rate = 1.0 - out.yield;
  out.accept_rate = p_accept / mass;
  out.yield_loss = (p_good > 0.0) ? p_good_reject / p_good : 0.0;
  const double p_faulty = mass - p_good;
  out.fault_coverage_loss = (p_faulty > 1e-15) ? p_faulty_accept / p_faulty : 0.0;
  return out;
}

TestOutcome evaluate_test_mc(const Normal& param, const SpecLimits& spec,
                             const SpecLimits& threshold, const ErrorModel& error,
                             Rng& rng, int trials, int threads) {
  MSTS_REQUIRE(trials >= 1000, "too few Monte-Carlo trials");
  obs::Span span("stats.evaluate_test_mc");
  obs::counter_add("stats.evaluate_test_mc.trials", static_cast<std::uint64_t>(trials));

  // Block partition and per-block RNG streams depend only on `trials`, so
  // the counts below are the same for every thread count.
  constexpr int kBlock = 8192;
  const int nblocks = (trials + kBlock - 1) / kBlock;
  struct Counts {
    long good = 0;
    long accepted = 0;
    long good_rejected = 0;
    long faulty_accepted = 0;
  };
  std::vector<Counts> per_block(static_cast<std::size_t>(nblocks));
  const std::vector<Rng> streams = make_streams(rng.split(), static_cast<std::size_t>(nblocks));

  parallel_for_index(static_cast<std::size_t>(nblocks), threads, [&](std::size_t b) {
    Rng block_rng = streams[b];
    Counts c;
    const int begin = static_cast<int>(b) * kBlock;
    const int end = std::min(trials, begin + kBlock);
    for (int t = begin; t < end; ++t) {
      const double x = block_rng.normal(param.mean, param.sigma);
      double e = 0.0;
      switch (error.kind) {
        case ErrorModel::Kind::kNone: break;
        case ErrorModel::Kind::kUniform:
          e = block_rng.uniform(-error.magnitude, error.magnitude);
          break;
        case ErrorModel::Kind::kGaussian:
          e = block_rng.normal(0.0, error.magnitude);
          break;
      }
      const bool is_good = spec.passes(x);
      const bool accepts = threshold.passes(x + e);
      c.good += is_good ? 1 : 0;
      c.accepted += accepts ? 1 : 0;
      if (is_good && !accepts) ++c.good_rejected;
      if (!is_good && accepts) ++c.faulty_accepted;
    }
    per_block[b] = c;
  });

  long good = 0;
  long accepted = 0;
  long good_rejected = 0;
  long faulty_accepted = 0;
  for (const Counts& c : per_block) {
    good += c.good;
    accepted += c.accepted;
    good_rejected += c.good_rejected;
    faulty_accepted += c.faulty_accepted;
  }
  TestOutcome out;
  out.yield = static_cast<double>(good) / trials;
  out.defect_rate = 1.0 - out.yield;
  out.accept_rate = static_cast<double>(accepted) / trials;
  out.yield_loss = good > 0 ? static_cast<double>(good_rejected) / good : 0.0;
  const long faulty = trials - good;
  out.fault_coverage_loss = faulty > 0 ? static_cast<double>(faulty_accepted) / faulty : 0.0;
  return out;
}

}  // namespace msts::stats
