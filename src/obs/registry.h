// Process-wide metric registry: counters, timers and histograms.
//
// Timers are stage times: closing an armed obs::Span (obs/span.h) records
// one sample under the span's name, whether or not the span timeline is
// traced, so the registry is the single source of per-stage attribution
// (BenchReport's span_stages). A timer keeps count / total / min / max and
// the same log2 bins as a histogram, in seconds, for quantiles.
//
// Collection model: every thread writes into its own thread-local sink (one
// short uncontended lock per update, taken only so snapshots can read live
// sinks safely); sinks merge into the registry when their thread exits, and
// snapshot() folds the retired totals together with every live sink on
// demand. All stored quantities are integers combined with commutative,
// associative operations (sums, min, max, bin counts), so the merged totals
// are independent of thread scheduling and merge order — the "deterministic
// merge" half of the obs contract. (Wall-clock *durations* are inherently
// non-deterministic; the determinism guarantee is that, for deterministic
// inputs, counter totals, sample counts and histogram bins are bit-identical
// at any thread count; timer bins hold wall-clock durations and are not.)
//
// Thread lifetime contract: a sink merges eagerly into the registry's
// retired totals when its thread exits (the thread_local destructor), and
// that merge serializes with snapshot(), drain() and reset() on the registry
// mutex. Threads may therefore be spawned and joined freely around drains —
// a worker that exits between requests never drops its counts. Every update
// lands in exactly one of: the sink a snapshot reads, or the retired totals.
// The only forbidden pattern is recording metrics from *another*
// thread_local object's destructor that runs after this thread's sink was
// destroyed (standard thread_local teardown order): that would touch a dead
// sink. Record metrics from ordinary code, never from thread_local
// destructors.
//
// Collect-and-clear: drain() atomically snapshots and zeroes everything
// under one registry lock, so periodic collectors (the service layer's
// stats publisher, benches sampling between phases) never lose updates that
// land between a snapshot() and a reset().
//
// When metrics are disabled (obs::metrics_enabled() == false) the free
// functions below return after a single relaxed atomic load: no clock read,
// no allocation, no lock. Hot loops may be instrumented unconditionally.
// There is no free timer function: obs::Span is the one stage recorder, and
// it calls Registry::timer_record_ns itself, armed by trace as well as by
// metrics.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/config.h"

namespace msts::obs {

/// One merged metric as returned by Registry::snapshot().
struct Metric {
  enum class Kind : std::uint8_t { kCounter, kTimer, kHistogram };

  /// Histogram bins: bin 0 collects non-positive and non-finite samples;
  /// bin k >= 1 collects samples with floor(log2(v)) == k - 33, i.e. powers
  /// of two from 2^-32 up to 2^30, clamping at both ends.
  static constexpr std::size_t kHistBins = 64;

  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;     ///< Increments (counter) or samples (timer/histogram).
  std::uint64_t total_ns = 0;  ///< Timers: accumulated nanoseconds.
  std::uint64_t min_ns = 0;    ///< Timers: shortest sample.
  std::uint64_t max_ns = 0;    ///< Timers: longest sample.
  /// Histograms: sample bins. Timers: duration bins, in seconds.
  std::array<std::uint64_t, kHistBins> bins{};
};

const char* to_string(Metric::Kind kind);

/// Log2 bin index a histogram sample lands in (see Metric::kHistBins).
std::size_t histogram_bin_of(double value);

/// The process-wide registry. Never destroyed (threads may outlive static
/// destruction order), so taking instance() is always safe.
class Registry {
 public:
  static Registry& instance();

  /// Direct recording entry points. These collect unconditionally — use the
  /// free functions below at instrumentation sites so disabled mode stays
  /// a no-op.
  void counter_add(std::string_view name, std::uint64_t delta);
  void timer_record_ns(std::string_view name, std::uint64_t ns);
  void histogram_record(std::string_view name, double value);

  /// Merged view of every metric, sorted by name. Deterministic in the
  /// sense documented at the top of this header.
  std::vector<Metric> snapshot() const;

  /// Atomic collect-and-clear: returns the merged view (as snapshot would)
  /// and zeroes the retired totals and every live sink under a single
  /// registry lock. Updates racing a drain land either in the returned view
  /// or in the registry afterwards — never both, never neither — so summing
  /// successive drains conserves every recorded count.
  std::vector<Metric> drain();

  /// Drops every recorded value (live sinks and retired totals).
  void reset();

 private:
  Registry() = default;
  struct Impl;
  Impl* impl();
  const Impl* impl() const;
};

/// Adds `delta` to counter `name`. No-op unless metrics are enabled.
inline void counter_add(std::string_view name, std::uint64_t delta = 1) {
  if (metrics_enabled()) Registry::instance().counter_add(name, delta);
}

/// Records one histogram sample. No-op unless enabled.
inline void histogram_record(std::string_view name, double value) {
  if (metrics_enabled()) Registry::instance().histogram_record(name, value);
}

}  // namespace msts::obs
