// Request-scoped spans: the one recorder of stage times.
//
// A Span measures one stage of work — monotonic start, duration and a
// static name. It is armed when metrics or trace is on (obs::spans_armed());
// while both are off it costs a relaxed atomic load or two in the
// constructor and one branch in the destructor — no clock read, no
// allocation, no lock — so stages are instrumented unconditionally.
//
// Closing an armed span records a registry timer under the span's own name
// (obs/registry.h). Those timers are the per-stage attribution: count,
// total, min, max and log2 duration bins, merged across threads and never
// lost. With trace on the span additionally carries an id, its parent span,
// the recording thread and up to kMaxNotes small key/value annotations, and
// lands in the span timeline: the records from every thread assemble into a
// per-request span *tree* (service request -> queue wait / cache probe /
// execute -> synthesize -> parallel blocks -> plan-cache builds).
//
// Timeline buffering follows the registry's sink model: every thread writes
// into its own fixed-capacity ring buffer behind a per-thread mutex
// (uncontended; taken so drains can read live sinks), a sink retires its
// records into the collector when its thread exits, and spans_drain()
// atomically collects-and-clears retired records plus every live ring. A
// full ring overwrites its oldest record and counts it in spans_dropped(),
// so `drained + dropped` always conserves the number of traced spans. An
// overflow costs timeline records, never attribution counts.
//
// Parenting: each thread keeps a current-span cursor; a Span constructed
// without an explicit parent nests under the thread's innermost open span.
// Work handed to another thread (a posted service request, a scheduler
// chunk) captures Span::current() *before* dispatch and passes it as the
// explicit parent, which stitches the tree across threads. Manual emission
// (span_record_between + span_emit) covers stages whose endpoints are
// existing time_points, e.g. a request's queue wait — the stage's duration
// then reconciles exactly with values computed from the same time points.
//
// Readers:
//  * spans_to_chrome_json — Chrome/Perfetto trace-event JSON ("X" complete
//    slices per thread; records marked `async` become "b"/"e" nestable async
//    events so overlapping per-request spans get their own tracks). Load the
//    file in ui.perfetto.dev or chrome://tracing. MSTS_TRACE_PATH (see
//    obs/config.h) names the export file: BenchReport::write() flushes the
//    drained batch there, and spans_flush_to_trace_path() does the same for
//    programs without a bench report.
//  * stage_attribution — the timer entries of a registry snapshot, ordered
//    by total time, answering "where did the time go" without a UI.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/config.h"
#include "obs/registry.h"

namespace msts::obs {

/// Process-unique span identity. 0 means "no span" (root parent).
using SpanId = std::uint64_t;

/// One annotation. Keys are static strings; values are numeric so a note
/// never allocates (string-ish payloads belong in logs).
struct SpanNote {
  const char* key = nullptr;
  enum class Type : std::uint8_t { kInt, kDouble } type = Type::kInt;
  union {
    std::int64_t i;
    double d;
  };
};

/// A finished span as recorded by span_emit() and returned by spans_drain().
/// Plain value type, no heap members. id == 0 marks an untraced record: it
/// feeds its stage timer only.
struct SpanRecord {
  static constexpr std::size_t kMaxNotes = 4;

  const char* name = "";     ///< Static string (stage name).
  SpanId id = 0;
  SpanId parent = 0;         ///< 0 = root.
  std::uint32_t tid = 0;     ///< Small stable per-thread id (see span_thread_id).
  bool async = false;        ///< Export as an async track (overlapping spans).
  std::uint8_t note_count = 0;
  std::uint64_t start_ns = 0;  ///< Monotonic, relative to the process epoch.
  std::uint64_t dur_ns = 0;
  std::array<SpanNote, kMaxNotes> notes{};
};

/// RAII span. `name` must be a string literal (it is stored by pointer).
class Span {
 public:
  /// Nests under the calling thread's innermost open span.
  explicit Span(const char* name);
  /// Explicit parent: use for work dispatched across threads (capture
  /// Span::current() on the submitting thread). parent == 0 makes a root.
  Span(const char* name, SpanId parent);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a small annotation; silently dropped when the span is untraced
  /// (notes only reach the timeline) or kMaxNotes are already attached.
  void note(const char* key, std::int64_t v);
  void note(const char* key, double v);

  /// This span's id (0 when tracing was off at construction).
  SpanId id() const { return rec_.id; }
  /// True when the span records its stage timer (metrics or trace on).
  bool armed() const { return armed_; }

  /// The calling thread's innermost open span id, 0 when none / tracing off.
  static SpanId current();

 private:
  bool armed_;
  SpanId saved_current_ = 0;
  SpanRecord rec_;
};

/// Sets the calling thread's current-span cursor for a scope without opening
/// a span — used when a stage's record is emitted manually but nested work
/// (e.g. core.synthesize under the service execute stage) should still
/// parent under it. id == 0 is a no-op.
class SpanParentScope {
 public:
  explicit SpanParentScope(SpanId id);
  ~SpanParentScope();
  SpanParentScope(const SpanParentScope&) = delete;
  SpanParentScope& operator=(const SpanParentScope&) = delete;

 private:
  bool armed_;
  SpanId saved_ = 0;
};

/// Allocates a fresh span id (for manual emission). Never returns 0.
SpanId span_allocate_id();

/// The process epoch all span timestamps are relative to.
std::chrono::steady_clock::time_point span_epoch();

/// Nanoseconds since span_epoch() for an arbitrary steady_clock time point
/// (clamped at 0 for points before the epoch).
std::uint64_t span_ns_since_epoch(std::chrono::steady_clock::time_point tp);

/// This thread's small stable id as recorded in SpanRecord::tid.
std::uint32_t span_thread_id();

/// Builds a record for a stage bounded by two existing time points, id'd
/// with `id` (span_allocate_id() when tracing, else 0) under `parent`.
/// Duration clamps at 0, so it reconciles exactly with any other clamped
/// difference of the same two points (e.g. service::Served::queue_wait_ns).
SpanRecord span_record_between(const char* name, SpanId id, SpanId parent,
                               bool async,
                               std::chrono::steady_clock::time_point start,
                               std::chrono::steady_clock::time_point end);

/// Records a finished stage: a registry timer sample under rec.name and, for
/// a traced record (id != 0), a copy in the calling thread's ring. Collects
/// unconditionally — gate call sites on spans_armed() / Span::armed().
void span_emit(const SpanRecord& rec);

/// Atomic collect-and-clear over every live ring plus the retired records
/// of exited threads, sorted by (start_ns, id). Resets spans_dropped().
std::vector<SpanRecord> spans_drain();

/// Records overwritten by full rings (or lost retiring past the retired-
/// buffer cap) since the last drain. drained + dropped conserves traced
/// emissions; the stage timers keep counting every record either way.
std::uint64_t spans_dropped();

/// Per-thread ring capacity (exposed for the overflow tests).
std::size_t span_ring_capacity();

/// Chrome/Perfetto trace-event JSON for a drained batch (see file comment).
std::string spans_to_chrome_json(const std::vector<SpanRecord>& spans);

/// Writes spans_to_chrome_json to `path` (truncating). False + stderr note
/// on IO failure.
bool spans_write_chrome(const std::string& path,
                        const std::vector<SpanRecord>& spans);

/// Drains every buffered span and exports to the configured MSTS_TRACE_PATH.
/// Returns the number of records written; 0 (and drains nothing) when no
/// trace path is configured.
std::size_t spans_flush_to_trace_path();

/// Per-stage latency attribution: the timer entries of `metrics` (a registry
/// snapshot; every closed span records one), sorted by total_ns descending
/// (name ascending on ties).
std::vector<Metric> stage_attribution(const std::vector<Metric>& metrics);

/// Approximate quantile (q in [0,1]) in nanoseconds from a timer's log2
/// bins, clamped to [min_ns, max_ns].
double attribution_quantile_ns(const Metric& stage, double q);

/// Human-readable attribution table (one line per stage).
std::string attribution_to_text(const std::vector<Metric>& stages);

}  // namespace msts::obs
