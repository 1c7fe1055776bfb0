// Shared plumbing of the msts benchmark: command line, clocks, robust
// statistics, peak memory, host facts, a result record, and the span
// recorder the traced run uses to break a workload down by module.
//
// Spans are recorded by the benchmark itself, around its calls into the
// program's public functions; nothing inside the program is instrumented.
// A span's self time is its duration minus the part of that interval its
// child spans cover, so the self times of a serial span tree sum to the
// root's duration. A root span carries no module name: its self time is the
// tree's `unattributed` remainder.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace msts::core {
struct ParameterStudy;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

// ---- command line ---------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;        ///< Reduced inputs for the self-check.
  std::string out_path;     ///< Result record (JSON) destination.
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--tiny] --out F`.
/// Throws std::invalid_argument on anything malformed.
Args parse_args(int argc, char** argv);

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]); NaN for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// CPU time this process has used so far (all threads), seconds.
double process_cpu_seconds();

/// Wall-clock and process CPU time since construction. CPU time counts
/// every thread of the process; on a virtual machine with steal-time
/// accounting it leaves out the time the host ran other guests, so it is
/// the steadier measure on a shared host.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = process_cpu_seconds();
  double wall_s() const { return seconds_since(wall0); }
  double cpu_s() const { return process_cpu_seconds() - cpu0; }
};

/// Set-up timings of one run. The host's speed drifts over seconds, so a
/// few set-ups run before the timed window and one more after any timed
/// repetition that ends a second or more after the last sample: the median
/// then covers the whole run, not its first moment.
class SetupSamples {
 public:
  /// Runs `setup` and records its CPU and wall time.
  template <class F>
  void take(F&& setup) {
    const Stopwatch sw;
    setup();
    cpu_.push_back(sw.cpu_s());
    wall_.push_back(sw.wall_s());
    last_ = Clock::now();
  }
  /// take(), when a second has passed since the last sample.
  template <class F>
  void maybe_take(F&& setup) {
    if (seconds_since(last_) >= 1.0) take(setup);
  }
  const std::vector<double>& cpu() const { return cpu_; }
  const std::vector<double>& wall() const { return wall_; }

 private:
  std::vector<double> cpu_, wall_;
  Clock::time_point last_ = Clock::now();
};

/// Set-ups before the timed window.
inline int setup_reps(bool tiny) { return tiny ? 1 : 3; }

/// Peak resident set of this process so far, MiB.
double peak_rss_mib();

/// Threads of this process right now (from /proc/self/status; 0 if unknown).
int process_threads();

// ---- result record ------------------------------------------------------------

/// Everything one run reports: metrics by their published names, host and
/// workload facts, oracle notes and (traced run) the layer table.
struct Record {
  std::string workload;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< Oracle failures, validity warnings.
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> facts;  ///< Host facts, seeds, counts.
  std::string layer_table_json = "null";     ///< Filled by the traced run.

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// setup_s (median CPU seconds) and setup_wall_s over the samples.
  void set_setup(const SetupSamples& samples);
  /// throughput (median units per wall second) and cpu_throughput (median
  /// units per CPU second) over the timed repetitions.
  void set_throughput(const std::vector<double>& per_wall_s,
                      const std::vector<double>& per_cpu_s);
  void fail(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
};

/// Host facts every result carries: nproc, CPU model, SIMD ISA, resolved
/// thread count, build type.
void add_host_facts(Record& rec);

/// Writes the record as one JSON object.
void write_record(const Record& rec, const std::string& path);

/// Prints the metrics and notes as an aligned table on stderr.
void print_record(const Record& rec);

// ---- spans -------------------------------------------------------------------

struct SpanRecord {
  const char* name = "";   ///< "<module>.<what>", or a module-less root name.
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store; thread-safe. Timestamps are steady_clock
/// nanoseconds relative to the tracer's construction.
class Tracer {
 public:
  Tracer();
  std::uint32_t next_id() { return ++ids_; }
  std::int64_t now_ns() const;
  std::int64_t to_ns(Clock::time_point t) const;
  void add(const SpanRecord& s);
  std::vector<SpanRecord> spans() const;

 private:
  Clock::time_point origin_;
  std::atomic<std::uint32_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span. With a null tracer it records nothing and costs nothing, so a
/// replay runs traced or untraced from the same code.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint32_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint32_t id() const { return rec_.id; }

 private:
  Tracer* tracer_;
  SpanRecord rec_;
};

/// Per-module self-time table over every span tree in `spans`.
struct LayerTable {
  struct Row {
    std::string layer;
    double self_s = 0.0;
    std::uint64_t spans = 0;
  };
  std::vector<Row> rows;     ///< One per module, plus "unattributed".
  double parent_s = 0.0;     ///< Sum of root-span durations.
  double rows_sum_s = 0.0;   ///< Sum of the rows; equals parent_s.
  std::uint64_t roots = 0;

  double self_of(const std::string& layer) const;
  bool reconciles() const;
  std::string to_json() const;
  void print(const std::string& title) const;
};

/// Builds the table. Every span's self time is its duration minus the union
/// of its children's (clipped) intervals; spans are grouped by the text
/// before the first '.', roots by "unattributed".
LayerTable layer_table(const std::vector<SpanRecord>& spans);

/// Per-span-name durations in seconds (for p50 / max of one call kind).
std::vector<double> span_durations(const std::vector<SpanRecord>& spans,
                                   const std::string& name);

/// Modules whose self-time share the traced run reports for every workload.
inline const char* const kTracedModules[] = {"service", "sweep", "core",  "path",
                                             "digital", "dsp",   "stats"};

/// Adds `<module>.self_frac` for each traced module, `layer.unit_ms`,
/// `obs.unattributed_frac` and the layer table itself to the record.
void add_layer_metrics(Record& rec, const LayerTable& table, double units);

/// Registry counter total from obs::Registry::snapshot() (0 when absent).
std::uint64_t counter_value(const std::string& name);

/// Adds stats.scaling_eff (throughput at `threads` over `threads` times the
/// untraced 1-thread replay's rate) and obs.trace_overhead_frac (untraced
/// minus traced replay rate, over untraced).
void add_replay_metrics(Record& rec, int threads, double replay_rate, double traced_rate);

/// Adds stats.evaluate_test_us: median time of one analytic
/// stats::evaluate_test on the study's Tol row.
void add_evaluate_test_probe(Record& rec, const msts::core::ParameterStudy& study);

/// Adds dsp.plan_cache_hit_ratio (hits / lookups over the FFT, real-FFT and
/// window plan caches) when there were any lookups.
void add_plan_cache_hit_ratio(Record& rec);

}  // namespace perfbench
