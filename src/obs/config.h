// Runtime configuration of the observability layer.
//
// Two independent switches control what msts::obs collects:
//  * metrics — counters and histograms (obs/registry.h);
//  * trace   — the span timeline: every closed obs::Span also lands in a
//              per-thread ring for drains and the Chrome/Perfetto export
//              (obs/span.h).
// Stage times have one recorder, obs::Span, armed when either switch is on:
// closing an armed span records a registry timer under the span's name, so
// per-stage attribution never depends on the ring. Both switches default to
// off and are near-zero-cost while off: every instrumented call site
// performs a relaxed atomic load or two and nothing else (no clock read, no
// allocation, no lock).
//
// The switches come from the environment on first use (MSTS_METRICS and
// MSTS_TRACE) and can be overridden programmatically with configure() —
// tests and long-lived services flip collection on and off that way.
// Environment parsing is strict: a set-but-malformed variable throws
// std::invalid_argument naming the variable, instead of silently running
// with a misparsed configuration.
//
// MSTS_TRACE_PATH names the Chrome/Perfetto trace file span collection
// exports to (obs/span.h; BenchReport::write() flushes there). Parsing is
// as strict as the switches: setting it without MSTS_TRACE on, or pointing
// it at a file that cannot be opened for writing, throws
// std::invalid_argument at startup — the same fail-fast semantics as a
// malformed MSTS_THREADS — instead of silently tracing to nowhere.
#pragma once

#include <optional>
#include <string>

namespace msts::obs {

/// The observability switches.
struct Config {
  bool metrics = false;  ///< Counters / histograms / span timers collect.
  bool trace = false;    ///< Span timers + the span timeline collect.
  /// Destination for the Chrome/Perfetto span export; empty = no export.
  /// Only meaningful with trace on (from_env / configure enforce this).
  std::string trace_path;

  /// Reads MSTS_METRICS, MSTS_TRACE and MSTS_TRACE_PATH (see env_flag for
  /// accepted switch values; the path must come with MSTS_TRACE on and be
  /// writable, else std::invalid_argument).
  static Config from_env();
};

/// Installs `config`, replacing whatever was active (including the
/// environment-derived defaults). Thread-safe.
void configure(const Config& config);

/// The currently active configuration.
Config current_config();

/// True when metric collection is on. One relaxed atomic load.
bool metrics_enabled();

/// True when trace collection is on. One relaxed atomic load.
bool trace_enabled();

/// True when either switch is on — the condition that arms an obs::Span.
bool spans_armed();

/// The configured trace-export path ("" when none). Not a hot-path call
/// (takes a lock); exporters read it once per flush.
std::string trace_path();

// ---------------------------------------------------------------------------
// Strict environment parsing (shared by the rest of the toolkit; notably
// stats::max_threads uses env_int for MSTS_THREADS).
// ---------------------------------------------------------------------------

/// Boolean environment variable: unset / "" / "0" / "false" / "off" / "no"
/// are false; "1" / "true" / "on" / "yes" are true (case-insensitive).
/// Anything else throws std::invalid_argument.
bool env_flag(const char* name);

/// Integer environment variable constrained to [min, max]. Returns nullopt
/// when unset or empty; throws std::invalid_argument (with the variable
/// name, the offending value and the accepted range in the message) on
/// non-numeric text, trailing junk, or out-of-range / overflowing values.
std::optional<long> env_int(const char* name, long min, long max);

/// Floating-point environment variable constrained to [min, max]. Same
/// strictness contract as env_int.
std::optional<double> env_double(const char* name, double min, double max);

}  // namespace msts::obs
