#include "obs/registry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <vector>

namespace msts::obs {

const char* to_string(Metric::Kind kind) {
  switch (kind) {
    case Metric::Kind::kCounter: return "counter";
    case Metric::Kind::kTimer: return "timer";
    case Metric::Kind::kHistogram: return "histogram";
  }
  return "?";
}

std::size_t histogram_bin_of(double value) {
  if (!(value > 0.0) || !std::isfinite(value)) return 0;
  // ilogb is exact on the exponent, so binning never depends on rounding.
  const int e = std::ilogb(value);
  const long idx = static_cast<long>(e) + 33;
  if (idx < 1) return 1;
  if (idx >= static_cast<long>(Metric::kHistBins)) return Metric::kHistBins - 1;
  return static_cast<std::size_t>(idx);
}

namespace {

// Per-metric accumulator. All fields merge with commutative integer
// operations, so totals are independent of merge order.
struct Cell {
  Metric::Kind kind = Metric::Kind::kCounter;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ns = 0;
  std::array<std::uint64_t, Metric::kHistBins> bins{};

  void merge_from(const Cell& o) {
    kind = o.kind;
    count += o.count;
    total_ns += o.total_ns;
    min_ns = std::min(min_ns, o.min_ns);
    max_ns = std::max(max_ns, o.max_ns);
    for (std::size_t i = 0; i < bins.size(); ++i) bins[i] += o.bins[i];
  }
};

using CellMap = std::map<std::string, Cell, std::less<>>;

Cell& cell_of(CellMap& map, std::string_view name, Metric::Kind kind) {
  auto it = map.find(name);
  if (it == map.end()) it = map.emplace(std::string(name), Cell{}).first;
  it->second.kind = kind;
  return it->second;
}

}  // namespace

// Owns the retired totals and the set of live thread-local sinks. Leaked
// (never destroyed) so sinks of late-exiting threads always find it.
struct Registry::Impl {
  struct Sink {
    mutable std::mutex mu;  // taken per-update (uncontended) and by snapshots
    CellMap cells;
    Impl* owner = nullptr;

    ~Sink() {
      if (owner != nullptr) owner->retire(*this);
    }
  };

  std::mutex mu;  // guards `sinks` and `retired`; ordered before Sink::mu
  std::vector<Sink*> sinks;
  CellMap retired;

  Sink& local_sink() {
    thread_local Sink sink;
    if (sink.owner == nullptr) {
      std::lock_guard<std::mutex> lock(mu);
      sink.owner = this;
      sinks.push_back(&sink);
    }
    return sink;
  }

  void retire(Sink& sink) {
    std::lock_guard<std::mutex> lock(mu);
    sinks.erase(std::remove(sinks.begin(), sinks.end(), &sink), sinks.end());
    std::lock_guard<std::mutex> sink_lock(sink.mu);
    for (const auto& [name, cell] : sink.cells) {
      cell_of(retired, name, cell.kind).merge_from(cell);
    }
    sink.cells.clear();
  }
};

Registry::Impl* Registry::impl() {
  static Impl* the = new Impl;  // leaked by design, see Impl
  return the;
}

const Registry::Impl* Registry::impl() const {
  return const_cast<Registry*>(this)->impl();
}

Registry& Registry::instance() {
  static Registry* the = new Registry;
  return *the;
}

void Registry::counter_add(std::string_view name, std::uint64_t delta) {
  Impl::Sink& s = impl()->local_sink();
  std::lock_guard<std::mutex> lock(s.mu);
  cell_of(s.cells, name, Metric::Kind::kCounter).count += delta;
}

void Registry::timer_record_ns(std::string_view name, std::uint64_t ns) {
  Impl::Sink& s = impl()->local_sink();
  std::lock_guard<std::mutex> lock(s.mu);
  Cell& c = cell_of(s.cells, name, Metric::Kind::kTimer);
  ++c.count;
  c.total_ns += ns;
  c.min_ns = std::min(c.min_ns, ns);
  c.max_ns = std::max(c.max_ns, ns);
  ++c.bins[histogram_bin_of(1e-9 * static_cast<double>(ns))];
}

void Registry::histogram_record(std::string_view name, double value) {
  Impl::Sink& s = impl()->local_sink();
  std::lock_guard<std::mutex> lock(s.mu);
  Cell& c = cell_of(s.cells, name, Metric::Kind::kHistogram);
  ++c.count;
  ++c.bins[histogram_bin_of(value)];
}

namespace {

std::vector<Metric> to_metrics(const CellMap& merged) {
  std::vector<Metric> out;
  out.reserve(merged.size());
  for (const auto& [name, cell] : merged) {
    Metric m;
    m.name = name;
    m.kind = cell.kind;
    m.count = cell.count;
    m.total_ns = cell.total_ns;
    m.min_ns = (cell.count == 0 || cell.kind != Metric::Kind::kTimer) ? 0 : cell.min_ns;
    m.max_ns = cell.max_ns;
    m.bins = cell.bins;
    out.push_back(std::move(m));
  }
  return out;  // std::map iteration is already name-sorted
}

}  // namespace

std::vector<Metric> Registry::snapshot() const {
  Impl* im = const_cast<Registry*>(this)->impl();
  CellMap merged;
  {
    std::lock_guard<std::mutex> lock(im->mu);
    for (const auto& [name, cell] : im->retired) {
      cell_of(merged, name, cell.kind).merge_from(cell);
    }
    for (const Impl::Sink* sink : im->sinks) {
      std::lock_guard<std::mutex> sink_lock(sink->mu);
      for (const auto& [name, cell] : sink->cells) {
        cell_of(merged, name, cell.kind).merge_from(cell);
      }
    }
  }
  return to_metrics(merged);
}

std::vector<Metric> Registry::drain() {
  Impl* im = impl();
  CellMap merged;
  {
    // One registry lock covers the whole collect-and-clear; sink retirement
    // (thread exit) takes the same lock, so an exiting worker's cells end up
    // either in this drain or intact in `retired` for the next one.
    std::lock_guard<std::mutex> lock(im->mu);
    merged.swap(im->retired);
    for (Impl::Sink* sink : im->sinks) {
      std::lock_guard<std::mutex> sink_lock(sink->mu);
      for (const auto& [name, cell] : sink->cells) {
        cell_of(merged, name, cell.kind).merge_from(cell);
      }
      sink->cells.clear();
    }
  }
  return to_metrics(merged);
}

void Registry::reset() {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  im->retired.clear();
  for (Impl::Sink* sink : im->sinks) {
    std::lock_guard<std::mutex> sink_lock(sink->mu);
    sink->cells.clear();
  }
}

}  // namespace msts::obs
