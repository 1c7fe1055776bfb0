#include "harness.h"

#include <sys/resource.h>

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "base/simd.h"
#include "core/coverage.h"
#include "obs/registry.h"
#include "stats/parallel.h"
#include "stats/yield.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string module_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string() : std::string(name, dot);
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args a;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--workload") {
      a.workload = need(i);
    } else if (k == "--seed") {
      a.seed = std::stoull(need(i));
    } else if (k == "--seconds") {
      a.seconds = std::stod(need(i));
    } else if (k == "--trace") {
      const std::string v = need(i);
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--out") {
      a.out_path = need(i);
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return a;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int process_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

void Record::set_setup(const SetupSamples& samples) {
  set("setup_s", median(samples.cpu()), "s");
  set("setup_wall_s", median(samples.wall()), "s");
  facts["setup_samples"] = std::to_string(samples.cpu().size());
}

void Record::set_throughput(const std::vector<double>& per_wall_s,
                            const std::vector<double>& per_cpu_s) {
  set("throughput", median(per_wall_s), "units/s");
  set("cpu_throughput", median(per_cpu_s), "units/cpu_s");
}

void add_host_facts(Record& rec) {
  rec.facts["host.nproc"] = std::to_string(std::thread::hardware_concurrency());
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  rec.facts["host.cpu_model"] = cpu;
  rec.facts["host.isa"] = msts::simd::isa_name(msts::simd::active_isa());
  rec.facts["host.threads"] = std::to_string(msts::stats::resolve_threads(0));
  rec.facts["host.build_type"] = PERFBENCH_BUILD_TYPE;
}

void write_record(const Record& rec, const std::string& path) {
  std::ostringstream os;
  os << "{\"workload\":\"" << json_escape(rec.workload) << "\",";
  os << "\"correct\":" << (rec.correct ? "true" : "false") << ",";
  os << "\"attempted\":" << rec.attempted << ",\"failed\":" << rec.failed << ",";
  os << "\"notes\":[";
  for (std::size_t i = 0; i < rec.notes.size(); ++i) {
    os << (i ? "," : "") << "\"" << json_escape(rec.notes[i]) << "\"";
  }
  os << "],\"facts\":{";
  bool first = true;
  for (const auto& [k, v] : rec.facts) {
    os << (first ? "" : ",") << "\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
    first = false;
  }
  os << "},\"metrics\":{";
  first = true;
  for (const auto& [k, m] : rec.metrics) {
    os << (first ? "" : ",") << "\"" << json_escape(k) << "\":{\"value\":"
       << json_number(m.value) << ",\"unit\":\"" << json_escape(m.unit) << "\"}";
    first = false;
  }
  os << "},\"layer_table\":" << rec.layer_table_json << "}\n";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write result record " + path);
  out << os.str();
  if (!out.flush()) throw std::runtime_error("cannot write result record " + path);
}

void print_record(const Record& rec) {
  std::fprintf(stderr, "\n[%s] correct=%s attempted=%llu failed=%llu\n",
               rec.workload.c_str(), rec.correct ? "true" : "false",
               static_cast<unsigned long long>(rec.attempted),
               static_cast<unsigned long long>(rec.failed));
  for (const auto& [k, v] : rec.facts) {
    std::fprintf(stderr, "  %-28s %s\n", k.c_str(), v.c_str());
  }
  for (const auto& [k, m] : rec.metrics) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", k.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& n : rec.notes) std::fprintf(stderr, "  NOTE: %s\n", n.c_str());
}

// ---- spans -------------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
}

std::int64_t Tracer::now_ns() const { return to_ns(Clock::now()); }

void Tracer::add(const SpanRecord& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Span::Span(Tracer* tracer, const char* name, std::uint32_t parent) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  rec_.name = name;
  rec_.parent = parent;
  rec_.id = tracer_->next_id();
  rec_.start_ns = tracer_->now_ns();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  rec_.end_ns = tracer_->now_ns();
  tracer_->add(rec_);
}

LayerTable layer_table(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const SpanRecord& p = spans[it->second];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) kids[it->second].emplace_back(a, b);
  }
  std::map<std::string, LayerTable::Row> rows;
  LayerTable t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    const double self_s = 1e-9 * static_cast<double>(s.end_ns - s.start_ns - covered);
    const bool root = s.parent == 0 || index.find(s.parent) == index.end();
    std::string layer = root ? "unattributed" : module_of(s.name);
    if (layer.empty()) layer = "unattributed";
    LayerTable::Row& r = rows[layer];
    r.layer = layer;
    r.self_s += self_s;
    ++r.spans;
    if (root) {
      t.parent_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
      ++t.roots;
    }
  }
  for (auto& [k, r] : rows) {
    t.rows_sum_s += r.self_s;
    t.rows.push_back(r);
  }
  return t;
}

double LayerTable::self_of(const std::string& layer) const {
  for (const Row& r : rows) {
    if (r.layer == layer) return r.self_s;
  }
  return 0.0;
}

bool LayerTable::reconciles() const {
  return roots > 0 && std::abs(rows_sum_s - parent_s) <= 1e-6 * std::max(parent_s, 1e-9);
}

std::string LayerTable::to_json() const {
  std::ostringstream os;
  os << "{\"parent_s\":" << json_number(parent_s) << ",\"rows_sum_s\":"
     << json_number(rows_sum_s) << ",\"roots\":" << roots << ",\"reconciles\":"
     << (reconciles() ? "true" : "false") << ",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << (i ? "," : "") << "{\"layer\":\"" << json_escape(rows[i].layer)
       << "\",\"self_s\":" << json_number(rows[i].self_s)
       << ",\"share\":" << json_number(parent_s > 0 ? rows[i].self_s / parent_s : 0.0)
       << ",\"spans\":" << rows[i].spans << "}";
  }
  os << "]}";
  return os.str();
}

void LayerTable::print(const std::string& title) const {
  std::fprintf(stderr, "\nlayer table: %s (%llu span trees)\n", title.c_str(),
               static_cast<unsigned long long>(roots));
  std::fprintf(stderr, "  %-14s %12s %8s %10s\n", "layer", "self_s", "share", "spans");
  for (const Row& r : rows) {
    std::fprintf(stderr, "  %-14s %12.6f %7.2f%% %10llu\n", r.layer.c_str(), r.self_s,
                 parent_s > 0 ? 100.0 * r.self_s / parent_s : 0.0,
                 static_cast<unsigned long long>(r.spans));
  }
  std::fprintf(stderr, "  %-14s %12.6f   (rows sum %.6f s: %s)\n", "parent", parent_s,
               rows_sum_s, reconciles() ? "reconciles" : "DOES NOT RECONCILE");
}

std::vector<double> span_durations(const std::vector<SpanRecord>& spans,
                                   const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (name == s.name) out.push_back(1e-9 * static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

void add_layer_metrics(Record& rec, const LayerTable& table, double units) {
  const double parent = table.parent_s > 0 ? table.parent_s : 1.0;
  for (const char* m : kTracedModules) {
    rec.set(std::string(m) + ".self_frac", table.self_of(m) / parent, "ratio");
  }
  rec.set("obs.unattributed_frac", table.self_of("unattributed") / parent, "ratio");
  rec.set("layer.unit_ms", 1e3 * table.parent_s / std::max(units, 1.0), "ms");
  rec.layer_table_json = table.to_json();
  if (!table.reconciles()) rec.fail("layer table does not reconcile with its parent");
}

void add_replay_metrics(Record& rec, int threads, double replay_rate, double traced_rate) {
  rec.set("stats.scaling_eff", rec.metrics["throughput"].value / (threads * replay_rate),
          "ratio");
  rec.set("obs.trace_overhead_frac", (replay_rate - traced_rate) / replay_rate, "ratio");
}

void add_evaluate_test_probe(Record& rec, const msts::core::ParameterStudy& study) {
  std::vector<double> us;
  for (int i = 0; i < 21; ++i) {
    const auto t0 = Clock::now();
    (void)msts::stats::evaluate_test(study.population, study.spec, study.row("Tol").threshold,
                                     msts::stats::ErrorModel::uniform(study.error_wc));
    us.push_back(1e6 * seconds_since(t0));
  }
  rec.set("stats.evaluate_test_us", median(us), "us");
}

void add_plan_cache_hit_ratio(Record& rec) {
  double hit = 0.0, lookups = 0.0;
  for (const char* cache : {"fft", "rfft", "window"}) {
    const std::string base = std::string("dsp.plan_cache.") + cache;
    const auto h = static_cast<double>(counter_value(base + ".hit"));
    hit += h;
    lookups += h + static_cast<double>(counter_value(base + ".miss"));
  }
  if (lookups > 0) rec.set("dsp.plan_cache_hit_ratio", hit / lookups, "ratio");
}

std::uint64_t counter_value(const std::string& name) {
  for (const msts::obs::Metric& m : msts::obs::Registry::instance().snapshot()) {
    if (m.name == name) return m.count;
  }
  return 0;
}

}  // namespace perfbench
