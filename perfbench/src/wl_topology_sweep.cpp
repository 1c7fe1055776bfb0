// Workload `topology-sweep`: sweep::run_sweep on the 24-scenario matrix
// (4 topologies x LPF orders {2,4,6} x LO {9.5, 10.0} MHz) at the
// SweepOptions defaults (20,000 MC trials per study, mc_threads = 1),
// repeated. Unit: one scenario scored.
//
// The seed is the sweep's base seed (SweepOptions::seed), so it picks every
// scenario's MC stream; the matrix is fixed.
#include <algorithm>
#include <bit>
#include <vector>

#include "core/synthesizer.h"
#include "obs/config.h"
#include "obs/registry.h"
#include "service/request.h"
#include "stats/parallel.h"
#include "stats/yield.h"
#include "sweep/sweep.h"
#include "workloads.h"

namespace perfbench {

namespace {

using msts::sweep::Scenario;
using msts::sweep::ScenarioScore;

// The fingerprint run_sweep documents: FNV-1a over the ranked names and the
// bit pattern of every score.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  }
};

std::uint64_t fingerprint(const std::vector<ScenarioScore>& ranking) {
  Fnv f;
  for (const ScenarioScore& s : ranking) {
    f.str(s.name);
    f.u64(s.content_hash);
    f.u64(s.plan_tests);
    f.u64(s.translatable);
    f.u64(s.dft_required);
    f.f64(s.testability);
    f.f64(s.total_yield_loss);
    f.f64(s.worst_fcl);
    f.f64(s.mc_yield_loss);
    f.f64(s.mc_fcl);
  }
  return f.h;
}

// run_sweep through its public parts, serially, one span per call:
// make_streams -> per scenario content_hash, TestSynthesizer::synthesize,
// make_measurement_setup and evaluate_test_mc per study -> ranking.
std::uint64_t replay_sweep(const std::vector<Scenario>& scenarios,
                           const msts::sweep::SweepOptions& opts, Tracer* tr) {
  Span root(tr, "sweep_call");
  std::vector<msts::stats::Rng> streams;
  {
    Span s(tr, "stats.make_streams", root.id());
    streams = msts::stats::make_streams(msts::stats::Rng(opts.seed), scenarios.size());
  }
  std::vector<ScenarioScore> scores(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& sc = scenarios[i];
    Span scenario(tr, "sweep.score_scenario", root.id());
    msts::stats::Rng rng = streams[i];
    msts::service::SynthesisRequest request;
    request.graph = sc.graph;
    request.options = sc.options;
    ScenarioScore& score = scores[i];
    score.name = sc.name;
    {
      Span s(tr, "service.content_hash", scenario.id());
      score.content_hash = msts::service::content_hash(request);
    }
    std::vector<msts::core::PlannedTest> plan;
    {
      Span s(tr, "core.synthesize", scenario.id());
      const msts::core::TestSynthesizer synth(sc.graph, sc.options.adaptive,
                                              sc.options.spec_sigmas);
      plan = synth.synthesize();
    }
    {
      Span s(tr, "service.measurement_setup", scenario.id());
      (void)msts::service::make_measurement_setup(sc.graph, sc.options.measure);
    }
    score.plan_tests = plan.size();
    for (const msts::core::PlannedTest& t : plan) {
      if (t.translatable) {
        ++score.translatable;
      } else {
        ++score.dft_required;
      }
      if (!t.has_study) continue;
      const msts::core::ThresholdRow& tol = t.study.row("Tol");
      score.total_yield_loss += tol.outcome.yield_loss;
      score.worst_fcl = std::max(score.worst_fcl, tol.outcome.fault_coverage_loss);
      Span s(tr, "stats.evaluate_test_mc", scenario.id());
      const msts::stats::TestOutcome mc = msts::stats::evaluate_test_mc(
          t.study.population, t.study.spec, tol.threshold,
          msts::stats::ErrorModel::uniform(t.study.error_wc), rng, opts.mc_trials,
          opts.mc_threads);
      score.mc_yield_loss += mc.yield_loss;
      score.mc_fcl = std::max(score.mc_fcl, mc.fault_coverage_loss);
    }
    score.testability = score.plan_tests == 0 ? 0.0
                                              : static_cast<double>(score.translatable) /
                                                    static_cast<double>(score.plan_tests);
  }
  Span rank(tr, "sweep.rank", root.id());
  std::sort(scores.begin(), scores.end(), [](const ScenarioScore& a, const ScenarioScore& b) {
    if (a.testability != b.testability) return a.testability > b.testability;
    if (a.total_yield_loss != b.total_yield_loss) return a.total_yield_loss < b.total_yield_loss;
    if (a.worst_fcl != b.worst_fcl) return a.worst_fcl < b.worst_fcl;
    if (a.mc_yield_loss != b.mc_yield_loss) return a.mc_yield_loss < b.mc_yield_loss;
    return a.name < b.name;
  });
  return fingerprint(scores);
}

}  // namespace

Record run_topology_sweep(const Args& args) {
  Record rec;
  rec.workload = "topology-sweep";
  const int threads = msts::stats::resolve_threads(0);
  if (args.trace) msts::obs::configure({.metrics = true, .trace = false, .trace_path = ""});

  msts::sweep::SweepOptions opts;
  opts.seed = mix_seed(args.seed, 20);
  if (args.tiny) opts.mc_trials = 2000;

  // ---- set-up: matrix expansion plus one warm-up sweep ---------------------
  std::vector<Scenario> scenarios;
  SetupSamples setups;
  const auto setup = [&] {
    msts::sweep::ScenarioMatrix m;
    m.base = msts::path::reference_path_config();
    m.lo_freqs_hz = {9.5e6, 10.0e6};
    if (args.tiny) {
      m.topologies = {"canonical", "no-amp"};
      m.lpf_orders = {2};
    }
    scenarios = m.expand();
    (void)msts::sweep::run_sweep(scenarios, opts);
  };
  for (int r = 0; r < setup_reps(args.tiny); ++r) setups.take(setup);
  const double n_sc = static_cast<double>(scenarios.size());

  // ---- timed window ----------------------------------------------------------
  if (args.trace) msts::obs::Registry::instance().reset();
  std::vector<double> rates, rates_cpu;
  std::uint64_t first_fp = 0, attempted = 0, failed = 0;
  std::size_t reps = 0;
  const auto w0 = Clock::now();
  do {
    const Stopwatch sw;
    const auto result = msts::sweep::run_sweep(scenarios, opts);
    rates.push_back(n_sc / sw.wall_s());
    rates_cpu.push_back(n_sc / sw.cpu_s());
    if (reps == 0) {
      first_fp = result.fingerprint;
    } else if (result.fingerprint != first_fp) {
      failed += scenarios.size();
      rec.fail("sweep fingerprint differs between repetitions");
    }
    attempted += scenarios.size();
    ++reps;
    setups.maybe_take(setup);
  } while (seconds_since(w0) < args.seconds);
  rec.set_setup(setups);
  rec.set_throughput(rates, rates_cpu);
  rec.set("peak_rss_mib", peak_rss_mib(), "MiB");
  rec.facts["repetitions"] = std::to_string(reps);
  rec.facts["scenarios"] = std::to_string(scenarios.size());
  rec.facts["fingerprint"] = std::to_string(first_fp);
  const double sched_tasks = static_cast<double>(counter_value("sched.tasks"));
  const double sched_steals = static_cast<double>(counter_value("sched.steal"));

  // ---- correctness: the fingerprint of a 1-thread sweep ---------------------
  msts::sweep::SweepOptions serial = opts;
  serial.threads = 1;
  if (msts::sweep::run_sweep(scenarios, serial).fingerprint != first_fp) {
    failed += scenarios.size();
    rec.fail("fingerprint differs from the threads = 1 sweep");
  }

  if (args.trace) {
    const double units = n_sc * static_cast<double>(reps);
    rec.set("stats.sched_tasks", sched_tasks / units, "per_unit");
    rec.set("stats.sched_steals", sched_steals / units, "per_unit");
    const auto b0 = Clock::now();
    const std::uint64_t base_fp = replay_sweep(scenarios, opts, nullptr);
    const double thr1 = n_sc / seconds_since(b0);
    msts::obs::Registry::instance().reset();
    Tracer tracer;
    const auto t0 = Clock::now();
    const std::uint64_t traced_fp = replay_sweep(scenarios, opts, &tracer);
    const double thr_traced = n_sc / seconds_since(t0);
    const bool identical = base_fp == first_fp && traced_fp == first_fp;
    rec.facts["replay_bit_identical"] = identical ? "true" : "false";
    if (!identical) rec.fail("replayed sweep fingerprint differs from run_sweep");
    add_plan_cache_hit_ratio(rec);
    add_replay_metrics(rec, threads, thr1, thr_traced);
    const auto spans = tracer.spans();
    const LayerTable table = layer_table(spans);
    table.print("topology-sweep, replay at 1 thread");
    add_layer_metrics(rec, table, n_sc);
    rec.set("core.synthesize_ms", 1e3 * median(span_durations(spans, "core.synthesize")), "ms");
    rec.set("stats.evaluate_test_mc_ms",
            1e3 * median(span_durations(spans, "stats.evaluate_test_mc")), "ms");

    // Each scenario scored alone at one thread.
    std::vector<double> alone;
    msts::sweep::SweepOptions one = serial;
    for (const Scenario& s : scenarios) {
      const auto a0 = Clock::now();
      (void)msts::sweep::run_sweep({s}, one);
      alone.push_back(1e3 * seconds_since(a0));
    }
    rec.set("sweep.scenario_ms_p50", median(alone), "ms");
    rec.set("sweep.scenario_ms_max", *std::max_element(alone.begin(), alone.end()), "ms");

    // The analytic evaluation synthesis runs per study.
    add_evaluate_test_probe(
        rec, msts::core::TestSynthesizer(scenarios.front().graph).study_mixer_iip3());
  }
  rec.attempted = attempted;
  rec.failed = failed;
  rec.set("failed_frac", static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  rec.facts["mc_trials"] = std::to_string(opts.mc_trials);
  return rec;
}

}  // namespace perfbench
