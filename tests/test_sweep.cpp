// Tests for the scenario sweep engine (src/sweep): matrix expansion,
// deterministic parallel scoring (bit-identical rankings and fingerprints at
// 1, 2 and 8 threads — the acceptance contract), ranking order, and the MC
// cross-check columns. Runs under the `sweep` ctest label.
#include "sweep/sweep.h"

#include <cmath>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/digital_test.h"
#include "core/mc_validation.h"
#include "core/spec_backprop.h"
#include "core/test_program.h"
#include "path/receiver_path.h"

namespace msts::sweep {
namespace {

ScenarioMatrix default_matrix() {
  ScenarioMatrix m;
  m.base = path::reference_path_config();
  return m;
}

SweepOptions fast_opts(int threads = 0) {
  SweepOptions o;
  o.mc_trials = 4000;
  o.threads = threads;
  return o;
}

TEST(ScenarioMatrix, DefaultMatrixExpandsToTwelveUniqueValidScenarios) {
  const std::vector<Scenario> scenarios = default_matrix().expand();
  ASSERT_EQ(scenarios.size(), 12u);  // 4 topologies x 3 filter orders
  std::set<std::string> names;
  for (const Scenario& s : scenarios) {
    names.insert(s.name);
    EXPECT_NO_THROW(path::validate(s.graph)) << s.name;
  }
  EXPECT_EQ(names.size(), scenarios.size());
  EXPECT_TRUE(names.count("canonical/ord4")) << "canonical instance missing";
}

TEST(ScenarioMatrix, AxesCrossAndApplyToTheirBlocks) {
  ScenarioMatrix m = default_matrix();
  m.topologies = {"canonical", "dual-lpf"};
  m.lpf_orders = {2, 6};
  m.lo_freqs_hz = {9.0e6, 10.0e6};
  m.fir_taps = {9, 17};
  const std::vector<Scenario> scenarios = m.expand();
  ASSERT_EQ(scenarios.size(), 16u);  // 2 x 2 x 2 x 2

  for (const Scenario& s : scenarios) {
    for (const path::BlockConfig& b : s.graph.blocks) {
      if (b.kind == path::BlockKind::kLpf) {
        EXPECT_TRUE(b.lpf.order == 2 || b.lpf.order == 6) << s.name;
      }
      if (b.kind == path::BlockKind::kMixer) {
        EXPECT_TRUE(b.lo.freq_hz == 9.0e6 || b.lo.freq_hz == 10.0e6) << s.name;
      }
      if (b.kind == path::BlockKind::kFir) {
        EXPECT_TRUE(b.fir_taps == 9u || b.fir_taps == 17u) << s.name;
      }
    }
    // Axis values are part of the scenario name.
    EXPECT_NE(s.name.find("/lo"), std::string::npos) << s.name;
    EXPECT_NE(s.name.find("/taps"), std::string::npos) << s.name;
  }
  // dual-lpf applies the order to BOTH filter blocks.
  for (const Scenario& s : scenarios) {
    if (s.graph.count(path::BlockKind::kLpf) == 2) {
      const auto first = *s.graph.index_of(path::BlockKind::kLpf);
      EXPECT_EQ(s.graph.blocks[first].lpf.order,
                s.graph.blocks[first + 1].lpf.order)
          << s.name;
    }
  }
}

TEST(ScenarioMatrix, UnknownTopologyIsRejected) {
  EXPECT_THROW(make_topology("ring-vco", path::reference_path_config()),
               std::invalid_argument);
  ScenarioMatrix m = default_matrix();
  m.topologies = {"canonical", "typo"};
  EXPECT_THROW(m.expand(), std::invalid_argument);
}

TEST(Sweep, RejectsEmptyScenarioList) {
  EXPECT_THROW(run_sweep({}, fast_opts()), std::invalid_argument);
}

TEST(Sweep, ScoresAreSaneAndRankingIsOrdered) {
  const SweepResult r = run_sweep(default_matrix().expand(), fast_opts());
  ASSERT_EQ(r.ranking.size(), 12u);
  for (const ScenarioScore& s : r.ranking) {
    EXPECT_GT(s.plan_tests, 0u) << s.name;
    EXPECT_EQ(s.translatable + s.dft_required, s.plan_tests) << s.name;
    EXPECT_GE(s.testability, 0.0);
    EXPECT_LE(s.testability, 1.0);
    EXPECT_GE(s.total_yield_loss, 0.0);
    EXPECT_GE(s.worst_fcl, 0.0);
    EXPECT_NE(s.content_hash, 0u) << s.name;
    // The MC cross-check tracks the analytic columns. FCL gets a looser
    // band: its denominator is the small defect population (a few percent of
    // the 4000 trials), so its sampling noise is an order larger than YL's.
    EXPECT_NEAR(s.mc_yield_loss, s.total_yield_loss, 0.05) << s.name;
    EXPECT_NEAR(s.mc_fcl, s.worst_fcl, 0.2) << s.name;
  }
  // Best-first by the documented total ordering.
  for (std::size_t i = 1; i < r.ranking.size(); ++i) {
    const ScenarioScore& hi = r.ranking[i - 1];
    const ScenarioScore& lo = r.ranking[i];
    EXPECT_GE(hi.testability, lo.testability) << hi.name << " vs " << lo.name;
    if (hi.testability == lo.testability) {
      EXPECT_LE(hi.total_yield_loss, lo.total_yield_loss)
          << hi.name << " vs " << lo.name;
    }
  }
}

// The acceptance contract: the ranking (names, every score, the fingerprint)
// is bit-identical at 1, 2 and 8 threads.
TEST(SweepThreadCounts, RankingAndFingerprintBitIdenticalAcrossThreadCounts) {
  const std::vector<Scenario> scenarios = default_matrix().expand();
  ASSERT_GE(scenarios.size(), 12u);
  const SweepResult serial = run_sweep(scenarios, fast_opts(1));
  for (const int threads : {2, 8}) {
    const SweepResult parallel = run_sweep(scenarios, fast_opts(threads));
    EXPECT_EQ(parallel.fingerprint, serial.fingerprint) << threads;
    ASSERT_EQ(parallel.ranking.size(), serial.ranking.size()) << threads;
    for (std::size_t i = 0; i < serial.ranking.size(); ++i) {
      const ScenarioScore& a = serial.ranking[i];
      const ScenarioScore& b = parallel.ranking[i];
      EXPECT_EQ(a.name, b.name) << threads;
      EXPECT_EQ(a.content_hash, b.content_hash) << threads;
      EXPECT_EQ(a.plan_tests, b.plan_tests) << threads;
      // Bit-level double comparisons — no tolerance.
      EXPECT_EQ(a.testability, b.testability) << threads << " " << a.name;
      EXPECT_EQ(a.total_yield_loss, b.total_yield_loss) << threads << " " << a.name;
      EXPECT_EQ(a.worst_fcl, b.worst_fcl) << threads << " " << a.name;
      EXPECT_EQ(a.mc_yield_loss, b.mc_yield_loss) << threads << " " << a.name;
      EXPECT_EQ(a.mc_fcl, b.mc_fcl) << threads << " " << a.name;
    }
  }
}

// The nested-parallelism acceptance pin: inner MC threading on
// (mc_threads = 0 -> nested task-sets on the same scheduler workers) must
// not move a single bit of any ranking, score, or fingerprint relative to
// the fully serial inner evaluation, at 1, 2 and 8 outer threads.
TEST(SweepThreadCounts, NestedInnerMcBitIdenticalAcrossThreadCounts) {
  const std::vector<Scenario> scenarios = default_matrix().expand();
  const SweepResult serial = run_sweep(scenarios, fast_opts(1));
  for (const int threads : {1, 2, 8}) {
    SweepOptions opts = fast_opts(threads);
    opts.mc_threads = 0;  // nested: MC blocks fan out inside scenario tasks
    const SweepResult nested = run_sweep(scenarios, opts);
    EXPECT_EQ(nested.fingerprint, serial.fingerprint) << threads;
    ASSERT_EQ(nested.ranking.size(), serial.ranking.size()) << threads;
    for (std::size_t i = 0; i < serial.ranking.size(); ++i) {
      EXPECT_EQ(serial.ranking[i].name, nested.ranking[i].name) << threads;
      EXPECT_EQ(serial.ranking[i].mc_yield_loss, nested.ranking[i].mc_yield_loss)
          << threads << " " << serial.ranking[i].name;
      EXPECT_EQ(serial.ranking[i].mc_fcl, nested.ranking[i].mc_fcl)
          << threads << " " << serial.ranking[i].name;
    }
  }
}

// A scenario whose synthesis throws fails the sweep with the scenario name
// in the message, and when several could fail the lowest-indexed failure
// wins at any thread count.
TEST(Sweep, PoisonedScenarioFailsTheSweepWithItsName) {
  std::vector<Scenario> scenarios = default_matrix().expand();
  scenarios.resize(6);
  // Poison one scenario mid-list: an empty graph fails synthesis validation.
  scenarios[3].name = "poisoned/mid";
  scenarios[3].graph.blocks.clear();
  for (const int threads : {1, 2, 8}) {
    try {
      (void)run_sweep(scenarios, fast_opts(threads));
      FAIL() << "expected std::runtime_error at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned/mid"), std::string::npos)
          << "threads=" << threads << " what()=" << e.what();
    }
  }

  // Two poisoned scenarios: the lowest index is the one reported.
  scenarios[5].name = "poisoned/late";
  scenarios[5].graph.blocks.clear();
  for (const int threads : {1, 8}) {
    try {
      (void)run_sweep(scenarios, fast_opts(threads));
      FAIL() << "expected std::runtime_error at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned/mid"), std::string::npos)
          << "threads=" << threads << " what()=" << e.what();
      EXPECT_EQ(std::string(e.what()).find("poisoned/late"), std::string::npos)
          << "threads=" << threads << " what()=" << e.what();
    }
  }
}

TEST(Sweep, SeedChangesMcColumnsButNotThePlan) {
  std::vector<Scenario> scenarios = default_matrix().expand();
  scenarios.resize(2);
  SweepOptions a = fast_opts();
  SweepOptions b = fast_opts();
  b.seed = a.seed + 1;
  const SweepResult ra = run_sweep(scenarios, a);
  const SweepResult rb = run_sweep(scenarios, b);
  // Plans are RNG-free; only the MC cross-check columns may move.
  bool mc_moved = false;
  for (std::size_t i = 0; i < ra.ranking.size(); ++i) {
    EXPECT_EQ(ra.ranking[i].content_hash, rb.ranking[i].content_hash);
    EXPECT_EQ(ra.ranking[i].total_yield_loss, rb.ranking[i].total_yield_loss);
    mc_moved |= (ra.ranking[i].mc_yield_loss != rb.ranking[i].mc_yield_loss);
  }
  EXPECT_TRUE(mc_moved);
}

TEST(Sweep, FormatRankingListsEveryScenario) {
  std::vector<Scenario> scenarios = default_matrix().expand();
  scenarios.resize(3);
  const SweepResult r = run_sweep(scenarios, fast_opts());
  const std::string table = format_ranking(r);
  for (const ScenarioScore& s : r.ranking) {
    EXPECT_NE(table.find(s.name), std::string::npos) << s.name;
  }
}

// Identity oracle: the fingerprint of bench_sweep's matrix (reference base,
// two IF plans, so 24 scenarios; default options, 20000 MC trials per
// study). Plans, MC cross-checks and ranking all feed it.
TEST(Sweep, BenchMatrixFingerprintIsPinned) {
  ScenarioMatrix m = default_matrix();
  m.lo_freqs_hz = {9.5e6, 10.0e6};
  const std::vector<Scenario> scenarios = m.expand();
  ASSERT_EQ(scenarios.size(), 24u);
  EXPECT_EQ(run_sweep(scenarios).fingerprint, 0xa4a20d32f677e25dull);
}

// ---------------------------------------------------------------------------
// Every graph consumer on every sweep topology: it runs, or it rejects the
// graph with a message naming the block kind it finds missing or repeated
// (its formulas read one block per kind). Expectations are listed in
// make_topology's order: canonical, if-amp, dual-lpf, no-amp; "" = runs.
// ---------------------------------------------------------------------------

void expect_runs_or_names_kind(const std::vector<std::string>& rejected_kinds,
                               const std::function<void(const path::PathGraphConfig&)>& run) {
  const char* const topologies[] = {"canonical", "if-amp", "dual-lpf", "no-amp"};
  for (std::size_t t = 0; t < 4; ++t) {
    const path::PathGraphConfig g = make_topology(topologies[t], path::reference_path_config());
    const std::string& kind = rejected_kinds[t];
    try {
      run(g);
      EXPECT_TRUE(kind.empty()) << "accepted " << topologies[t];
    } catch (const std::invalid_argument& e) {
      EXPECT_FALSE(kind.empty()) << topologies[t] << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find(kind + " block"), std::string::npos)
          << topologies[t] << ": " << e.what();
    }
  }
}

TEST(TopologyConsumers, DigitalTester) {
  // Reads the mixer (LO), LPF, ADC and FIR; the amp is only propagated.
  expect_runs_or_names_kind({"", "", "lpf", ""}, [](const path::PathGraphConfig& g) {
    const core::DigitalTester tester(g);
    core::DigitalTestOptions opts;
    opts.record = 256;
    EXPECT_EQ(tester.ideal_codes(tester.plan(opts)).size(), opts.record);
  });
}

TEST(TopologyConsumers, TestProgram) {
  expect_runs_or_names_kind({"", "", "lpf", "amp"}, [](const path::PathGraphConfig& g) {
    EXPECT_FALSE(core::TestProgram(g, core::GuardBandPolicy::kAtTol).steps().empty());
  });
}

TEST(TopologyConsumers, BackpropagateSpec) {
  expect_runs_or_names_kind({"", "", "lpf", "amp"}, [](const path::PathGraphConfig& g) {
    EXPECT_EQ(core::backpropagate_spec(g, {}).blocks.size(), 3u);
  });
}

TEST(TopologyConsumers, ValidateIip3StudyMc) {
  // Reads only the mixer block, which every sweep topology has once; a graph
  // without one is rejected by name.
  auto run = [](const path::PathGraphConfig& g) {
    path::MeasureOptions opts;
    opts.digital_record = 1024;
    stats::Rng rng(31);
    const core::ParameterStudy study =
        core::TestSynthesizer(path::reference_path_config()).study_mixer_iip3();
    const core::McValidation v =
        core::validate_iip3_study_mc(g, study, 10, rng, true, opts, 1);
    EXPECT_TRUE(std::isfinite(v.mean_abs_meas_error));
  };
  expect_runs_or_names_kind({"", "", "", ""}, run);
  path::PathGraphConfig no_mixer = path::reference_path_config();
  no_mixer.blocks.erase(no_mixer.blocks.begin() + 1);
  EXPECT_THROW(run(no_mixer), std::invalid_argument);
}

}  // namespace
}  // namespace msts::sweep
