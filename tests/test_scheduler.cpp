// Tests for the deterministic work-stealing scheduler (stats/scheduler.h):
// coverage at every width, help-first nested joins (deadlock-free down to a
// single worker), deterministic lowest-index exception propagation, steal
// accounting, shared-handle growth, detached posted tasks, and bit-identity
// of nested MC runs.
//
// Suite names start with "Sched" on purpose: the sanitizer leg's ctest
// regex (ROADMAP) picks these up for the TSan run.
#include "stats/scheduler.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <latch>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/config.h"
#include "obs/registry.h"
#include "stats/parallel.h"
#include "stats/yield.h"

namespace msts::stats {
namespace {

class EnvGuard {
 public:
  explicit EnvGuard(const char* name = "MSTS_THREADS") : name_(name) {
    const char* v = std::getenv(name_);
    had_ = (v != nullptr);
    if (had_) saved_ = v;
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

TEST(SchedScheduler, RunsEveryIndexExactlyOnceAtEveryWidth) {
  for (const int workers : {1, 2, 4, 8}) {
    Scheduler sched(workers);
    EXPECT_EQ(sched.workers(), workers);
    const std::size_t n = 257;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    sched.run(n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at width " << workers;
    }
  }
}

TEST(SchedScheduler, ZeroAndOneIndexShortCircuit) {
  Scheduler sched(2);
  std::atomic<int> calls{0};
  sched.run(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  sched.run(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran_on = std::this_thread::get_id();
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(ran_on, caller);  // n == 1 runs inline on the calling thread
}

// The deadlock-freedom pin: nested run() from inside a task on a ONE-worker
// scheduler. The joining worker must drain the child set itself (help-first
// join) — a blocking join would deadlock here, and ctest's timeout would
// flag it.
TEST(SchedScheduler, WidthOneNestedSubmissionIsDeadlockFree) {
  Scheduler sched(1);
  std::vector<std::atomic<int>> hits(4 * 8);
  for (auto& h : hits) h.store(0);
  sched.run(4, [&](std::size_t outer) {
    sched.run(8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

// Two levels of nesting at several widths, including deeper-than-width
// fan-outs: the help-first join must keep every level making progress.
TEST(SchedScheduler, DeepNestingCoversAllIndices) {
  for (const int workers : {1, 2, 4}) {
    Scheduler sched(workers);
    std::atomic<int> leaves{0};
    sched.run(3, [&](std::size_t) {
      sched.run(3, [&](std::size_t) {
        sched.run(5, [&](std::size_t) {
          leaves.fetch_add(1, std::memory_order_relaxed);
        });
      });
    });
    EXPECT_EQ(leaves.load(), 3 * 3 * 5) << "width " << workers;
  }
}

// Deterministic exception propagation: several indices throw, and at any
// width (any steal schedule) the *lowest* failing index's exception is the
// one rethrown.
TEST(SchedScheduler, LowestFailingIndexWinsAtEveryWidth) {
  for (const int workers : {1, 2, 8}) {
    Scheduler sched(workers);
    bool caught = false;
    try {
      sched.run(64, [](std::size_t i) {
        if (i == 12 || i == 33 || i == 40) {
          throw std::runtime_error("fail@" + std::to_string(i));
        }
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "fail@12") << "width " << workers;
    }
    EXPECT_TRUE(caught) << "width " << workers;
  }
}

// Steal accounting. A one-worker scheduler with an external caller forces a
// steal deterministically: the first chunk to execute blocks until the
// other chunk has run, and since the worker pops one chunk and blocks in
// it, the external joiner MUST steal the remaining chunk (its only way of
// acquiring work) for the rendezvous to complete. The bounded wait turns a
// broken steal path into a failure instead of a hang.
TEST(SchedScheduler, ExternalJoinerStealsAndIsCounted) {
  const obs::Config saved = obs::current_config();
  obs::Config cfg;
  cfg.metrics = true;
  obs::configure(cfg);
  (void)obs::Registry::instance().drain();

  {
    Scheduler sched(1);
    std::mutex mu;
    std::condition_variable cv;
    bool arrived[2] = {false, false};
    std::atomic<bool> timed_out{false};
    sched.run(2, [&](std::size_t i) {
      std::unique_lock<std::mutex> lock(mu);
      arrived[i] = true;
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(20),
                       [&] { return arrived[1 - i]; })) {
        timed_out.store(true, std::memory_order_relaxed);
      }
    });
    EXPECT_FALSE(timed_out.load()) << "chunks did not overlap across threads";
  }

  std::uint64_t steals = 0;
  for (const auto& m : obs::Registry::instance().drain()) {
    if (m.name == "sched.steal") steals = m.count;
  }
  EXPECT_GE(steals, 1u);
  obs::configure(saved);
}

// The shared handle's contract: same instance for requests it can already
// serve, a bigger scheduler on growth, and the old
// handle stays fully usable for in-flight callers.
TEST(SchedScheduler, SharedHandleGrowsAndKeepsOldAlive) {
  const std::shared_ptr<Scheduler> a = Scheduler::shared(2);
  ASSERT_GE(a->workers(), 2);
  EXPECT_EQ(Scheduler::shared(1).get(), a.get());
  EXPECT_EQ(Scheduler::shared(a->workers()).get(), a.get());

  const std::shared_ptr<Scheduler> b = Scheduler::shared(a->workers() + 2);
  EXPECT_NE(b.get(), a.get());
  EXPECT_GE(b->workers(), a->workers() + 2);

  // The superseded scheduler still runs work for its remaining holders.
  std::atomic<int> count{0};
  a->run(32, [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(count.load(), 32);
}

// Concurrent external callers share one scheduler's workers; each caller's
// per-index results stay correct and complete.
TEST(SchedSchedulerConcurrent, ExternalCallersShareWorkers) {
  Scheduler sched(4);
  constexpr int kCallers = 3;
  constexpr std::size_t kN = 128;
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int repeat = 0; repeat < 3; ++repeat) {
        std::vector<int> out(kN, -1);
        sched.run(kN, [&](std::size_t i) { out[i] = c + static_cast<int>(i); });
        for (std::size_t i = 0; i < kN; ++i) {
          if (out[i] != c + static_cast<int>(i)) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(bad.load(), 0);
}

// Detached tasks (Scheduler::post). A gate task holds the only worker of a
// width-1 scheduler so that later posts are all queued at once.
class Gate {
 public:
  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(SchedPost, RunsInFifoOrderAtWidthOne) {
  Scheduler sched(1);
  Gate gate;
  sched.post([&] { gate.wait(); });
  constexpr int kTasks = 100;
  std::vector<int> order;  // written only by the single worker
  std::latch done(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    sched.post([&, i] {
      order.push_back(i);
      done.count_down();
    });
  }
  gate.open();
  done.wait();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(order[i], i);
}

// A posted task runs on a worker, so a run() inside it is a nested task-set
// on the same scheduler; at width 1 the worker drains it itself.
TEST(SchedPost, PostedTaskThatRunsFinishesAtWidthOne) {
  Scheduler sched(1);
  std::atomic<int> hits{0};
  std::atomic<bool> current_ok{false};
  std::latch done(1);
  sched.post([&] {
    current_ok.store(Scheduler::current() == &sched);
    sched.run(16, [&](std::size_t) { hits.fetch_add(1, std::memory_order_relaxed); });
    done.count_down();
  });
  done.wait();
  EXPECT_TRUE(current_ok.load());
  EXPECT_EQ(hits.load(), 16);
}

// The destructor runs every queued posted task before joining. The gate
// task sleeps briefly so the destructor usually starts with the rest still
// queued; the count holds either way.
TEST(SchedPost, DestructorRunsEveryQueuedTask) {
  constexpr int kTasks = 64;
  std::atomic<int> ran{0};
  {
    Scheduler sched(1);
    sched.post([] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
    for (int i = 0; i < kTasks; ++i) {
      sched.post([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(ran.load(), kTasks);
}

// An external run() joiner helps with chunks only: while the only worker is
// held by a posted task and more posted tasks are queued, the caller runs
// every chunk itself and none of the posted tasks.
TEST(SchedPost, ExternalJoinerNeverRunsPostedTasks) {
  Scheduler sched(1);
  Gate gate;
  std::latch holding(1);
  sched.post([&] {
    holding.count_down();
    gate.wait();
  });
  holding.wait();  // the worker is inside the gate task

  constexpr int kTasks = 8;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> ran{0};
  std::atomic<int> on_caller{0};
  std::latch done(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    sched.post([&] {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
      done.count_down();
    });
  }
  std::atomic<int> hits{0};
  sched.run(32, [&](std::size_t) { hits.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(hits.load(), 32);
  EXPECT_EQ(ran.load(), 0) << "the joiner took a posted task";

  gate.open();
  done.wait();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(on_caller.load(), 0);
}

// parallel_for_index called from inside a scheduler task must route to the
// same scheduler (Scheduler::current()), not spawn a second one.
TEST(SchedSchedulerNested, CurrentIsSetInsideTasksOnly) {
  EXPECT_EQ(Scheduler::current(), nullptr);
  Scheduler sched(2);
  std::atomic<int> wrong{0};
  sched.run(4, [&](std::size_t) {
    if (Scheduler::current() != &sched) wrong.fetch_add(1);
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(Scheduler::current(), nullptr);
}

// The end-to-end determinism pin for nested MC: evaluate_test_mc launched
// from inside scheduler tasks with inner threading enabled produces results
// bit-identical to the fully serial evaluation.
TEST(SchedSchedulerNested, NestedMcBitIdenticalToSerial) {
  EnvGuard guard;
  ::setenv("MSTS_THREADS", "4", 1);

  const Normal param{10.0, 1.0};
  const auto spec = SpecLimits::at_least(8.5);
  const auto model = ErrorModel::uniform(0.4);
  constexpr int kOuter = 4;
  constexpr int kTrials = 60000;

  TestOutcome serial[kOuter];
  for (int c = 0; c < kOuter; ++c) {
    Rng rng(5000 + c);
    serial[c] = evaluate_test_mc(param, spec, spec, model, rng, kTrials, 1);
  }

  std::atomic<int> mismatches{0};
  parallel_for_index(kOuter, 4, [&](std::size_t c) {
    Rng rng(5000 + static_cast<std::uint64_t>(c));
    // threads = 0 resolves to MSTS_THREADS=4 and, running inside a
    // scheduler task, submits the MC blocks as a nested task-set.
    const auto out = evaluate_test_mc(param, spec, spec, model, rng, kTrials, 0);
    const auto& ref = serial[c];
    if (out.yield != ref.yield || out.defect_rate != ref.defect_rate ||
        out.accept_rate != ref.accept_rate || out.yield_loss != ref.yield_loss ||
        out.fault_coverage_loss != ref.fault_coverage_loss) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace msts::stats
