// The synthesis service front end: bounded admission + workers + cache.
//
// A SynthesisEngine owns a private stats::Scheduler of `workers` threads
// behind a *bounded admission queue*: submit() blocks the producer once
// `queue_capacity` requests are in flight (admission-control backpressure —
// a service under overload slows its callers down instead of growing an
// unbounded queue), try_submit() refuses instead of blocking. Each admitted
// request is posted to the scheduler as a detached task (Scheduler::post);
// requests execute concurrently on its workers, and each one first consults
// the content-hash PlanCache (service/cache.h) and only synthesizes on a
// miss, outside any lock.
//
// One thread layer: a parallel region a request opens (MC evaluation, sweep
// scoring) runs through stats::parallel_for_index as a nested task-set on
// the engine's own workers (Scheduler::current()), so concurrent requests
// share one set of workers — their chunks interleave on the same deques —
// instead of each forking a private partition and oversubscribing the
// machine.
//
// Determinism contract: synthesis consumes no RNG, so a served result is
// bit-identical to a direct synthesize_direct() call for the same request —
// whether it came from a worker, the cache, or a concurrent miss that lost
// the insertion race. result_content() equality is the test for this.
//
// Instrumentation (msts::obs): counters service.requests.{submitted,
// rejected,errors} and the service.cache.* counters. The bench_service
// target turns these plus its own per-request samples into p50/p99 latency
// and plans/sec in BENCH_service.json.
//
// Whenever spans are armed (MSTS_METRICS or MSTS_TRACE), every request
// records its stages (obs/span.h): an async "service.request" root spanning
// admission to fulfillment, an async "service.queue_wait" child, and
// on-thread "service.cache_probe" / "service.execute" / "service.fulfill"
// stages. Each closes into the registry timer of the same name. They are
// built from the *same* steady_clock time points as Served's timings, so
// the queue_wait stage equals queue_wait_ns exactly and cache_probe +
// execute sum to exec_ns exactly. With MSTS_TRACE on they also form the
// request's span tree in the timeline, and work nested inside execution
// (core.synthesize, stats.parallel_for / sched.run / sched.task chunks,
// dsp plan-cache builds) parents under the execute span.
//
// Requests whose end-to-end latency exceeds the slow-request threshold
// (EngineOptions::slow_request_threshold_s, or MSTS_SLOW_REQUEST_S when
// that is negative; unset = disabled) bump service.slow_requests and log
// one stderr line carrying the hex content key — enough to find and replay
// the offending request.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/span.h"
#include "service/cache.h"
#include "service/request.h"
#include "stats/scheduler.h"

namespace msts::service {

struct EngineOptions {
  /// Worker threads, in [0, 4096]; 0 resolves via stats::resolve_threads
  /// (MSTS_THREADS / hardware concurrency).
  int workers = 0;
  /// Admission bound (>= 1): submit() blocks (try_submit() refuses) while
  /// this many requests are queued or executing.
  std::size_t queue_capacity = 1024;
  /// Master cache switch (per-request use_cache can only opt *out*).
  bool cache = true;
  /// End-to-end latency (queue wait + execution, seconds) above which a
  /// request is reported as slow (counter and stderr log), at most 1e9; NaN
  /// is rejected. Negative = resolve from MSTS_SLOW_REQUEST_S; unset env =
  /// disabled.
  double slow_request_threshold_s = -1.0;
};

/// One served request: the shared immutable result plus per-request timing.
struct Served {
  std::shared_ptr<const SynthesisResult> result;
  std::uint64_t queue_wait_ns = 0;  ///< Admission to execution start.
  std::uint64_t exec_ns = 0;        ///< Execution start to completion.
  bool cache_hit = false;

  std::uint64_t latency_ns() const { return queue_wait_ns + exec_ns; }
};

class SynthesisEngine {
 public:
  /// Throws std::invalid_argument naming the first invalid option field,
  /// before any worker thread starts.
  explicit SynthesisEngine(EngineOptions options = {});

  /// Drains every admitted request, then joins the workers.
  ~SynthesisEngine();

  SynthesisEngine(const SynthesisEngine&) = delete;
  SynthesisEngine& operator=(const SynthesisEngine&) = delete;

  /// Admits one request, blocking while the queue is full. The future
  /// carries the served result (or the synthesis exception).
  std::future<Served> submit(SynthesisRequest request);

  /// Non-blocking admission: nullopt (and a service.requests.rejected count)
  /// when the queue is full.
  std::optional<std::future<Served>> try_submit(SynthesisRequest request);

  /// Submits every request and waits for all of them; results are returned
  /// in request order. Blocks for admission as submit() does, so batches
  /// larger than the queue capacity stream through it.
  std::vector<Served> run_batch(std::vector<SynthesisRequest> requests);

  int workers() const { return sched_.workers(); }
  std::size_t queue_capacity() const { return options_.queue_capacity; }
  std::size_t cache_size() const { return cache_.size(); }

  /// Requests currently admitted but not yet completed.
  std::size_t in_flight() const;

 private:
  std::future<Served> admit(SynthesisRequest request);
  Served execute(const SynthesisRequest& request,
                 std::chrono::steady_clock::time_point admitted_at, bool armed,
                 obs::SpanId root);
  void report_if_slow(const SynthesisRequest& request, const Served& served);

  EngineOptions options_;
  std::uint64_t slow_threshold_ns_ = UINT64_MAX;  ///< UINT64_MAX = disabled.
  PlanCache cache_;
  mutable std::mutex mu_;
  std::condition_variable cv_space_;
  std::size_t pending_ = 0;
  stats::Scheduler sched_;  // last member: dies first
};

}  // namespace msts::service
