// Workload `service-mix`: an open loop of seeded Poisson arrivals against
// one service::SynthesisEngine in this process. One generator thread (this
// one) calls try_submit on a precomputed schedule; the engine has nproc - 1
// workers, so generator plus workers never exceed nproc threads.
//
// Traffic: 90 % of requests go to a hot set of 64 configs spread over the
// four sweep::make_topology arrangements (cache hits after the set-up warms
// them), 10 % are novel configs (misses: synthesis plus cache insert). The
// mix is exact: every block of ten consecutive requests holds one novel one.
//
// Every latency is timed from the request's due time on the schedule, not
// from when it was sent, so a stalled generator or a backlog counts against
// the requests behind it. Latency = (send - due) + the engine's own
// queue-wait + execution time (Served); the engine stamps admission inside
// try_submit, just after the send stamp.
//
// Phases:
//  * nominal — Poisson arrivals at a fixed 10,000 req/s give the hit and
//    miss latencies;
//  * capacity — the admission queue is kept full (a bounded number of
//    requests outstanding, same mix) and completed requests per wall / CPU
//    second give `throughput` / `cpu_throughput`;
//  * ladder — rising Poisson rates give max_rps_at_slo: the highest offered
//    rate whose p99 over all requests (refused = over the limit) stays
//    within 2 ms with no growing backlog, interpolated between the last
//    passing and the first failing rung.
//
// Generator lag is split in two. Time the generator spent blocked inside the
// previous try_submit belongs to the service (the caller really waits there)
// and stays in the latency; `harness.gen_lag_ms_p99` is only the lateness
// the generator caused itself. A phase whose own lag p99 exceeds 0.5 ms is
// invalid: the rate was not really offered, and a ladder rung like that
// counts as failing.
#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <limits>
#include <optional>
#include <vector>

#include "core/synthesizer.h"
#include "obs/config.h"
#include "obs/registry.h"
#include "path/receiver_path.h"
#include "service/engine.h"
#include "service/request.h"
#include "stats/parallel.h"
#include "stats/rng.h"
#include "sweep/sweep.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kNominalRps = 10000.0;  ///< Fixed nominal offered rate.
constexpr double kSloMs = 2.0;           ///< p99 limit of the ladder.
constexpr double kLadderStep = 1.25;     ///< Rate ratio between rungs.
constexpr double kMaxLagMs = 0.5;        ///< Generator p99 lag a rung tolerates.
constexpr std::size_t kHotSet = 64;

const char* const kTopologies[] = {"canonical", "if-amp", "dual-lpf", "no-amp"};

msts::service::SynthesisRequest make_request(std::size_t variant, double offset, bool novel) {
  msts::path::PathConfig cfg = msts::path::reference_path_config();
  cfg.amp.gain_db.nominal += 0.01 * static_cast<double>(variant % 97) + offset;
  cfg.mixer.conv_gain_db.nominal -= 0.004 * static_cast<double>(variant % 89);
  if (novel) cfg.lpf.cutoff_hz.nominal += 0.5 * static_cast<double>(variant + 1);
  msts::service::SynthesisRequest req;
  req.graph = msts::sweep::make_topology(kTopologies[variant % 4], cfg);
  return req;
}

struct Traffic {
  std::vector<msts::service::SynthesisRequest> hot;
  double novel_offset = 0.0;  ///< Seeded, keeps novel keys distinct per seed.
  std::size_t novel_next = 0;

  msts::service::SynthesisRequest novel() {
    return make_request(novel_next++, novel_offset, true);
  }
};

struct Arrival {
  double due_s = 0.0;   ///< Offset from the phase start.
  bool novel = false;
  std::uint32_t hot = 0;
};

std::vector<Arrival> schedule(double rps, double seconds, msts::stats::Rng& rng) {
  std::vector<Arrival> out;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rps;
    if (t >= seconds) break;
    Arrival a;
    a.due_s = t;
    a.hot = static_cast<std::uint32_t>(rng.uniform_int(kHotSet));
    out.push_back(a);
  }
  // Exactly one novel request in every block of ten, at a seeded position.
  for (std::size_t b = 0; b < out.size(); b += 10) {
    const std::size_t len = std::min<std::size_t>(10, out.size() - b);
    if (len == 10) out[b + rng.uniform_int(10)].novel = true;
  }
  return out;
}

struct Sent {
  Clock::time_point due, send, ret;
  Clock::time_point done;  ///< When the generator saw the result (traced run).
  bool novel = false;
  std::optional<std::future<msts::service::Served>> fut;
};

struct PhaseResult {
  double rps = 0.0;
  std::size_t offered = 0, refused = 0, errors = 0, backlog_end = 0;
  std::vector<double> hit_ms, miss_ms, all_ms;  ///< Due-time latencies; refused = +inf.
  std::vector<double> lag_ms, admit_us, queue_ms, exec_hit_us, exec_miss_ms;
  std::size_t hits = 0, completed = 0;
  double poll_late_s = 0.0;  ///< Lateness the traced run's polling added to sends.
  /// Oracle sample: served results with the requests that produced them.
  std::vector<std::pair<msts::service::SynthesisRequest,
                        std::shared_ptr<const msts::service::SynthesisResult>>>
      samples;

  double p99_all() const { return quantile(all_ms, 0.99); }
  double lag_p99() const { return quantile(lag_ms, 0.99); }
  bool backlog_ok(int workers) const {
    return static_cast<double>(backlog_end) <= rps * kSloMs * 1e-3 + workers;
  }
};

PhaseResult run_phase(msts::service::SynthesisEngine& engine, Traffic& traffic, double rps,
                      double seconds, msts::stats::Rng& rng, std::size_t oracle_every,
                      Tracer* tracer = nullptr) {
  const std::vector<Arrival> plan = schedule(rps, seconds, rng);
  PhaseResult r;
  r.rps = rps;
  r.offered = plan.size();
  std::vector<Sent> sent(plan.size());
  std::vector<std::pair<std::size_t, msts::service::SynthesisRequest>> oracle;
  // Traced run only: while it waits for the next due time, the generator
  // polls the outstanding futures, so each request's span ends when its
  // result was really available, not where the engine's stamps end.
  std::vector<std::size_t> outstanding;
  auto poll = [&] {
    for (std::size_t k = 0; k < outstanding.size();) {
      Sent& o = sent[outstanding[k]];
      if (o.fut->wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        o.done = Clock::now();
        outstanding[k] = outstanding.back();
        outstanding.pop_back();
      } else {
        ++k;
      }
    }
  };
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    Sent& s = sent[i];
    s.novel = plan[i].novel;
    msts::service::SynthesisRequest req =
        s.novel ? traffic.novel() : traffic.hot[plan[i].hot];
    if (oracle_every != 0 && i % oracle_every == 0) oracle.emplace_back(i, req);
    s.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(plan[i].due_s));
    while (Clock::now() < s.due) {
      if (tracer == nullptr) continue;
      poll();
      const auto after = Clock::now();
      if (after > s.due) r.poll_late_s += seconds_between(s.due, after);
    }
    s.send = Clock::now();
    s.fut = engine.try_submit(std::move(req));
    s.ret = Clock::now();
    if (tracer != nullptr && s.fut) outstanding.push_back(i);
  }
  r.backlog_end = engine.in_flight();
  while (!outstanding.empty()) poll();
  const double inf = std::numeric_limits<double>::infinity();
  std::size_t next_oracle = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    Sent& s = sent[i];
    const auto free_at = i == 0 ? s.due : std::max(s.due, sent[i - 1].ret);
    r.lag_ms.push_back(1e3 * seconds_between(free_at, s.send));
    r.admit_us.push_back(1e6 * seconds_between(s.send, s.ret));
    if (!s.fut) {
      ++r.refused;
      r.all_ms.push_back(inf);
      (s.novel ? r.miss_ms : r.hit_ms).push_back(inf);
      continue;
    }
    msts::service::Served served;
    try {
      served = s.fut->get();
    } catch (...) {
      ++r.errors;
      r.all_ms.push_back(inf);
      continue;
    }
    ++r.completed;
    const double ms = 1e3 * seconds_between(s.due, s.send) + 1e-6 * served.latency_ns();
    r.all_ms.push_back(ms);
    r.queue_ms.push_back(1e-6 * served.queue_wait_ns);
    if (served.cache_hit) {
      ++r.hits;
      r.hit_ms.push_back(ms);
      r.exec_hit_us.push_back(1e-3 * served.exec_ns);
    } else {
      r.miss_ms.push_back(ms);
      r.exec_miss_ms.push_back(1e-6 * served.exec_ns);
    }
    while (next_oracle < oracle.size() && oracle[next_oracle].first < i) ++next_oracle;
    if (next_oracle < oracle.size() && oracle[next_oracle].first == i) {
      r.samples.emplace_back(std::move(oracle[next_oracle].second), served.result);
    }
    if (tracer != nullptr) {
      // due -> free: the generator was still blocked in the previous
      // try_submit (service time); free -> send: the generator's own lag.
      const std::int64_t due = tracer->to_ns(s.due);
      const std::int64_t free = tracer->to_ns(free_at);
      const std::int64_t send = tracer->to_ns(s.send);
      const std::int64_t started = send + static_cast<std::int64_t>(served.queue_wait_ns);
      const std::int64_t done = started + static_cast<std::int64_t>(served.exec_ns);
      const std::uint32_t root = tracer->next_id();
      tracer->add({"request", root, 0, due, std::max(done, tracer->to_ns(s.done))});
      tracer->add({"service.admit_block", tracer->next_id(), root, due, free});
      tracer->add({"harness.gen_lag", tracer->next_id(), root, free, send});
      tracer->add({"service.queue_wait", tracer->next_id(), root, send, started});
      tracer->add({served.cache_hit ? "service.exec_hit" : "service.exec_miss",
                   tracer->next_id(), root, started, done});
    }
  }
  return r;
}

struct Service {
  std::optional<msts::service::SynthesisEngine> engine;
  Traffic traffic;
  int workers = 1;
};

// Set-up: engine construction plus a warm hot set (every hot config synthesized
// and cached once).
void setup_service(Service& svc, std::uint64_t seed) {
  svc.engine.reset();
  msts::service::EngineOptions o;
  o.workers = svc.workers;
  o.queue_capacity = 4096;
  svc.engine.emplace(o);
  svc.traffic = Traffic{};
  msts::stats::Rng rng(mix_seed(seed, 30));
  svc.traffic.novel_offset = 1e-3 * rng.uniform();
  for (std::size_t i = 0; i < kHotSet; ++i) {
    svc.traffic.hot.push_back(make_request(i, 0.0, false));
  }
  (void)svc.engine->run_batch(svc.traffic.hot);
}

// Completed requests per (wall / CPU) second with `outstanding` requests
// always in flight (closed loop over the same mix): the service's capacity,
// per window of `per_window` completions. A fixed request count keeps the
// number of novel keys, and so the cache's growth, the same in every run.
struct Capacity {
  std::vector<double> rates, rates_cpu;
  std::size_t completed = 0, errors = 0;
};

Capacity run_capacity(msts::service::SynthesisEngine& engine, Traffic& traffic,
                      std::size_t per_window, int windows, std::size_t outstanding,
                      msts::stats::Rng& rng) {
  std::deque<std::future<msts::service::Served>> inflight;
  Capacity c;
  std::size_t i = 0;
  auto complete_front = [&] {
    try {
      (void)inflight.front().get();
      ++c.completed;
    } catch (...) {
      ++c.errors;
    }
    inflight.pop_front();
  };
  for (int w = 0; w < windows; ++w) {
    const Stopwatch sw;
    for (std::size_t n = 0; n < per_window; ++n) {
      while (inflight.size() < outstanding) {
        const bool novel = i++ % 10 == 9;
        inflight.push_back(engine.submit(
            novel ? traffic.novel() : traffic.hot[rng.uniform_int(kHotSet)]));
      }
      complete_front();
    }
    c.rates.push_back(static_cast<double>(per_window) / sw.wall_s());
    c.rates_cpu.push_back(static_cast<double>(per_window) / sw.cpu_s());
  }
  while (!inflight.empty()) complete_front();
  return c;
}

struct Ladder {
  double max_rps = 0.0;
  std::size_t rungs = 0, offered = 0, refused = 0, errors = 0;
};

Ladder run_ladder(Service& svc, double rung_s, msts::stats::Rng& rng, Record& rec) {
  Ladder l;
  double rate = 0.1 * kNominalRps;
  double last_ok = 0.0, last_ok_p99 = 0.0;
  for (int k = 0; k < 32; ++k, rate *= kLadderStep) {
    const PhaseResult p = run_phase(*svc.engine, svc.traffic, rate, rung_s, rng, 0);
    ++l.rungs;
    l.offered += p.offered;
    l.refused += p.refused;
    l.errors += p.errors;
    const double p99 = p.p99_all();
    const bool lag_ok = p.lag_p99() <= kMaxLagMs;
    const bool ok = p99 <= kSloMs && p.backlog_ok(svc.workers) && lag_ok;
    rec.notes.push_back("ladder rung " + std::to_string(static_cast<long>(rate)) +
                        " req/s: p99 " + std::to_string(p99) + " ms, backlog " +
                        std::to_string(p.backlog_end) + ", gen lag p99 " +
                        std::to_string(p.lag_p99()) + " ms" + (ok ? "" : " -> over the limit"));
    if (ok) {
      last_ok = rate;
      last_ok_p99 = p99;
      continue;
    }
    // Interpolate (log rate, linear p99) between the last passing rung and
    // this one when this rung failed on latency alone.
    if (last_ok > 0.0 && std::isfinite(p99) && lag_ok && p.backlog_ok(svc.workers)) {
      const double f = (kSloMs - last_ok_p99) / (p99 - last_ok_p99);
      l.max_rps = last_ok * std::pow(rate / last_ok, std::clamp(f, 0.0, 1.0));
    } else {
      l.max_rps = last_ok;
    }
    return l;
  }
  l.max_rps = last_ok;
  return l;
}

}  // namespace

Record run_service_mix(const Args& args) {
  Record rec;
  rec.workload = "service-mix";
  const int nproc = msts::stats::resolve_threads(0);
  if (args.trace) msts::obs::configure({.metrics = true, .trace = false, .trace_path = ""});

  Service svc;
  svc.workers = std::max(1, nproc - 1);
  // Set-up replaces the engine, so every sample is taken before the phases.
  SetupSamples setups;
  for (int r = 0; r < (args.tiny ? 1 : 9); ++r) {
    setups.take([&] { setup_service(svc, args.seed); });
  }
  rec.set_setup(setups);
  if (args.trace) msts::obs::Registry::instance().reset();

  msts::stats::Rng rng(mix_seed(args.seed, 31));
  const double nominal_s = args.tiny ? 0.2 : 0.25 * args.seconds;
  const std::size_t oracle_every = args.tiny ? 20 : 500;
  const PhaseResult nom = run_phase(*svc.engine, svc.traffic, kNominalRps, nominal_s, rng,
                                    oracle_every);
  rec.set("hit_p50_ms", quantile(nom.hit_ms, 0.5), "ms");
  rec.set("hit_p99_ms", quantile(nom.hit_ms, 0.99), "ms");
  rec.set("miss_p50_ms", quantile(nom.miss_ms, 0.5), "ms");
  rec.set("miss_p99_ms", quantile(nom.miss_ms, 0.99), "ms");
  rec.set("harness.gen_lag_ms_p99", nom.lag_p99(), "ms");
  rec.set("service.admit_us", quantile(nom.admit_us, 0.5), "us");
  rec.set("service.queue_wait_ms_p99", quantile(nom.queue_ms, 0.99), "ms");
  rec.set("service.exec_hit_us", quantile(nom.exec_hit_us, 0.5), "us");
  rec.set("service.exec_miss_ms", quantile(nom.exec_miss_ms, 0.5), "ms");
  rec.set("service.hit_ratio",
          static_cast<double>(nom.hits) /
              static_cast<double>(std::max<std::size_t>(nom.completed, 1)),
          "ratio");
  rec.facts["nominal_rps"] = std::to_string(kNominalRps);
  rec.facts["nominal_requests"] = std::to_string(nom.offered);
  rec.facts["nominal_hit_samples"] = std::to_string(nom.hit_ms.size());
  rec.facts["nominal_miss_samples"] = std::to_string(nom.miss_ms.size());
  rec.facts["threads.workers"] = std::to_string(svc.workers);
  rec.facts["threads.process"] = std::to_string(process_threads());
  const bool nominal_valid = nom.lag_p99() <= kMaxLagMs;
  rec.facts["nominal_valid"] = nominal_valid ? "true" : "false";
  if (!nominal_valid) {
    rec.notes.push_back("generator fell behind its schedule at the nominal rate: the "
                        "hit/miss latencies of this run are not service latency");
  }

  // About 0.2 s of work per window on a 4-core host; the capacity phase gets
  // most of the run, as it gives the gated figure.
  const Capacity cap = run_capacity(*svc.engine, svc.traffic, args.tiny ? 500 : 2500,
                                    args.tiny ? 2 : std::max(6, static_cast<int>(3 * args.seconds)),
                                    4 * static_cast<std::size_t>(svc.workers), rng);
  rec.set_throughput(cap.rates, cap.rates_cpu);
  // Peak memory over set-up, nominal and capacity: fixed request counts, so
  // a fixed number of novel cache entries. The ladder's count depends on
  // where it stops, so it comes after.
  rec.set("peak_rss_mib", peak_rss_mib(), "MiB");
  const double rung_s = args.tiny ? 0.1 : std::max(0.3, 0.03 * args.seconds);
  const Ladder ladder = run_ladder(svc, rung_s, rng, rec);
  rec.set("max_rps_at_slo", ladder.max_rps, "req/s");
  rec.set("service.refused", static_cast<double>(nom.refused + ladder.refused), "count");
  rec.set("service.cache_entries", static_cast<double>(svc.engine->cache_size()), "count");
  rec.facts["ladder_rungs"] = std::to_string(ladder.rungs);

  // ---- correctness: sampled served results against direct synthesis --------
  std::uint64_t failed = nom.refused + nom.errors + cap.errors + ladder.errors;
  if (failed != 0) {
    rec.fail("requests refused at the nominal rate, or failed in any phase");
  }
  std::size_t mismatches = 0;
  for (const auto& [request, result] : nom.samples) {
    if (msts::service::result_fingerprint(*result) !=
        msts::service::result_fingerprint(msts::service::synthesize_direct(request))) {
      ++mismatches;
    }
  }
  rec.facts["oracle_samples"] = std::to_string(nom.samples.size());
  if (mismatches != 0 || nom.samples.empty()) {
    failed += mismatches;
    rec.fail(std::to_string(mismatches) + " served results differ from synthesize_direct");
  }
  rec.attempted = nom.offered + cap.completed + cap.errors + ladder.offered;
  rec.failed = failed;
  rec.set("failed_frac", static_cast<double>(failed) / static_cast<double>(rec.attempted),
          "ratio");

  if (args.trace) {
    rec.set("service.race_adopted",
            static_cast<double>(counter_value("service.cache.race_adopted")), "count");
    // Traced nominal phase: one span tree per request, from its due time to
    // when the generator saw its result, with the admission block, the
    // generator's own lag and the engine's queue-wait / execution stamps as
    // children; the rest (admission bookkeeping, hand-off) is unattributed.
    Tracer tracer;
    msts::stats::Rng trng(mix_seed(args.seed, 32));
    const PhaseResult traced =
        run_phase(*svc.engine, svc.traffic, kNominalRps, nominal_s, trng, 0, &tracer);
    const LayerTable table = layer_table(tracer.spans());
    // Tracing adds work only to the generator, whose polling can make a send
    // late: that lateness as a share of the traced requests' total time.
    rec.set("obs.trace_overhead_frac", traced.poll_late_s / table.parent_s, "ratio");
    table.print("service-mix, traced nominal phase");
    add_layer_metrics(rec, table, static_cast<double>(traced.completed));

    // Per-call probes on the workload's own requests.
    std::vector<double> key_us, synth_ms;
    Traffic probe = svc.traffic;
    for (std::size_t i = 0; i < 2000; ++i) {
      const auto req = i % 10 == 0 ? probe.novel() : probe.hot[i % kHotSet];
      const auto t0 = Clock::now();
      const std::string key = msts::service::content_key(req);
      key_us.push_back(1e6 * seconds_since(t0));
      if (i % 100 == 0) {
        const auto s0 = Clock::now();
        (void)msts::service::synthesize_direct(req);
        synth_ms.push_back(1e3 * seconds_since(s0));
      }
    }
    rec.set("service.content_key_us", median(key_us), "us");
    rec.set("core.synthesize_ms", median(synth_ms), "ms");
    add_evaluate_test_probe(
        rec, msts::core::TestSynthesizer(svc.traffic.hot[0].graph.value()).study_mixer_iip3());
  }
  return rec;
}

}  // namespace perfbench
