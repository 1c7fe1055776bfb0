// Workload `fault-campaign`: the full Sec. 5 flow on the reference 13-tap
// FIR with every collapsed fault — exact 512-pattern compare, translated
// 512-pattern spectral test, then translated 8192-pattern spectral test on
// the escapes. Unit: one (fault, pattern set) simulation.
//
// The seed picks the analog noise realisations of the two translated
// stimuli (and the oracle's fault sample); the netlist, fault universe and
// plans are fixed.
#include <algorithm>
#include <optional>
#include <vector>

#include "core/digital_test.h"
#include "digital/fault_sim.h"
#include "dsp/spectrum.h"
#include "dsp/tonegen.h"
#include "obs/config.h"
#include "obs/registry.h"
#include "path/receiver_path.h"
#include "stats/parallel.h"
#include "stats/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using msts::core::DigitalTester;
using msts::core::DigitalTestPlan;
using msts::digital::Fault;

struct Inputs {
  msts::path::PathConfig config;
  std::optional<DigitalTester> tester;
  DigitalTestPlan plan_short, plan_long;
  std::vector<std::int64_t> ideal_short, ideal_long;
  std::vector<Fault> faults;
  std::optional<msts::path::ReceiverPath> device;
  std::uint64_t noise_short = 0, noise_long = 0;
  double tester_setup_s = 0.0;  ///< DigitalTester ctor + first plan().
};

Inputs make_inputs(const Args& args) {
  Inputs in;
  in.config = msts::path::reference_path_config();
  const auto t0 = Clock::now();
  in.tester.emplace(in.config);
  msts::core::DigitalTestOptions opt;
  opt.record = 512;
  in.plan_short = in.tester->plan(opt);
  in.tester_setup_s = seconds_since(t0);
  opt.record = args.tiny ? 1024 : 8192;
  in.plan_long = in.tester->plan(opt);
  in.ideal_short = in.tester->ideal_codes(in.plan_short);
  in.ideal_long = in.tester->ideal_codes(in.plan_long);
  const std::size_t stride = args.tiny ? 40 : 1;
  for (std::size_t i = 0; i < in.tester->faults().size(); i += stride) {
    in.faults.push_back(in.tester->faults()[i]);
  }
  in.device.emplace(in.config);
  in.noise_short = mix_seed(args.seed, 1);
  in.noise_long = mix_seed(args.seed, 2);
  return in;
}

struct Outcome {
  std::vector<bool> exact, short_flags, long_flags;
  std::vector<Fault> escapes;
  std::vector<std::int64_t> noisy_short, noisy_long;
  bool good_flagged_short = false, good_flagged_long = false;
  std::size_t units = 0;
  double seconds = 0.0;
  double exact_s = 0.0, path_codes_s = 0.0, spectral_short_s = 0.0, spectral_long_s = 0.0;

  bool same_verdicts(const Outcome& o) const {
    return exact == o.exact && short_flags == o.short_flags &&
           long_flags == o.long_flags && good_flagged_short == o.good_flagged_short &&
           good_flagged_long == o.good_flagged_long;
  }
};

std::vector<Fault> escapes_of(const std::vector<Fault>& faults,
                              const std::vector<bool>& detected) {
  std::vector<Fault> out;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!detected[i]) out.push_back(faults[i]);
  }
  return out;
}

// The real flow: DigitalTester's public campaign calls, exactly as the
// Sec. 5 bench makes them.
Outcome real_campaign(const Inputs& in) {
  Outcome o;
  const DigitalTester& t = *in.tester;
  const auto t0 = Clock::now();
  o.exact = t.exact_campaign(in.ideal_short, in.faults).detected_flags;
  const auto t1 = Clock::now();
  msts::stats::Rng n1(in.noise_short);
  o.noisy_short = t.path_codes(in.plan_short, *in.device, n1);
  const auto t2 = Clock::now();
  const auto s1 = t.spectral_campaign(in.plan_short, in.ideal_short, o.noisy_short, in.faults);
  const auto t3 = Clock::now();
  o.short_flags = s1.result.detected_flags;
  o.good_flagged_short = s1.good_circuit_flagged;
  o.escapes = escapes_of(in.faults, o.short_flags);
  msts::stats::Rng n2(in.noise_long);
  o.noisy_long = t.path_codes(in.plan_long, *in.device, n2);
  const auto t4 = Clock::now();
  const auto s2 = t.spectral_campaign(in.plan_long, in.ideal_long, o.noisy_long, o.escapes);
  const auto t5 = Clock::now();
  o.long_flags = s2.result.detected_flags;
  o.good_flagged_long = s2.good_circuit_flagged;
  o.units = 2 * in.faults.size() + o.escapes.size();
  o.seconds = seconds_between(t0, t5);
  o.exact_s = seconds_between(t0, t1);
  o.path_codes_s = 0.5 * (seconds_between(t1, t2) + seconds_between(t3, t4));
  o.spectral_short_s = seconds_between(t2, t3);
  o.spectral_long_s = seconds_between(t4, t5);
  return o;
}

// The mask comparison spectral_campaign applies to each machine's output.
bool outside_mask(const DigitalTestPlan& plan, const msts::dsp::Spectrum& spec) {
  for (std::size_t k = 0; k < spec.num_bins(); ++k) {
    if (plan.excluded[k]) continue;
    if (spec.power_db(k) > plan.mask_power_db[k]) return true;
  }
  return false;
}

msts::digital::FaultSimResult simulate(const DigitalTester& t,
                                       const std::vector<std::int64_t>& codes,
                                       const std::vector<Fault>& faults, bool capture,
                                       int threads, int machine_words) {
  msts::digital::FaultSimOptions o;
  o.capture_waveforms = capture;
  o.threads = threads;
  o.machine_words = machine_words;
  return msts::digital::simulate_faults(t.netlist(), t.input_bus(), t.output_bus(), codes,
                                        faults, o);
}

struct SpectralReplay {
  std::vector<bool> flags;
  bool good_flagged = false;
};

SpectralReplay replay_spectral(const Inputs& in, const DigitalTestPlan& plan,
                               const std::vector<std::int64_t>& codes,
                               const std::vector<Fault>& faults, int threads,
                               int machine_words, Tracer* tr, std::uint32_t parent) {
  const DigitalTester& t = *in.tester;
  Span stage(tr, "core.spectral_campaign", parent);
  msts::digital::FaultSimResult sim;
  {
    Span s(tr, "digital.simulate_faults", stage.id());
    sim = simulate(t, codes, faults, true, threads, machine_words);
  }
  auto flagged = [&](const std::vector<std::int64_t>& w) {
    std::vector<double> volts;
    {
      Span s(tr, "core.output_volts", stage.id());
      volts = t.output_volts(w);
    }
    std::optional<msts::dsp::Spectrum> spec;
    {
      Span s(tr, plan.record == 512 ? "dsp.spectrum_512" : "dsp.spectrum_long", stage.id());
      spec.emplace(volts, t.digital_fs(), plan.window);
    }
    return outside_mask(plan, *spec);
  };
  SpectralReplay r;
  r.good_flagged = flagged(sim.good_waveform);
  r.flags.resize(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) r.flags[i] = flagged(sim.waveforms[i]);
  return r;
}

std::vector<std::int64_t> replay_path_codes(const Inputs& in, const DigitalTestPlan& plan,
                                            std::uint64_t seed, Tracer* tr,
                                            std::uint32_t parent) {
  Span stage(tr, "core.path_codes", parent);
  msts::analog::Signal rf;
  rf.fs = in.config.analog_fs;
  {
    Span s(tr, "dsp.generate_tones", stage.id());
    rf.samples = msts::dsp::generate_tones(plan.rf_tones, 0.0, in.config.analog_fs,
                                           plan.record * in.config.adc_decimation);
  }
  msts::stats::Rng rng(seed);
  Span s(tr, "path.run", stage.id());
  return in.device->run(rf, rng).adc_codes;
}

// The same flow through the public functions DigitalTester's calls are made
// of (simulate_faults, ReceiverPath::run, Spectrum per waveform), with a span
// around each; must reproduce the real verdicts bit for bit.
Outcome replay_campaign(const Inputs& in, int threads, Tracer* tr) {
  Outcome o;
  const auto t0 = Clock::now();
  Span root(tr, "campaign");
  {
    Span stage(tr, "core.exact_campaign", root.id());
    Span s(tr, "digital.simulate_faults", stage.id());
    o.exact = simulate(*in.tester, in.ideal_short, in.faults, false, threads, 0).detected;
  }
  o.noisy_short = replay_path_codes(in, in.plan_short, in.noise_short, tr, root.id());
  auto s1 = replay_spectral(in, in.plan_short, o.noisy_short, in.faults, threads, 0, tr,
                            root.id());
  o.short_flags = s1.flags;
  o.good_flagged_short = s1.good_flagged;
  o.escapes = escapes_of(in.faults, o.short_flags);
  o.noisy_long = replay_path_codes(in, in.plan_long, in.noise_long, tr, root.id());
  auto s2 = replay_spectral(in, in.plan_long, o.noisy_long, o.escapes, threads, 0, tr,
                            root.id());
  o.long_flags = s2.flags;
  o.good_flagged_long = s2.good_flagged;
  o.units = 2 * in.faults.size() + o.escapes.size();
  o.seconds = seconds_since(t0);
  return o;
}

// Oracle: a seeded sample of faults re-simulated serially at one machine
// word must give the campaign's verdicts. Returns the mismatch count.
std::size_t oracle_mismatches(const Inputs& in, const Outcome& o, std::uint64_t seed,
                              std::size_t sample) {
  msts::stats::Rng rng(mix_seed(seed, 3));
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < sample && !in.faults.empty(); ++i) {
    idx.push_back(static_cast<std::size_t>(rng.uniform_int(in.faults.size())));
  }
  std::vector<Fault> picked;
  for (std::size_t i : idx) picked.push_back(in.faults[i]);
  std::size_t bad = 0;
  const auto exact = simulate(*in.tester, in.ideal_short, picked, false, 1, 1).detected;
  const auto s1 = replay_spectral(in, in.plan_short, o.noisy_short, picked, 1, 1, nullptr, 0);
  for (std::size_t j = 0; j < idx.size(); ++j) {
    bad += exact[j] != o.exact[idx[j]];
    bad += s1.flags[j] != o.short_flags[idx[j]];
  }
  // Long stage: the sampled faults that escaped, in escape order.
  std::vector<std::size_t> esc_pos(in.faults.size(), SIZE_MAX);
  for (std::size_t i = 0, e = 0; i < in.faults.size(); ++i) {
    if (!o.short_flags[i]) esc_pos[i] = e++;
  }
  std::vector<Fault> picked_long;
  std::vector<std::size_t> pos_long;
  for (std::size_t i : idx) {
    if (esc_pos[i] == SIZE_MAX) continue;
    picked_long.push_back(in.faults[i]);
    pos_long.push_back(esc_pos[i]);
  }
  if (!picked_long.empty()) {
    const auto s2 =
        replay_spectral(in, in.plan_long, o.noisy_long, picked_long, 1, 1, nullptr, 0);
    for (std::size_t j = 0; j < pos_long.size(); ++j) {
      bad += s2.flags[j] != o.long_flags[pos_long[j]];
    }
  }
  bad += s1.good_flagged != o.good_flagged_short;
  return bad;
}

std::size_t count_true(const std::vector<bool>& v) {
  return static_cast<std::size_t>(std::count(v.begin(), v.end(), true));
}

}  // namespace

Record run_fault_campaign(const Args& args) {
  Record rec;
  rec.workload = "fault-campaign";
  const int threads = msts::stats::resolve_threads(0);
  if (args.trace) msts::obs::configure({.metrics = true, .trace = false, .trace_path = ""});

  // ---- set-up: tester, netlist + fault collapse, plans, stimuli -----------
  SetupSamples setups;
  std::vector<double> tester_setups;
  std::optional<Inputs> in;
  const auto setup = [&] {
    in.reset();
    in.emplace(make_inputs(args));
    tester_setups.push_back(in->tester_setup_s);
  };
  for (int r = 0; r < setup_reps(args.tiny); ++r) setups.take(setup);
  rec.set("core.tester_setup_ms", 1e3 * median(tester_setups), "ms");
  rec.facts["faults"] = std::to_string(in->faults.size());
  rec.facts["records"] = "512/" + std::to_string(in->plan_long.record);

  // ---- timed window: whole campaigns at nproc threads ----------------------
  std::vector<Outcome> runs;
  std::vector<double> rates, rates_cpu;  // units per wall / CPU second
  const auto w0 = Clock::now();
  do {
    if (args.trace) msts::obs::Registry::instance().reset();
    const Stopwatch sw;
    runs.push_back(real_campaign(*in));
    rates_cpu.push_back(static_cast<double>(runs.back().units) / sw.cpu_s());
    rates.push_back(static_cast<double>(runs.back().units) / runs.back().seconds);
    setups.maybe_take(setup);
  } while (seconds_since(w0) < args.seconds && !args.trace);
  rec.set_setup(setups);
  const double peak = peak_rss_mib();
  const Outcome& first = runs.front();
  rec.set_throughput(rates, rates_cpu);
  rec.set("peak_rss_mib", peak, "MiB");

  std::vector<double> ex, pc, ss, sl;
  for (const Outcome& o : runs) {
    ex.push_back(o.exact_s);
    pc.push_back(o.path_codes_s);
    ss.push_back(o.spectral_short_s);
    sl.push_back(o.spectral_long_s);
  }
  rec.set("core.exact_campaign_ms", 1e3 * median(ex), "ms");
  rec.set("core.path_codes_ms", 1e3 * median(pc), "ms");
  rec.set("core.spectral_short_ms", 1e3 * median(ss), "ms");
  rec.set("core.spectral_long_ms", 1e3 * median(sl), "ms");
  rec.set("digital.waveform_mib",
          static_cast<double>(first.escapes.size() * in->plan_long.record * 8) / (1 << 20),
          "MiB");
  rec.set("digital.detect_ratio_long",
          first.escapes.empty() ? 0.0
                                : static_cast<double>(count_true(first.long_flags)) /
                                      static_cast<double>(first.escapes.size()),
          "ratio");
  rec.facts["coverage_exact_pct"] =
      std::to_string(100.0 * count_true(first.exact) / in->faults.size());
  rec.facts["coverage_translated_final_pct"] = std::to_string(
      100.0 * (count_true(first.short_flags) + count_true(first.long_flags)) /
      in->faults.size());
  rec.facts["campaigns"] = std::to_string(runs.size());

  // Counters of the real campaign (metrics are on only in the traced run).
  if (args.trace) {
    const double units = static_cast<double>(first.units);
    rec.set("digital.fault_vectors",
            static_cast<double>(counter_value("digital.simulate_faults.vectors")), "count");
    rec.set("stats.sched_tasks", static_cast<double>(counter_value("sched.tasks")) / units,
            "per_unit");
    rec.set("stats.sched_steals", static_cast<double>(counter_value("sched.steal")) / units,
            "per_unit");
  }

  // ---- correctness (outside the timed window) ------------------------------
  std::uint64_t attempted = 0;
  for (const Outcome& o : runs) attempted += o.units;
  std::uint64_t failed = 0;
  for (const Outcome& o : runs) {
    if (!o.same_verdicts(first)) {
      failed += o.units;
      rec.fail("campaign verdicts differ between repetitions");
    }
  }
  const std::size_t bad = oracle_mismatches(*in, first, args.seed, args.tiny ? 24 : 160);
  if (bad != 0) {
    failed += bad;
    rec.fail(std::to_string(bad) + " sampled verdicts differ from a 1-thread 1-word re-simulation");
  }

  if (args.trace) {
    // Untraced replay at 1 thread: the scaling baseline and the overhead base.
    const Outcome base = replay_campaign(*in, 1, nullptr);
    msts::obs::Registry::instance().reset();
    Tracer tracer;
    const Outcome traced = replay_campaign(*in, 1, &tracer);
    add_plan_cache_hit_ratio(rec);
    const bool identical = base.same_verdicts(first) && traced.same_verdicts(first);
    rec.facts["replay_bit_identical"] = identical ? "true" : "false";
    if (!identical) rec.fail("replay verdicts differ from the real campaign");

    const double thr1 = static_cast<double>(base.units) / base.seconds;
    const double thr_traced = static_cast<double>(traced.units) / traced.seconds;
    add_replay_metrics(rec, threads, thr1, thr_traced);

    const auto spans = tracer.spans();
    const LayerTable table = layer_table(spans);
    table.print("fault-campaign, replay at 1 thread");
    add_layer_metrics(rec, table, static_cast<double>(traced.units));
    const auto sims = span_durations(spans, "digital.simulate_faults");
    if (sims.size() >= 3) {
      rec.set("digital.fault_sim_exact_ms", 1e3 * sims[0], "ms");
      rec.set("digital.fault_sim_short_ms", 1e3 * sims[1], "ms");
      rec.set("digital.fault_sim_long_ms", 1e3 * sims[2], "ms");
    }
    rec.set("dsp.spectrum_us_512", 1e6 * median(span_durations(spans, "dsp.spectrum_512")),
            "us");
    rec.set("dsp.spectrum_us_8192", 1e6 * median(span_durations(spans, "dsp.spectrum_long")),
            "us");
  }
  rec.attempted = attempted;
  rec.failed = failed;
  rec.set("failed_frac", static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  return rec;
}

}  // namespace perfbench
