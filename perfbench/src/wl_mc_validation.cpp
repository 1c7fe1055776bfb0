// Workload `mc-validation`: the Table 2 executed-test Monte Carlo —
// core::validate_iip3_study_mc on the reference path, adaptive and
// nominal-gain, 600 trials each, repeated. Unit: one MC trial.
//
// The seed picks the two strategies' RNG seeds; every repetition re-runs
// the same seeded calls, so all repetitions must agree bit for bit.
#include <cmath>
#include <optional>
#include <vector>

#include "analog/signal.h"
#include "base/simd.h"
#include "core/mc_validation.h"
#include "core/synthesizer.h"
#include "core/translation.h"
#include "dsp/spectrum.h"
#include "dsp/tonegen.h"
#include "obs/config.h"
#include "obs/registry.h"
#include "path/measurements.h"
#include "path/receiver_path.h"
#include "service/request.h"
#include "stats/parallel.h"
#include "stats/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using msts::core::McValidation;
using msts::core::ParameterStudy;

struct Inputs {
  msts::path::PathConfig config;
  msts::path::MeasureOptions opts;
  ParameterStudy study[2];  ///< [0] nominal-gain, [1] adaptive.
  std::uint64_t seed[2] = {0, 0};
  int trials = 600;
};

bool same(const McValidation& a, const McValidation& b) {
  return a.trials == b.trials && a.fcl_measured == b.fcl_measured &&
         a.yl_measured == b.yl_measured && a.mean_abs_meas_error == b.mean_abs_meas_error &&
         a.weight_good == b.weight_good && a.weight_faulty == b.weight_faulty;
}

McValidation real_call(const Inputs& in, int adaptive, int threads) {
  msts::stats::Rng rng(in.seed[adaptive]);
  return msts::core::validate_iip3_study_mc(in.config, in.study[adaptive], in.trials, rng,
                                            adaptive == 1, in.opts, threads);
}

// validate_iip3_study_mc through its public parts, serially, one span per
// call: make_streams(rng.split()) -> per trial ReceiverPath::sampled ->
// Translator::measure_mixer_iip3_dbm, then the same trial-order reduction.
McValidation replay_call(const Inputs& in, int adaptive, Tracer* tr) {
  const ParameterStudy& study = in.study[adaptive];
  Span root(tr, "validate_call");
  std::optional<msts::core::Translator> translator;
  {
    Span s(tr, "core.translator", root.id());
    translator.emplace(in.config);
  }
  const auto threshold = study.row("Tol").threshold;
  McValidation v;
  v.trials = in.trials;
  const double lo = study.population.mean - 4.0 * study.population.sigma;
  const double hi = study.population.mean + 4.0 * study.population.sigma;
  msts::stats::Rng rng(in.seed[adaptive]);
  std::vector<msts::stats::Rng> streams;
  {
    Span s(tr, "stats.make_streams", root.id());
    streams = msts::stats::make_streams(rng.split(), static_cast<std::size_t>(in.trials));
  }
  double w_good_reject = 0.0, w_faulty_accept = 0.0, abs_err_sum = 0.0;
  for (int t = 0; t < in.trials; ++t) {
    Span trial(tr, "trial", root.id());
    msts::stats::Rng trial_rng = streams[static_cast<std::size_t>(t)];
    const double true_iip3 = trial_rng.uniform(lo, hi);
    msts::path::PathConfig instance_cfg = in.config;
    instance_cfg.mixer.iip3_dbm = msts::stats::Uncertain::exact(true_iip3);
    std::optional<msts::path::ReceiverPath> device;
    {
      Span s(tr, "path.sampled", trial.id());
      device.emplace(msts::path::ReceiverPath::sampled(instance_cfg, trial_rng));
    }
    double measured = 0.0;
    {
      Span s(tr, "core.measure_mixer_iip3", trial.id());
      measured = translator->measure_mixer_iip3_dbm(*device, trial_rng, adaptive == 1, in.opts);
    }
    const double weight = study.population.pdf(true_iip3);
    const double abs_err = std::abs(measured - true_iip3);
    abs_err_sum += abs_err;
    if (study.spec.passes(true_iip3)) {
      v.weight_good += weight;
      if (!threshold.passes(measured)) w_good_reject += weight;
    } else {
      v.weight_faulty += weight;
      if (threshold.passes(measured)) w_faulty_accept += weight;
    }
  }
  v.fcl_measured = v.weight_faulty > 0.0 ? w_faulty_accept / v.weight_faulty : 0.0;
  v.yl_measured = v.weight_good > 0.0 ? w_good_reject / v.weight_good : 0.0;
  v.mean_abs_meas_error = abs_err_sum / static_cast<double>(in.trials);
  return v;
}

template <class F>
double time_us(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    t.push_back(1e6 * seconds_since(t0));
  }
  return median(t);
}

// Per-call cost of the layers under one trial, on trial 0's device and
// record: path transients, each analog block, the spectrum, two kernels.
void layer_probes(const Inputs& in, Record& rec) {
  const ParameterStudy& study = in.study[1];
  msts::stats::Rng rng(in.seed[1]);
  const auto streams = msts::stats::make_streams(rng.split(), 1);
  msts::stats::Rng trial_rng = streams[0];
  const double lo = study.population.mean - 4.0 * study.population.sigma;
  const double hi = study.population.mean + 4.0 * study.population.sigma;
  msts::path::PathConfig cfg = in.config;
  cfg.mixer.iip3_dbm = msts::stats::Uncertain::exact(trial_rng.uniform(lo, hi));
  const auto device = msts::path::ReceiverPath::sampled(cfg, trial_rng);
  const auto setup = msts::service::make_measurement_setup(in.config, in.opts);
  const int reps = 21;

  msts::stats::Rng noise(7);
  rec.set("path.two_tone_us", time_us(reps, [&] {
            (void)msts::path::measure_two_tone(device, setup.two_tone_f1_hz,
                                               setup.two_tone_f2_hz, setup.drive_vpeak,
                                               noise, in.opts);
          }),
          "us");
  const std::size_t n = in.opts.digital_record * in.config.adc_decimation;
  msts::analog::Signal rf;
  rf.fs = in.config.analog_fs;
  const msts::dsp::Tone tone{in.config.lo.freq_hz + setup.if_freq_hz, setup.drive_vpeak, 0.0};
  rf.samples = msts::dsp::generate_tones(std::span(&tone, 1), 0.0, rf.fs, n);
  rec.set("path.run_us", time_us(reps, [&] { (void)device.run(rf, noise); }), "us");

  msts::analog::Signal amp_out, lo_sig, mix_out, lpf_out;
  rec.set("analog.amp_us", time_us(reps, [&] { amp_out = device.amp().process(rf, noise); }),
          "us");
  lo_sig = device.lo().generate(rf.fs, n, noise);
  rec.set("analog.mixer_us",
          time_us(reps, [&] { mix_out = device.mixer().process(amp_out, lo_sig, noise); }),
          "us");
  rec.set("analog.lpf_us", time_us(reps, [&] { lpf_out = device.lpf().process(mix_out); }),
          "us");
  rec.set("analog.adc_us", time_us(reps, [&] {
            (void)device.adc().digitize(lpf_out, in.config.adc_decimation);
          }),
          "us");
  const auto volts = device.filter_output_volts(device.run(rf, noise));
  rec.set("dsp.spectrum_us_" + std::to_string(volts.size()), time_us(reps, [&] {
            (void)msts::dsp::Spectrum(volts, in.config.digital_fs(), in.opts.window);
          }),
          "us");

  // Kernels at the trial's shapes: a biquad over the analog record and the
  // FIR dot over the digital record.
  const auto& k = msts::simd::kernels();
  std::vector<double> out(n);
  const double biquad_ns = 1e3 * time_us(reps, [&] {
    k.biquad_ff(rf.samples.data(), 0.2, 0.4, 0.2, out.data(), n);
  });
  rec.set("base.biquad_ff_ns", biquad_ns, "ns");
  rec.facts["base.biquad_ff_shape"] = "n=" + std::to_string(n) + " flops=" +
                                      std::to_string(5 * n) + " bytes=" + std::to_string(16 * n);
  const auto& coeffs = device.fir_coeffs();
  const std::size_t taps = coeffs.size();
  const std::size_t m = in.opts.digital_record;
  std::vector<std::int64_t> hist(m + taps, 3);
  const double fir_ns = 1e3 * time_us(reps, [&] {
    for (std::size_t i = taps; i < m + taps; ++i) (void)k.fir_dot(coeffs.data(), taps, &hist[i]);
  });
  rec.set("base.fir_dot_ns", fir_ns, "ns");
  rec.facts["base.fir_dot_shape"] = "calls=" + std::to_string(m) + " taps=" +
                                    std::to_string(taps) + " ops=" +
                                    std::to_string(2 * taps * m) + " bytes=" +
                                    std::to_string(12 * taps * m);
}

}  // namespace

Record run_mc_validation(const Args& args) {
  Record rec;
  rec.workload = "mc-validation";
  const int threads = msts::stats::resolve_threads(0);
  if (args.trace) msts::obs::configure({.metrics = true, .trace = false, .trace_path = ""});

  // ---- set-up: the two threshold studies, plan caches warmed ---------------
  Inputs in;
  in.config = msts::path::reference_path_config();
  in.opts.digital_record = args.tiny ? 256 : 1024;
  in.trials = args.tiny ? 40 : 600;
  in.seed[0] = mix_seed(args.seed, 10);
  in.seed[1] = mix_seed(args.seed, 11);
  SetupSamples setups;
  const auto setup = [&] {
    for (int a = 0; a < 2; ++a) {
      const msts::core::TestSynthesizer synth(in.config, a == 1);
      in.study[a] = synth.study_mixer_iip3();
      msts::stats::Rng warm(in.seed[a]);
      (void)msts::core::validate_iip3_study_mc(in.config, in.study[a], 10, warm, a == 1,
                                               in.opts, threads);
    }
  };
  for (int r = 0; r < setup_reps(args.tiny); ++r) setups.take(setup);

  // ---- timed window ----------------------------------------------------------
  if (args.trace) msts::obs::Registry::instance().reset();
  std::vector<double> rates, rates_cpu, call_ms;
  McValidation first[2];
  std::uint64_t attempted = 0, failed = 0;
  std::size_t reps = 0;
  const auto w0 = Clock::now();
  do {
    const Stopwatch sw;
    McValidation v[2];
    for (int a = 1; a >= 0; --a) {
      const auto c0 = Clock::now();
      v[a] = real_call(in, a, 0);
      call_ms.push_back(1e3 * seconds_since(c0));
    }
    rates.push_back(2.0 * in.trials / sw.wall_s());
    rates_cpu.push_back(2.0 * in.trials / sw.cpu_s());
    if (reps == 0) {
      first[0] = v[0];
      first[1] = v[1];
    } else if (!same(v[0], first[0]) || !same(v[1], first[1])) {
      failed += 2u * static_cast<unsigned>(in.trials);
      rec.fail("repetition differs from the first");
    }
    attempted += 2u * static_cast<unsigned>(in.trials);
    ++reps;
    setups.maybe_take(setup);
  } while (seconds_since(w0) < args.seconds);
  rec.set_setup(setups);
  rec.set_throughput(rates, rates_cpu);
  rec.set("peak_rss_mib", peak_rss_mib(), "MiB");
  rec.set("core.mc_validate_ms", median(call_ms), "ms");
  rec.facts["repetitions"] = std::to_string(reps);
  rec.facts["fcl_pct_adaptive"] = std::to_string(100.0 * first[1].fcl_measured);
  rec.facts["yl_pct_adaptive"] = std::to_string(100.0 * first[1].yl_measured);
  const double sched_tasks = static_cast<double>(counter_value("sched.tasks"));
  const double sched_steals = static_cast<double>(counter_value("sched.steal"));

  // ---- correctness: bit-identical to a 1-thread call on the same seed -------
  for (int a = 0; a < 2; ++a) {
    if (!same(real_call(in, a, 1), first[a])) {
      failed += static_cast<unsigned>(in.trials);
      rec.fail(std::string(a ? "adaptive" : "nominal") +
               " FCL/YL/mean error differ from the 1-thread call");
    }
  }

  if (args.trace) {
    const double units = 2.0 * in.trials;
    rec.set("stats.sched_tasks", sched_tasks / (units * static_cast<double>(reps)), "per_unit");
    rec.set("stats.sched_steals", sched_steals / (units * static_cast<double>(reps)),
            "per_unit");
    const auto b0 = Clock::now();
    const McValidation base[2] = {replay_call(in, 0, nullptr), replay_call(in, 1, nullptr)};
    const double thr1 = units / seconds_since(b0);
    msts::obs::Registry::instance().reset();
    Tracer tracer;
    const auto t0 = Clock::now();
    const McValidation traced[2] = {replay_call(in, 0, &tracer), replay_call(in, 1, &tracer)};
    const double thr_traced = units / seconds_since(t0);
    const double runs = static_cast<double>(counter_value("path.run_two_port.calls"));
    bool identical = true;
    for (int a = 0; a < 2; ++a) {
      identical = identical && same(base[a], first[a]) && same(traced[a], first[a]);
    }
    rec.facts["replay_bit_identical"] = identical ? "true" : "false";
    if (!identical) rec.fail("replay FCL/YL/mean error differ from the real call");
    rec.set("path.runs_per_trial", runs / units, "count");
    add_plan_cache_hit_ratio(rec);
    add_replay_metrics(rec, threads, thr1, thr_traced);
    const auto spans = tracer.spans();
    const LayerTable table = layer_table(spans);
    table.print("mc-validation, replay at 1 thread");
    add_layer_metrics(rec, table, units);
    rec.set("path.sampled_us", 1e6 * median(span_durations(spans, "path.sampled")), "us");
    rec.set("core.measure_iip3_us",
            1e6 * median(span_durations(spans, "core.measure_mixer_iip3")), "us");
    layer_probes(in, rec);
  }
  rec.attempted = attempted;
  rec.failed = failed;
  rec.set("failed_frac", static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  rec.facts["trials_per_call"] = std::to_string(in.trials);
  return rec;
}

}  // namespace perfbench
