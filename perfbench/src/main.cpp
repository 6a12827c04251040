// perfbench_run — the benchmark process (run through perfbench/run.py).
//
//   perfbench_run --warm-up --cache DIR
//       Provisions lenet and detnet into DIR (trains on a cold cache, on
//       min(4, hardware threads) threads).
//   perfbench_run --check-artifacts --cache DIR
//       Exits 0 when every artifact is in DIR, 3 otherwise.
//   perfbench_run --workload W --seed N --seconds S --trace 0|1 --cache DIR
//       --trace 0: set-up (3x) and the timed repetitions, tracing off;
//                  prints the end-to-end metrics.
//       --trace 1: the traced run; prints the per-layer metrics.
//
// The last line of standard output is the result JSON; the log (raw wall
// values next to the normalised ones) goes to standard error.  Any failed
// check ends the process with exit code 1 and no result line.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/bn_calibration.h"
#include "metric_table.h"
#include "models/zoo.h"
#include "nn/train.h"
#include "ref_kernel.h"
#include "replay.h"
#include "sim/scenario_gen.h"
#include "sim/vision_task.h"
#include "stats.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pb = perfbench;
namespace rm = rrp::models;
namespace rc = rrp::core;
namespace rsim = rrp::sim;

namespace {

// Reference rounds around one timed repetition (~5 ms at nominal speed)
// and around one set-up (~80 ms: set-up spans several host-mode flips).
constexpr int kRepRefRounds = 40;
constexpr int kSetupRefRounds = 600;
constexpr int kRefSplits = 5;  // slices per reference measurement
constexpr int kSetups = 3;
constexpr int kMinCycles = 3;  // timed repetitions per schedule, at least

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string cache = ".bench_build/cache";
  bool warm_up = false;
  bool check_artifacts = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--warm-up" || flag == "--check-artifacts") {
      (flag == "--warm-up" ? a.warm_up : a.check_artifacts) = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = std::stoi(v);
    else if (flag == "--cache") a.cache = v;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (!a.warm_up && !a.check_artifacts && a.workload.empty())
    throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1)
    throw std::invalid_argument("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("check failed: " + what);
}

/// Keeps the reference brackets and the work they bracket on one vCPU:
/// the host's vCPUs change speed independently.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Every reference measurement of the run, in ms per kRepRefRounds rounds.
struct RefLog {
  std::vector<double> ms;
  double sink = 0.0;  // consumes every checksum

  /// Time of `rounds` reference rounds, in ms: the median of kRefSplits
  /// equal slices, so a preemption that hits one slice does not count.
  double measure(int rounds) {
    const int slice = rounds / kRefSplits;
    std::vector<double> slice_ms;
    for (int i = 0; i < kRefSplits; ++i) {
      const double t0 = pb::now_s();
      sink += pb::ref_kernel(slice);
      slice_ms.push_back((pb::now_s() - t0) * 1e3);
    }
    const double ms_taken = pb::median(slice_ms) * kRefSplits;
    ms.push_back(ms_taken * kRepRefRounds / (slice * kRefSplits));
    return ms_taken;
  }
};

/// Times `fn` bracketed by `rounds` reference rounds on either side.
template <typename Fn>
pb::Bracketed bracketed(RefLog& refs, int rounds, Fn&& fn) {
  pb::Bracketed b;
  b.ref_before_ms = refs.measure(rounds);
  const double t0 = pb::now_s();
  fn();
  b.wall_s = pb::now_s() - t0;
  b.ref_after_ms = refs.measure(rounds);
  return b;
}

double nominal_ms(int rounds) {
  return pb::kRefNominalMsPerRound * (rounds / kRefSplits * kRefSplits);
}

void check_cache_untouched(const std::vector<std::string>& before,
                           const std::string& cache) {
  require(pb::list_files(cache) == before,
          "set-up wrote nothing to the artifact cache (no training)");
}

double frac(std::int64_t num, std::int64_t den) {
  require(den > 0, "non-empty denominator");
  return static_cast<double>(num) / static_cast<double>(den);
}

// ---------------------------------------------------------------------------
// --warm-up

int warm_up(const Args& a) {
  rrp::ThreadPool::set_global_threads(static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u)));
  const double t0 = pb::now_s();
  // One model at a time, so each trains on the whole pool (provisioning
  // them side by side would leave each model one thread).
  for (rm::ModelKind k : {rm::ModelKind::LeNet, rm::ModelKind::DetNet}) {
    rm::get_provisioned(k, {}, {}, a.cache);
    pb::require_artifacts(k, a.cache);
  }
  std::cerr << "perfbench: artifacts ready in " << a.cache << " ("
            << pb::now_s() - t0 << " s)\n";
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end run.

int end_to_end(const Args& a, pb::Workload w) {
  RefLog refs;
  const std::vector<std::string> cache_before = pb::list_files(a.cache);

  // Set-up, several times: cached artifacts -> one engine ready.  The
  // engines of the other schedules are built afterwards, untimed.
  const std::vector<std::uint64_t> seeds = pb::schedule_seeds(a.seed);
  std::vector<double> setup_norm;
  std::unique_ptr<pb::Prepared> p;
  for (int s = 0; s < kSetups; ++s) {
    p.reset();
    const pb::Bracketed b = bracketed(refs, kSetupRefRounds, [&] {
      p = pb::prepare(w, {seeds.front()}, a.cache);
    });
    setup_norm.push_back(pb::normalised_s(b, nominal_ms(kSetupRefRounds)));
    std::cerr << "setup " << s << ": raw " << b.wall_s << " s, normalised "
              << setup_norm.back() << " s (host speed "
              << pb::host_speed(b, nominal_ms(kSetupRefRounds)) << ")\n";
  }
  check_cache_untouched(cache_before, a.cache);
  p->seeds = seeds;
  pb::build_engines(*p);

  // Quality panel: one untimed repetition per fixed schedule (this also
  // warms every lazy path before the timed phase).
  pb::RepOutcome q;
  for (int j = pb::kTimedSchedules; j < static_cast<int>(p->seeds.size());
       ++j) {
    pb::RepResult r = pb::run_repetition(*p, j);
    pb::summarise(*p, j, r);
    pb::check_shape(*p, j, r);
    const pb::RepOutcome& o = r.outcome;
    if (!pb::is_fleet(w))  // the campaign aggregate has no accuracy
      q.correct += pb::replay(*p, j, r, nullptr, nullptr).correct;
    else
      q.correct += o.correct;
    q.frames_requested += o.frames_requested;
    q.frames_served += o.frames_served;
    q.cells += o.cells;
    q.cells_failed += o.cells_failed;
    q.deadline_misses += o.deadline_misses;
    q.critical_frames += o.critical_frames;
    q.missed_critical += o.missed_critical;
    q.true_violations += o.true_violations;
  }
  require(q.critical_frames > 0, "the quality panel has critical frames");

  // Timed phase: fixed-work repetitions cycling over the timed schedules,
  // each bracketed by the reference kernel.  A schedule's first
  // repetition fixes its report digest and is checked (outside the timed
  // interval); every later one must reproduce the digest.
  constexpr int kTimed = pb::kTimedSchedules;
  std::vector<std::vector<double>> norm(kTimed), raw(kTimed);
  std::vector<std::int64_t> frames(kTimed, 0);
  std::vector<std::uint64_t> digest(kTimed, 0);
  const double deadline = pb::now_s() + a.seconds;
  std::int64_t reps = 0;
  while (pb::now_s() < deadline || reps < kTimed * kMinCycles) {
    const int j = static_cast<int>(reps % kTimed);
    const std::size_t js = static_cast<std::size_t>(j);
    pb::RepResult r;
    const pb::Bracketed b = bracketed(refs, kRepRefRounds, [&] {
      r = pb::run_repetition(*p, j);
    });
    pb::summarise(*p, j, r);
    if (reps < kTimed) {
      pb::check_shape(*p, j, r);
      // The campaign's no-surviving-fault check runs in its replay.
      if (!pb::is_fleet(w)) pb::replay(*p, j, r, nullptr, nullptr);
      digest[js] = r.outcome.digest;
      frames[js] = r.outcome.frames_served;
    }
    require(r.outcome.digest == digest[js],
            "repetition " + std::to_string(reps) +
                " reproduces its schedule's report digest");
    norm[js].push_back(pb::normalised_s(b, nominal_ms(kRepRefRounds)));
    raw[js].push_back(b.wall_s);
    ++reps;
  }
  // Frames of one cycle over the schedules / its median normalised time.
  std::int64_t cycle_frames = 0;
  double norm_s = 0.0, raw_s = 0.0;
  for (std::size_t j = 0; j < kTimed; ++j) {
    cycle_frames += frames[j];
    norm_s += pb::median(norm[j]);
    raw_s += pb::median(raw[j]);
  }

  pb::MetricSink sink(pb::end_to_end_metrics());
  sink.set("setup_s", pb::median(setup_norm));
  sink.set("frames_per_s", static_cast<double>(cycle_frames) / norm_s);
  sink.set("peak_rss_mb", peak_rss_mb());
  sink.set("served_frac",
           pb::is_fleet(w) ? frac(q.frames_served, q.frames_requested)
                           : 1.0 - frac(q.cells_failed, q.cells));
  sink.set("deadline_met_frac",
           1.0 - frac(q.deadline_misses, q.frames_served));
  sink.set("accuracy", frac(q.correct, q.frames_served));
  sink.set("critical_recall", 1.0 - frac(q.missed_critical, q.critical_frames));
  sink.set("certified_frac", 1.0 - frac(q.true_violations, q.frames_served));

  std::cerr << "timed: " << reps << " repetitions over " << kTimed
            << " schedules, " << cycle_frames << " frames per cycle; "
            << "frames/s raw " << static_cast<double>(cycle_frames) / raw_s
            << ", normalised " << static_cast<double>(cycle_frames) / norm_s
            << "; ref p50 " << pb::median(refs.ms) << " ms, mode ratio "
            << pb::mode_ratio(refs.ms) << " (sink " << refs.sink << ")\n";
  std::cout << sink.finish(true, reps, 0) << std::endl;
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: the traced run.

/// Appends one traced replay's samples to the run's, scaled to nominal
/// host speed by `factor` (pb::speed_factor of the replay's brackets).
void append_scaled(pb::FrameTrace& dst, const pb::FrameTrace& src,
                   double factor) {
  for (auto field : {&pb::FrameTrace::decide_us, &pb::FrameTrace::controller_us,
                     &pb::FrameTrace::render_us, &pb::FrameTrace::infer_us,
                     &pb::FrameTrace::restore_us, &pb::FrameTrace::prune_us})
    for (double v : src.*field) (dst.*field).push_back(v * factor);
  dst.infer_level.insert(dst.infer_level.end(), src.infer_level.begin(),
                         src.infer_level.end());
  dst.restore_bytes.insert(dst.restore_bytes.end(), src.restore_bytes.begin(),
                           src.restore_bytes.end());
  dst.set_level_calls += src.set_level_calls;
  dst.level_switches += src.level_switches;
  dst.macs += src.macs;
}

void append_scaled(pb::ReplayTimes& dst, const pb::ReplayTimes& src,
                   double factor) {
  for (auto field :
       {&pb::ReplayTimes::step_us, &pb::ReplayTimes::self_us,
        &pb::ReplayTimes::run_us, &pb::ReplayTimes::scenario_gen_us,
        &pb::ReplayTimes::clone_us})
    for (double v : src.*field) (dst.*field).push_back(v * factor);
  dst.steps_s += src.steps_s * factor;
}

double p50_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : pb::median(v);
}
double p99_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : pb::quantile(v, 0.99);
}

int traced(const Args& a, pb::Workload w) {
  RefLog refs;
  const rm::ModelKind kind = pb::workload_model(w);
  const std::vector<std::string> cache_before = pb::list_files(a.cache);
  pb::require_artifacts(kind, a.cache);
  pb::MetricSink sink(pb::per_layer_metrics());
  const double nominal_setup = nominal_ms(kSetupRefRounds);
  const auto setup_step = [&](auto&& fn) {
    return pb::normalised_s(bracketed(refs, kSetupRefRounds, fn),
                            nominal_setup);
  };

  // Set-up, whole and broken down by the calls get_provisioned makes.
  auto p = std::make_unique<pb::Prepared>();
  p->workload = w;
  sink.set("models.provision_s", setup_step([&] {
             p->model = rm::get_provisioned(kind, {}, {}, a.cache);
           }));
  rm::TrainedModel dense;
  sink.set("models.load_s",
           setup_step([&] { dense = rm::get_trained(kind, {}, a.cache); }));
  const rm::LevelRecipe level_recipe;
  rrp::prune::PruneLevelLibrary ladder;
  sink.set("prune.ladder_build_s", setup_step([&] {
             ladder = rrp::prune::PruneLevelLibrary::build_structured(
                 dense.net, level_recipe.ratios, rm::zoo_input_shape(),
                 rrp::prune::ImportanceMetric::L1, /*min_channels=*/2);
           }));
  require(ladder.level_count() == p->model.levels.level_count(),
          "rebuilt ladder matches the provisioned one");
  rrp::nn::Network probe_net = p->model.net.clone();
  std::vector<rc::BnState> bn_states;
  sink.set("core.bn_calibrate_s", setup_step([&] {
             if (rc::capture_bn_state(probe_net).empty()) return;
             rrp::Rng calib_rng(rm::TrainRecipe{}.data_seed + 7);
             bn_states = rc::calibrate_bn_per_level(
                 probe_net, p->model.levels, p->model.train_data,
                 rc::BnCalibrationConfig{}, calib_rng);
           }));
  require(bn_states.size() == p->model.bn_states.size(),
          "recalibrated BN states match the provisioned ones");
  std::vector<double> level_acc;
  sink.set("nn.level_eval_s", setup_step([&] {
             rc::ReversiblePruner probe(probe_net, p->model.levels);
             if (!bn_states.empty()) probe.set_bn_states(bn_states);
             for (int k = 0; k < p->model.levels.level_count(); ++k) {
               probe.set_level(k);
               level_acc.push_back(rrp::nn::evaluate_accuracy(
                   probe_net, p->model.eval_data));
             }
             probe.set_level(0);
           }));
  require(level_acc == p->model.level_accuracy,
          "per-level accuracy reproduces the provisioned one");
  const std::vector<std::uint64_t> seeds = pb::schedule_seeds(a.seed);
  sink.set("serve.engine_build_s", setup_step([&] {
             p->seeds = {seeds.front()};
             pb::build_engines(*p);
           }));
  p->seeds = seeds;
  pb::build_engines(*p);
  check_cache_untouched(cache_before, a.cache);

  // The engine's own run (tracing off), checked once; the loop below
  // repeats it between the replays.
  const int kSchedule = 0;
  pb::RepResult r = pb::run_repetition(*p, kSchedule);
  pb::summarise(*p, kSchedule, r);
  pb::check_shape(*p, kSchedule, r);
  std::vector<double> run_s;

  pb::FrameTrace tr;
  pb::ReplayTimes times;     // traced replays
  pb::ReplayTimes plain_t;   // plain replays (step times only)
  std::vector<double> plain_s, traced_s, plain_steps_s;
  std::int64_t traced_replays = 0;
  std::int64_t frames_per_replay = 0;
  const double deadline = pb::now_s() + a.seconds;
  pb::ReplayFacts facts;
  while (pb::now_s() < deadline || traced_replays < 2) {
    pb::RepResult again;
    const pb::Bracketed run_b = bracketed(refs, kRepRefRounds, [&] {
      again = pb::run_repetition(*p, kSchedule);
    });
    run_s.push_back(pb::normalised_s(run_b, nominal_ms(kRepRefRounds)));
    pb::summarise(*p, kSchedule, again);
    require(again.outcome.digest == r.outcome.digest,
            "every engine run reproduces the report digest");

    plain_t = pb::ReplayTimes{};
    const pb::Bracketed pb_plain = bracketed(refs, kRepRefRounds, [&] {
      pb::replay(*p, kSchedule, r, nullptr, &plain_t);
    });
    const double speed_plain =
        pb::speed_factor(pb_plain, nominal_ms(kRepRefRounds));
    plain_s.push_back(pb_plain.wall_s * speed_plain);
    plain_steps_s.push_back(plain_t.steps_s * speed_plain);

    pb::FrameTrace one_trace;
    pb::ReplayTimes one_times;
    const pb::Bracketed pb_traced = bracketed(refs, kRepRefRounds, [&] {
      facts = pb::replay(*p, kSchedule, r, &one_trace, &one_times);
    });
    const double speed = pb::speed_factor(pb_traced, nominal_ms(kRepRefRounds));
    traced_s.push_back(pb_traced.wall_s * speed);
    append_scaled(tr, one_trace, speed);
    append_scaled(times, one_times, speed);
    frames_per_replay = facts.frames;
    ++traced_replays;
  }

  // nn: per-level probe through the workload's provider.  The campaign's
  // network is declared first: the pruner restores it when destroyed.
  rrp::nn::Network campaign_net;
  std::unique_ptr<rc::InferenceProvider> provider;
  std::vector<double> level_weight_bytes;
  if (pb::is_fleet(w)) {
    rc::CompactedLadderProvider& shared = p->engines[0]->shared_provider();
    provider = std::make_unique<rc::CompactedLadderView>(shared);
    for (int k = 0; k < shared.level_count(); ++k)
      level_weight_bytes.push_back(
          4.0 * static_cast<double>(shared.network_at(k).param_count()));
  } else {
    campaign_net = p->model.net.clone();
    auto pruner =
        std::make_unique<rc::ReversiblePruner>(campaign_net, p->model.levels);
    if (!p->model.bn_states.empty()) pruner->set_bn_states(p->model.bn_states);
    // Masked mode: every level reads the full dense weight tensors.
    level_weight_bytes.assign(
        static_cast<std::size_t>(pruner->level_count()),
        4.0 * static_cast<double>(campaign_net.param_count()));
    provider = std::move(pruner);
  }
  const rsim::VisionTaskConfig vision;
  const rsim::Scenario probe_scenario =
      rsim::make_suite_or_dsl("cut_in", 16, 20240325);
  rrp::Rng probe_rng(7);
  std::vector<rrp::nn::Tensor> probe_frames;
  for (const rsim::Scene& scene : probe_scenario.scenes) {
    rrp::nn::Tensor f = rsim::render_scene(scene, vision, probe_rng);
    rrp::nn::Shape batched = f.shape();
    batched.insert(batched.begin(), 1);
    probe_frames.push_back(f.reshape(batched));
  }
  for (int k = 0; k < 5; ++k) {
    require(k < provider->level_count(), "a five-level ladder");
    provider->set_level(k);
    for (const rrp::nn::Tensor& x : probe_frames) provider->infer(x);  // warm
    std::vector<double> us;
    const pb::Bracketed b = bracketed(refs, kRepRefRounds, [&] {
      for (int rep = 0; rep < 4; ++rep)
        for (const rrp::nn::Tensor& x : probe_frames) {
          const double t0 = pb::now_s();
          provider->infer(x);
          us.push_back((pb::now_s() - t0) * 1e6);
        }
    });
    sink.set("nn.infer_us.L" + std::to_string(k),
             pb::median(us) * pb::speed_factor(b, nominal_ms(kRepRefRounds)));
  }
  provider->set_level(0);

  // nn / core / sim from the traced replays.
  const double infer_total =
      std::accumulate(tr.infer_us.begin(), tr.infer_us.end(), 0.0);
  const double step_total =
      std::accumulate(times.step_us.begin(), times.step_us.end(), 0.0);
  double weight_bytes = 0.0;
  for (int level : tr.infer_level)
    weight_bytes += level_weight_bytes[static_cast<std::size_t>(level)];
  const double replays = static_cast<double>(traced_replays);
  sink.set("nn.infer_calls", static_cast<double>(tr.infer_us.size()) / replays);
  sink.set("nn.infer_us_p50", pb::median(tr.infer_us));
  sink.set("nn.infer_us_p99", pb::quantile(tr.infer_us, 0.99));
  sink.set("nn.infer_share", infer_total / step_total);
  sink.set("nn.macs_per_frame",
           static_cast<double>(tr.macs) /
               (replays * static_cast<double>(frames_per_replay)));
  sink.set("nn.gmacs_per_s",
           static_cast<double>(tr.macs) / (infer_total * 1e-6) / 1e9);
  sink.set("nn.weight_bytes_per_frame",
           weight_bytes / static_cast<double>(tr.infer_level.size()));

  sink.set("core.controller_step_us_p50", pb::median(tr.controller_us));
  sink.set("core.controller_step_us_p99", pb::quantile(tr.controller_us, 0.99));
  sink.set("core.decide_us_p50", pb::median(tr.decide_us));
  sink.set("core.decide_us_p99", pb::quantile(tr.decide_us, 0.99));
  sink.set("core.set_level_calls",
           static_cast<double>(tr.set_level_calls) / replays);
  sink.set("core.level_switch_ratio",
           frac(tr.level_switches, tr.set_level_calls));
  sink.set("core.restore_us_p50", p50_or_zero(tr.restore_us));
  sink.set("core.restore_us_p99", p99_or_zero(tr.restore_us));
  sink.set("core.prune_us_p50", p50_or_zero(tr.prune_us));
  sink.set("core.prune_us_p99", p99_or_zero(tr.prune_us));
  sink.set("core.restore_bytes_mean",
           tr.restore_bytes.empty()
               ? 0.0
               : std::accumulate(tr.restore_bytes.begin(),
                                 tr.restore_bytes.end(), 0.0) /
                     static_cast<double>(tr.restore_bytes.size()));
  sink.set("core.resident_weight_mb",
           static_cast<double>(provider->resident_weight_bytes()) / 1e6);

  sink.set("sim.step_us_p50", pb::median(times.step_us));
  sink.set("sim.step_us_p99", pb::quantile(times.step_us, 0.99));
  sink.set("sim.self_us_p50", pb::median(times.self_us));
  sink.set("sim.self_us_p99", pb::quantile(times.self_us, 0.99));
  sink.set("sim.render_us_p50", pb::median(tr.render_us));
  sink.set("sim.scenario_gen_us_p50", pb::median(times.scenario_gen_us));
  sink.set("sim.cell_us_p50", pb::median(times.run_us));
  sink.set("sim.cell_us_p99", pb::quantile(times.run_us, 0.99));
  sink.set("sim.clone_us_p50", pb::median(times.clone_us));
  // Both 0 on the fleets (their aggregate is empty).
  const std::int64_t injected = r.aggregate.weight_faults_injected;
  const std::int64_t healed = r.aggregate.weight_faults_healed;
  sink.set("sim.weight_faults_injected", static_cast<double>(injected));
  sink.set("sim.weight_faults_healed", static_cast<double>(healed));
  // Repairs over applied flips: below 1 where a level switch overwrote a
  // flip before the next scrub (or one repair covered several flips), so
  // it tracks scrub coverage.  0 on the fleets, which inject none.
  sink.set("sim.heal_ratio", injected > 0 ? frac(healed, injected) : 0.0);

  const rrp::serve::ServeReport& rep = r.report;  // empty for the campaign
  sink.set("serve.run_s", pb::median(run_s));
  // Paired per loop iteration: engine run and plain replay ran back to
  // back, so they saw nearly the same host.
  std::vector<double> self_share;
  for (std::size_t i = 0; i < run_s.size(); ++i)
    self_share.push_back(1.0 - plain_steps_s[i] / run_s[i]);
  sink.set("serve.self_share", pb::median(self_share));
  sink.set("serve.admitted", static_cast<double>(rep.admitted));
  sink.set("serve.rejected", static_cast<double>(rep.rejected));
  sink.set("serve.shed", static_cast<double>(rep.sheds));
  sink.set("serve.degrades", static_cast<double>(rep.degrades));
  sink.set("serve.restores", static_cast<double>(rep.restores));
  sink.set("serve.peak_active", static_cast<double>(rep.peak_active));
  sink.set("serve.final_floor", static_cast<double>(rep.final_floor));
  sink.set("serve.mean_congestion", rep.mean_congestion);

  sink.set("bench.ref_ms_p50", pb::median(refs.ms));
  sink.set("bench.ref_mode_ratio", pb::mode_ratio(refs.ms));
  sink.set("bench.trace_overhead_frac",
           pb::median(traced_s) / pb::median(plain_s) - 1.0);

  std::cerr << "traced: " << traced_replays << " traced + " << plain_s.size()
            << " plain replays of " << frames_per_replay
            << " frames; engine run normalised " << pb::median(run_s)
            << " s; ref p50 " << pb::median(refs.ms)
            << " ms (sink " << refs.sink << ")\n";
  std::cout << sink.finish(true, traced_replays, 0) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.warm_up) return warm_up(a);
    if (a.check_artifacts) {
      for (rm::ModelKind k : {rm::ModelKind::LeNet, rm::ModelKind::DetNet})
        for (const std::string& path : pb::artifact_paths(k, a.cache))
          if (!std::filesystem::exists(path)) return 3;
      return 0;
    }
    const pb::Workload w = pb::parse_workload(a.workload);
    // One thread: no pool workers, parallel_for runs inline (the host's
    // vCPUs change speed independently, so the reference bracket only
    // describes the thread it ran on).
    rrp::ThreadPool::set_global_threads(1);
    pin_to_current_cpu();
    return a.trace == 0 ? end_to_end(a, w) : traced(a, w);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
