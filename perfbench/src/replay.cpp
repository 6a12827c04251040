#include "replay.h"

#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/controller.h"
#include "core/integrity.h"
#include "sim/frame_engine.h"
#include "sim/scenario_gen.h"

namespace perfbench {

namespace rc = rrp::core;
namespace rs = rrp::serve;
namespace rsim = rrp::sim;

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("replay check failed: " + what);
}

// Same vocabulary as the serve engine and the campaign: greedy | fixed<K>.
std::unique_ptr<rc::Policy> make_policy(const std::string& name,
                                        int hysteresis, int level_count) {
  if (name.rfind("fixed", 0) == 0)
    return std::make_unique<rc::FixedPolicy>(std::stoi(name.substr(5)));
  require(name == "greedy", "known policy " + name);
  return std::make_unique<rc::CriticalityGreedyPolicy>(
      certified_ladder(), hysteresis, level_count);
}

// Steps one stream to `frames` frames (or to its end), timing every step.
// `before_step(k)` runs ahead of frame k, outside the timed interval.
template <typename BeforeStep>
rsim::RunResult step_stream(const rsim::FrameEngine& engine,
                            rsim::StreamState& state, std::int64_t frames,
                            FrameTrace* trace, ReplayTimes* times,
                            BeforeStep before_step) {
  for (std::int64_t k = 0; k < frames && !state.done(); ++k) {
    before_step(k);
    const std::size_t infer_before = trace ? trace->infer_us.size() : 0;
    const std::size_t ctrl_before = trace ? trace->controller_us.size() : 0;
    const double t0 = now_s();
    engine.step(state);
    const double step_us = (now_s() - t0) * 1e6;
    if (times == nullptr) continue;
    times->step_us.push_back(step_us);
    times->steps_s += step_us * 1e-6;
    if (trace != nullptr) {
      double inner = 0.0;
      for (std::size_t i = infer_before; i < trace->infer_us.size(); ++i)
        inner += trace->infer_us[i];
      for (std::size_t i = ctrl_before; i < trace->controller_us.size(); ++i)
        inner += trace->controller_us[i];
      times->self_us.push_back(step_us - inner);
    }
  }
  return engine.finish(state);
}

void tally(const rsim::RunResult& run, ReplayFacts& facts) {
  for (const rc::FrameRecord& rec : run.telemetry.records()) {
    ++facts.frames;
    facts.correct += rec.correct ? 1 : 0;
    if (rec.criticality >= rc::CriticalityClass::High) {
      ++facts.critical_frames;
      facts.missed_critical += rec.correct ? 0 : 1;
    }
  }
}

std::string telemetry_csv(const rsim::RunResult& run) {
  std::ostringstream os;
  run.telemetry.write_csv(os);
  return os.str();
}

ReplayFacts replay_fleet(Prepared& p, int schedule, const RepResult& r,
                         FrameTrace* trace, ReplayTimes* times) {
  rs::ServeEngine& engine = *p.engines[static_cast<std::size_t>(schedule)];
  const rs::ServeConfig& cfg = engine.config();
  const std::vector<rs::StreamSpec> specs = fleet_specs(p.workload);
  require(r.report.streams.size() == specs.size(), "one result per spec");

  // Fleet floor per tick: a Degrade/Restore decided at tick t applies from
  // tick t + 1 (the engine updates admission after the tick's fold).
  std::vector<std::pair<std::int64_t, int>> floors;  // (first tick, floor)
  for (const rs::AdmissionEvent& ev : r.report.events)
    if (ev.action == rs::ServeAction::Degrade ||
        ev.action == rs::ServeAction::Restore)
      floors.emplace_back(ev.tick + 1, event_floor(ev));
  const auto floor_at = [&floors](std::int64_t tick) {
    int floor = 0;
    for (const auto& [from, f] : floors)
      if (from <= tick) floor = f;
    return floor;
  };

  ReplayFacts facts;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const rs::StreamResult& result = r.report.streams[i];
    if (result.admitted_tick < 0) continue;  // rejected: nothing executed
    const rs::StreamSpec& spec = specs[i];
    const double t_run = now_s();

    double t0 = now_s();
    const rsim::Scenario scenario = rsim::make_suite_or_dsl(
        spec.scenario, spec.frames, rs::stream_scenario_seed(cfg.seed, i));
    const double gen_us = (now_s() - t0) * 1e6;
    t0 = now_s();
    rc::CompactedLadderView view(engine.shared_provider());
    const double view_us = (now_s() - t0) * 1e6;

    rs::FloorPolicy floor_policy(
        make_policy(spec.policy, spec.hysteresis, view.level_count()));
    std::unique_ptr<TimingPolicy> timed_policy;
    std::unique_ptr<TimingProvider> timed_view;
    rc::Policy* policy = &floor_policy;
    rc::InferenceProvider* provider = &view;
    if (trace != nullptr) {
      timed_policy = std::make_unique<TimingPolicy>(floor_policy, *trace);
      timed_view = std::make_unique<TimingProvider>(view, *trace);
      policy = timed_policy.get();
      provider = timed_view.get();
    }
    rc::SafetyMonitor monitor(certified_ladder());
    rc::RuntimeController controller(*policy, *provider, &monitor);

    rsim::RunConfig rcfg;
    rcfg.deadline_ms = spec.deadline_ms;
    rcfg.sensing_delay_frames = cfg.sensing_delay_frames;
    rcfg.platform = cfg.platform;
    rcfg.criticality = cfg.criticality;
    rcfg.vision = cfg.vision;
    rcfg.noise_seed =
        spec.seed != 0 ? spec.seed : rs::stream_noise_seed(cfg.seed, i);
    const rsim::FrameEngine frame_engine(rcfg);
    rsim::StreamState state = frame_engine.make_stream(scenario, controller);
    const rsim::RunResult run = step_stream(
        frame_engine, state, result.frames_executed, trace, times,
        [&](std::int64_t k) {
          floor_policy.set_floor(floor_at(result.admitted_tick + k));
        });

    require(telemetry_csv(run) == telemetry_csv(result.run),
            "stream " + result.name + " telemetry equals the engine's");
    tally(run, facts);
    if (times != nullptr) {
      times->scenario_gen_us.push_back(gen_us);
      times->clone_us.push_back(view_us);
      times->run_us.push_back((now_s() - t_run) * 1e6);
    }
  }
  require(facts.frames == r.report.frames, "replayed frames == served");
  return facts;
}

ReplayFacts replay_campaign(Prepared& p, int schedule, const RepResult& r,
                            FrameTrace* trace, ReplayTimes* times) {
  const rsim::CampaignSpec spec = campaign_spec(p.seed(schedule));
  const rsim::CampaignInputs& in = p.campaign_inputs;
  const std::int64_t cells = rsim::campaign_cell_count(spec);
  const std::int64_t per_scenario =
      static_cast<std::int64_t>(spec.policies.size()) * spec.replicates;

  ReplayFacts facts;
  rsim::CampaignAggregate sum;  // counters only
  for (std::int64_t index = 0; index < cells; ++index) {
    const rsim::CampaignCell cell = rsim::campaign_cell(spec, index);
    const double t_run = now_s();

    double t0 = now_s();
    rrp::nn::Network net = in.net->clone();
    const double clone_us = (now_s() - t0) * 1e6;
    rc::ReversiblePruner pruner(net, *in.levels);
    if (!in.bn_states.empty()) pruner.set_bn_states(in.bn_states);
    rc::IntegrityChecker checker(pruner.store());

    std::unique_ptr<rc::Policy> cell_policy =
        make_policy(cell.policy, spec.hysteresis, pruner.level_count());
    std::unique_ptr<TimingPolicy> timed_policy;
    std::unique_ptr<TimingProvider> timed_pruner;
    rc::Policy* policy = cell_policy.get();
    rc::InferenceProvider* provider = &pruner;
    if (trace != nullptr) {
      timed_policy = std::make_unique<TimingPolicy>(*cell_policy, *trace);
      timed_pruner = std::make_unique<TimingProvider>(pruner, *trace);
      policy = timed_policy.get();
      provider = timed_pruner.get();
    }
    rc::SafetyMonitor monitor(in.certified);
    rc::RuntimeController controller(*policy, *provider, &monitor);

    rsim::FaultHarness harness;
    harness.targets.live_net = &pruner.network();
    harness.targets.store = &pruner.mutable_store();
    harness.checker = &checker;
    harness.levels = in.levels;

    rsim::RunConfig rcfg;
    rcfg.deadline_ms = spec.deadline_ms;
    rcfg.sensing_delay_frames = spec.sensing_delay_frames;
    rcfg.scrub_period_frames = spec.scrub_period_frames;
    rcfg.watchdog_overrun_frames = spec.watchdog_overrun_frames;
    rcfg.noise_seed = cell.noise_seed;
    if (spec.faults_per_cell > 0)
      rcfg.faults = rsim::FaultPlan::random_plan(
          cell.fault_seed, spec.frames, spec.faults_per_cell, spec.mix);

    t0 = now_s();
    const rsim::Scenario scenario = rsim::generate_scenario(
        spec.scenarios[static_cast<std::size_t>(index / per_scenario)],
        spec.frames, cell.scenario_seed);
    const double gen_us = (now_s() - t0) * 1e6;

    const rsim::FrameEngine frame_engine(rcfg);
    rsim::StreamState state =
        frame_engine.make_stream(scenario, controller, &harness);
    const rsim::RunResult run = step_stream(frame_engine, state, spec.frames,
                                            trace, times, [](std::int64_t) {});
    tally(run, facts);
    require(checker.scrub(pruner.network(),
                          in.levels->mask(pruner.current_level()))
                .clean(),
            "cell " + std::to_string(index) +
                " ends with no corrupted weight (every fault healed)");

    sum.frames += run.summary.frames;
    sum.true_safety_violations += run.summary.true_safety_violations;
    sum.safety_violations += run.summary.safety_violations;
    sum.vetoes += run.summary.vetoes;
    sum.level_switches += run.summary.level_switches;
    sum.watchdog_degrades += monitor.watchdog_degrade_count();
    for (const rc::FrameRecord& rec : run.telemetry.records())
      if (rec.latency_ms + rec.switch_us * 1e-3 > rec.deadline_ms)
        ++sum.deadline_misses;
    for (const rsim::InjectedFault& f : harness.injected)
      if ((f.kind == rsim::FaultKind::WeightBitFlip ||
           f.kind == rsim::FaultKind::StoreBitFlip) &&
          f.applied)
        ++sum.weight_faults_injected;
    for (const rsim::FaultHarness::Recovery& rec : harness.recoveries) {
      if (rec.recovered)
        ++sum.weight_faults_healed;
      else
        ++facts.recoveries_failed;
    }
    if (times != nullptr) {
      times->scenario_gen_us.push_back(gen_us);
      times->clone_us.push_back(clone_us);
      times->run_us.push_back((now_s() - t_run) * 1e6);
    }
  }

  const rsim::CampaignAggregate& a = r.aggregate;
  require(a.cells == cells, "cells");
  require(sum.frames == a.frames, "frames");
  require(facts.critical_frames == a.critical_frames, "critical frames");
  require(facts.missed_critical == a.missed_critical_frames,
          "missed critical frames");
  require(sum.deadline_misses == a.deadline_misses, "deadline misses");
  require(sum.safety_violations == a.safety_violations, "safety violations");
  require(sum.true_safety_violations == a.true_safety_violations,
          "true safety violations");
  require(sum.vetoes == a.vetoes, "vetoes");
  require(sum.level_switches == a.level_switches, "level switches");
  require(sum.watchdog_degrades == a.watchdog_degrades, "watchdog degrades");
  require(sum.weight_faults_injected == a.weight_faults_injected,
          "weight faults injected");
  require(sum.weight_faults_healed == a.weight_faults_healed,
          "weight faults healed");
  require(facts.recoveries_failed == 0,
          "every detected weight fault is healed");
  return facts;
}

}  // namespace

ReplayFacts replay(Prepared& p, int schedule, const RepResult& r,
                   FrameTrace* trace, ReplayTimes* times) {
  return is_fleet(p.workload) ? replay_fleet(p, schedule, r, trace, times)
                              : replay_campaign(p, schedule, r, trace, times);
}

}  // namespace perfbench
