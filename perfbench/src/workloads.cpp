#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>

#include "models/zoo.h"

namespace perfbench {

namespace rm = rrp::models;
namespace rs = rrp::serve;
namespace rsim = rrp::sim;

namespace {

const std::vector<std::string>& fleet_scenarios() {
  static const std::vector<std::string> s = {"cut_in", "urban", "highway",
                                             "degraded"};
  return s;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("check failed: " + what);
}

// FNV-1a 64 over a byte string, continuing from `h`.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

int event_floor(const rs::AdmissionEvent& ev) {
  const std::size_t at = ev.detail.find("floor=");
  require(at != std::string::npos, "floor event without floor: " + ev.detail);
  return std::stoi(ev.detail.substr(at + 6));
}

Workload parse_workload(const std::string& name) {
  for (Workload w : {Workload::FleetDetnet, Workload::FleetLenetOverload,
                     Workload::CampaignFaults})
    if (name == workload_name(w)) return w;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (fleet_detnet | fleet_lenet_overload | "
                              "campaign_faults)");
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::FleetDetnet: return "fleet_detnet";
    case Workload::FleetLenetOverload: return "fleet_lenet_overload";
    case Workload::CampaignFaults: return "campaign_faults";
  }
  return "?";
}

rm::ModelKind workload_model(Workload w) {
  return w == Workload::FleetDetnet ? rm::ModelKind::DetNet
                                    : rm::ModelKind::LeNet;
}

bool is_fleet(Workload w) { return w != Workload::CampaignFaults; }

std::vector<std::uint64_t> schedule_seeds(std::uint64_t seed) {
  std::vector<std::uint64_t> out;
  for (int j = 0; j < kTimedSchedules; ++j) {
    // splitmix64 over (seed, j): distinct, well-mixed schedule seeds.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull +
                      static_cast<std::uint64_t>(j + 1) * 0xD1B54A32D192ED03ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    out.push_back(z ^ (z >> 31));
  }
  for (int j = 0; j < kPanelSchedules; ++j)
    out.push_back(20240807ull + 1000ull * static_cast<std::uint64_t>(j));
  return out;
}

rrp::core::SafetyConfig certified_ladder() {
  rrp::core::SafetyConfig c;
  c.max_level_for = {4, 3, 1, 0};
  return c;
}

std::vector<rs::StreamSpec> fleet_specs(Workload w) {
  const bool detnet = w == Workload::FleetDetnet;
  const int streams = detnet ? 32 : 48;
  std::vector<rs::StreamSpec> specs;
  for (int i = 0; i < streams; ++i) {
    rs::StreamSpec s;
    s.scenario = fleet_scenarios()[static_cast<std::size_t>(i) %
                                   fleet_scenarios().size()];
    s.policy = "greedy";
    // detnet: 80 frames, so that every schedule reaches the mid-criticality
    // scenes that run L3 (at 40, about 1 schedule in 600 ran L0 and L4 only).
    s.frames = detnet ? 80 : 150;
    s.arrival_tick = detnet ? 0 : i;  // overload: one arrival per tick
    s.priority = streams - i;         // earlier arrivals outlive later ones
    s.deadline_ms = 12.0;
    specs.push_back(std::move(s));
  }
  return specs;
}

rs::ServeConfig fleet_config(Workload w, std::uint64_t seed) {
  rs::ServeConfig c;
  c.seed = seed;
  if (w == Workload::FleetDetnet) {
    c.tick_budget_ms = 0.0;  // uncontended
    c.admission.max_streams = 32;
  } else {
    // Modelled compute per tick far below the fleet's demand: admission
    // degrades to the deepest floor and then sheds.
    c.tick_budget_ms = 0.04;
    c.admission.max_streams = 40;
  }
  return c;
}

rsim::CampaignSpec campaign_spec(std::uint64_t seed) {
  rsim::CampaignSpec s;
  s.seed = seed;
  // A multiple of the scrub period: every injected flip meets a scrub.
  s.frames = 160;
  s.replicates = 1;
  s.faults_per_cell = 4;
  s.mix = rsim::FaultMix{};
  s.mix.sensor_blackout = 0.0;
  s.mix.weight_bit_flip = 1.0;
  s.mix.store_bit_flip = 0.0;
  s.mix.stuck_criticality = 0.0;
  s.mix.stale_criticality = 0.0;
  s.mix.latency_spike = 0.0;
  s.mix.dropped_decision = 0.0;
  s.mix.artifact_read_failure = 0.0;
  for (const char* name : {"cut_in", "swarm_cut_in", "rush_hour", "fog_ramp"})
    s.scenarios.push_back(rsim::builtin_scenario_spec(name));
  s.policies = {"greedy", "fixed2"};
  s.scrub_period_frames = 20;
  return s;
}

std::vector<std::string> artifact_paths(rm::ModelKind kind,
                                        const std::string& cache_dir) {
  // Mirrors models/trained_cache.cpp's naming for the default recipes.
  const rm::TrainRecipe train;
  const rm::LevelRecipe levels;
  const std::string model = rm::model_kind_name(kind);
  std::ostringstream dense;
  dense << cache_dir << "/cache_" << model << "_v" << train.version << "_e"
        << train.epochs << "_n" << train.train_samples << ".rrpn";
  std::ostringstream co;
  co << cache_dir << "/cache_" << model << "_co_v" << levels.version << "_e"
     << levels.co_train_epochs << "_" << (levels.structured ? "s" : "u");
  for (double r : levels.ratios) co << "_" << static_cast<int>(r * 1000);
  co << "_base_v" << train.version << "_e" << train.epochs << ".rrpn";
  return {dense.str(), co.str()};
}

void require_artifacts(rm::ModelKind kind, const std::string& cache_dir) {
  for (const std::string& path : artifact_paths(kind, cache_dir))
    if (!std::filesystem::exists(path))
      throw std::runtime_error(
          "missing artifact " + path +
          " (missing, or built with another recipe version); run "
          "`python3 perfbench/run.py --warm-up` first");
}

std::vector<std::string> list_files(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end; it != end;
       it.increment(ec))
    if (it->is_regular_file()) out.push_back(it->path().filename().string());
  std::sort(out.begin(), out.end());
  return out;
}

void build_engines(Prepared& p) {
  if (is_fleet(p.workload)) {
    rs::ServeInputs in;
    in.net = &p.model.net;
    in.levels = &p.model.levels;
    in.bn_states = p.model.bn_states;
    in.certified = certified_ladder();
    while (p.engines.size() < p.seeds.size())
      p.engines.push_back(std::make_unique<rs::ServeEngine>(
          in, fleet_config(p.workload, p.seeds[p.engines.size()])));
  } else {
    p.campaign_inputs = rsim::CampaignInputs{};
    p.campaign_inputs.net = &p.model.net;
    p.campaign_inputs.levels = &p.model.levels;
    p.campaign_inputs.bn_states = p.model.bn_states;
    p.campaign_inputs.certified = certified_ladder();
  }
}

std::unique_ptr<Prepared> prepare(Workload w,
                                  std::vector<std::uint64_t> seeds,
                                  const std::string& cache_dir) {
  const rm::ModelKind kind = workload_model(w);
  require_artifacts(kind, cache_dir);
  auto p = std::make_unique<Prepared>();
  p->workload = w;
  p->seeds = std::move(seeds);
  p->model = rm::get_provisioned(kind, {}, {}, cache_dir);
  build_engines(*p);
  return p;
}

RepResult run_repetition(Prepared& p, int schedule) {
  RepResult r;
  if (is_fleet(p.workload)) {
    r.report = p.engines[static_cast<std::size_t>(schedule)]->run(
        fleet_specs(p.workload));
  } else {
    r.aggregate = rsim::run_campaign(
        campaign_spec(p.seed(schedule)), p.campaign_inputs);
  }
  return r;
}

void summarise(const Prepared& p, int schedule, RepResult& r) {
  RepOutcome& o = r.outcome;
  o = RepOutcome{};
  if (is_fleet(p.workload)) {
    const std::vector<rs::StreamSpec> specs = fleet_specs(p.workload);
    std::ostringstream json;
    rs::write_serve_report_json(r.report, json);
    o.digest = fnv1a(json.str());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const rs::StreamResult& s = r.report.streams[i];
      o.frames_requested += specs[i].frames;
      o.frames_failed += specs[i].frames - s.frames_executed;
      std::ostringstream csv;
      s.run.telemetry.write_csv(csv);
      o.digest = fnv1a(csv.str(), o.digest);
      for (const rrp::core::FrameRecord& rec : s.run.telemetry.records()) {
        ++o.frames_served;
        o.correct += rec.correct ? 1 : 0;
        o.true_violations += rec.true_violation ? 1 : 0;
        if (rec.criticality >= rrp::core::CriticalityClass::High) {
          ++o.critical_frames;
          o.missed_critical += rec.correct ? 0 : 1;
        }
      }
    }
    o.deadline_misses = r.report.deadline_misses;
    require(o.frames_served == r.report.frames,
            "telemetry frames == report frames");
  } else {
    const rsim::CampaignSpec spec = campaign_spec(p.seed(schedule));
    const rsim::CampaignAggregate& a = r.aggregate;
    std::ostringstream rep;
    rsim::write_campaign_report(spec, a, rep);
    o.digest = fnv1a(rep.str());
    o.cells = rsim::campaign_cell_count(spec);
    o.cells_failed = o.cells - a.cells;
    o.frames_requested = o.cells * spec.frames;
    o.frames_served = a.frames;
    o.frames_failed = o.frames_requested - a.frames;
    o.deadline_misses = a.deadline_misses;
    o.correct = -1;  // the aggregate has no accuracy; the replay adds it
    o.critical_frames = a.critical_frames;
    o.missed_critical = a.missed_critical_frames;
    o.true_violations = a.true_safety_violations;
  }
  require(o.frames_requested == o.frames_served + o.frames_failed,
          "frames requested == served + failed");
}

void check_shape(const Prepared& p, int schedule, const RepResult& r) {
  const RepOutcome& o = r.outcome;
  const std::string at = std::string(workload_name(p.workload)) +
                         " schedule " + std::to_string(schedule) + ": ";
  switch (p.workload) {
    case Workload::FleetDetnet: {
      require(o.frames_failed == 0, at + "no failed frames");
      std::set<int> levels;
      for (const rs::StreamResult& s : r.report.streams)
        for (const rrp::core::FrameRecord& rec : s.run.telemetry.records())
          levels.insert(rec.executed_level);
      require(levels.size() >= 3, at + "at least 3 distinct levels run");
      break;
    }
    case Workload::FleetLenetOverload: {
      const int deepest = p.model.levels.level_count() - 1;
      bool deepest_floor = false;
      for (const rs::AdmissionEvent& ev : r.report.events)
        if (ev.action == rs::ServeAction::Degrade)
          deepest_floor = deepest_floor || event_floor(ev) == deepest;
      require(r.report.rejected >= 1, at + "at least one rejection");
      require(deepest_floor, at + "a degrade to the deepest floor");
      require(r.report.sheds >= 1, at + "at least one shed");
      break;
    }
    case Workload::CampaignFaults: {
      const rsim::CampaignAggregate& a = r.aggregate;
      require(o.cells_failed == 0, at + "every cell ran");
      require(a.weight_faults_injected > 0, at + "weight faults injected");
      // A flip that a level switch overwrites before the next scrub (the
      // prune zeroes it, the restore rewrites it from the golden store) is
      // never seen by the scrub; the replay checks that none survives.
      require(a.weight_faults_detected > 0 &&
                  a.weight_faults_detected <= a.weight_faults_injected,
              at + "weight faults detected (" +
                  std::to_string(a.weight_faults_detected) + " of " +
                  std::to_string(a.weight_faults_injected) + ")");
      require(a.weight_faults_healed > 0, at + "weight faults healed");
      break;
    }
  }
}

}  // namespace perfbench
