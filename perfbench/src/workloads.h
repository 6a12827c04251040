// workloads.h — the benchmark's three workloads and their set-up.
//
//   fleet_detnet          serve::ServeEngine over the provisioned detnet
//                         ladder: 32 uncontended streams (the nn kernels).
//   fleet_lenet_overload  serve::ServeEngine over lenet: 48 staggered
//                         streams, capacity 40, a tight modelled tick
//                         budget (admission, degrade, shedding and the
//                         per-frame sim/core/serve overhead).
//   campaign_faults       sim::run_campaign over lenet with weight faults
//                         (masked prune/restore, scrub, self-heal, clone).
//
// Every workload is a closed loop driven by a schedule seed (ServeConfig::
// seed / CampaignSpec::seed).  A run uses kTimedSchedules seeds derived
// from the benchmark's --seed for its timed repetitions, and a fixed panel
// of kPanelSchedules seeds for the quality metrics, so those are a
// deterministic function of the code and identical on every run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "models/trained_cache.h"
#include "serve/serve_engine.h"
#include "sim/campaign.h"

namespace perfbench {

enum class Workload { FleetDetnet, FleetLenetOverload, CampaignFaults };

/// Throws std::invalid_argument on an unknown name.
Workload parse_workload(const std::string& name);
const char* workload_name(Workload w);
rrp::models::ModelKind workload_model(Workload w);
bool is_fleet(Workload w);

inline constexpr int kTimedSchedules = 16;
inline constexpr int kPanelSchedules = 8;
/// The run's schedule seeds: kTimedSchedules derived from `seed`, then the
/// kPanelSchedules fixed quality-panel seeds.
std::vector<std::uint64_t> schedule_seeds(std::uint64_t seed);

/// The certified safety ladder every workload runs under.
rrp::core::SafetyConfig certified_ladder();

std::vector<rrp::serve::StreamSpec> fleet_specs(Workload w);
rrp::serve::ServeConfig fleet_config(Workload w, std::uint64_t seed);
rrp::sim::CampaignSpec campaign_spec(std::uint64_t seed);

/// The cache files get_provisioned reads for `kind` under the default
/// recipes (dense weights, then co-trained weights).
std::vector<std::string> artifact_paths(rrp::models::ModelKind kind,
                                        const std::string& cache_dir);
/// Throws when an artifact of `kind` is missing, so a timed run never
/// trains (training time would land in the set-up metric).
void require_artifacts(rrp::models::ModelKind kind,
                       const std::string& cache_dir);
/// Names of the regular files in `dir` (sorted); empty when absent.
std::vector<std::string> list_files(const std::string& dir);

/// One set-up instance of a workload: the provisioned model plus one
/// engine per schedule seed (fleets) or the campaign inputs.
struct Prepared {
  Workload workload = Workload::FleetDetnet;
  std::vector<std::uint64_t> seeds;  ///< schedule seeds, by schedule index
  rrp::models::ProvisionedModel model;
  std::vector<std::unique_ptr<rrp::serve::ServeEngine>> engines;
  rrp::sim::CampaignInputs campaign_inputs;

  std::uint64_t seed(int schedule) const {
    return seeds.at(static_cast<std::size_t>(schedule));
  }
};

/// Builds the engines still missing for Prepared::seeds (fleets) or the
/// campaign inputs, over an already provisioned model.
void build_engines(Prepared& p);

/// Full set-up: models::get_provisioned from the cache, then
/// build_engines.  Throws when an artifact is missing.
std::unique_ptr<Prepared> prepare(Workload w,
                                  std::vector<std::uint64_t> seeds,
                                  const std::string& cache_dir);

/// What one repetition served, for the quality metrics and guards.
struct RepOutcome {
  std::int64_t frames_requested = 0;
  std::int64_t frames_served = 0;
  std::int64_t frames_failed = 0;  ///< rejected + shed remainder
  std::int64_t cells = 0;          ///< campaign only
  std::int64_t cells_failed = 0;   ///< campaign only
  std::int64_t deadline_misses = 0;
  std::int64_t correct = 0;  ///< -1 when the repetition does not report it
  std::int64_t critical_frames = 0;
  std::int64_t missed_critical = 0;
  std::int64_t true_violations = 0;
  std::uint64_t digest = 0;  ///< FNV-1a over the full report
};

/// Results kept from the last repetition, for the guards and the traced
/// replay.
struct RepResult {
  RepOutcome outcome;
  rrp::serve::ServeReport report;          ///< fleets
  rrp::sim::CampaignAggregate aggregate;   ///< campaign
};

/// Runs one repetition of schedule `schedule` (an index into
/// Prepared::seeds) and returns the raw engine output; call summarise()
/// outside the timed interval.
RepResult run_repetition(Prepared& p, int schedule);
/// Fills RepResult::outcome (frame accounting, quality counts, digest).
void summarise(const Prepared& p, int schedule, RepResult& r);

/// Workload-shape guards of one schedule; throws std::runtime_error naming
/// the failed check.  (The campaign's no-surviving-fault check needs the
/// cells' weights and lives in the replay, replay.h.)
void check_shape(const Prepared& p, int schedule, const RepResult& r);

/// The fleet level floor a Degrade/Restore event sets (parsed from its
/// "floor=<n> …" detail).
int event_floor(const rrp::serve::AdmissionEvent& ev);

}  // namespace perfbench
