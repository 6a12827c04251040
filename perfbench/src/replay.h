// replay.h — re-runs a workload's frames one sim::FrameEngine::step at a
// time through the public API, optionally through the tracing decorators.
//
// Fleets: every admitted stream of a ServeReport is rebuilt exactly as the
// engine builds it (stream_scenario_seed / stream_noise_seed, a
// CompactedLadderView over the engine's shared ladder, serve::FloorPolicy)
// and stepped for the frames it executed; the fleet level floor in force
// at each tick is read back from the report's Degrade/Restore events.
// Campaign: every cell from sim::campaign_cell() is rebuilt as the
// campaign builds it (network clone, masked ReversiblePruner, integrity
// checker, seeded fault plan).
//
// The replay checks its output against the engine's: per-stream telemetry
// CSV byte for byte (fleets), every aggregate counter of the campaign.
#pragma once

#include <cstdint>
#include <vector>

#include "decorators.h"
#include "workloads.h"

namespace perfbench {

/// Wall-time samples of one replay (all in µs except where noted).
struct ReplayTimes {
  std::vector<double> step_us;      ///< per FrameEngine::step
  std::vector<double> self_us;      ///< step minus controller minus infer
  std::vector<double> run_us;       ///< per stream / cell, whole replay
  std::vector<double> scenario_gen_us;
  std::vector<double> clone_us;     ///< network clone (campaign) / view (fleet)
  double steps_s = 0.0;             ///< sum of step_us, in seconds
};

/// Frame-level facts of one replay (deterministic).
struct ReplayFacts {
  std::int64_t frames = 0;
  std::int64_t correct = 0;
  std::int64_t critical_frames = 0;
  std::int64_t missed_critical = 0;
  std::int64_t recoveries_failed = 0;
};

/// Replays repetition `schedule` of `p` whose engine output is `r`.
/// With `trace` non-null the policy and provider are decorated and the
/// trace receives their samples.  Throws std::runtime_error when the
/// replay does not reproduce the engine's output.
ReplayFacts replay(Prepared& p, int schedule, const RepResult& r,
                   FrameTrace* trace, ReplayTimes* times);

}  // namespace perfbench
