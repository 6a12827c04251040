// runner.h — the closed perception-control loop.
//
// Per frame: classify the scene's criticality (Monitor), let the runtime
// controller pick and apply a pruning level (Analyze/Plan/Execute), render
// the sensor frame, run inference through the provider, and account
// latency/energy with the platform model.  Produces the Telemetry that
// every end-to-end experiment (R-T2, R-F3, R-F4, R-F5) summarizes.
#pragma once

#include "core/controller.h"
#include "core/telemetry.h"
#include "sim/criticality.h"
#include "sim/faults.h"
#include "sim/perception_criticality.h"
#include "sim/platform_model.h"
#include "sim/vision_task.h"

namespace rrp::core {
class SloMonitor;  // core/slo.h
}  // namespace rrp::core

namespace rrp::sim {

/// Where the controller's criticality signal comes from.
enum class CriticalitySource {
  GroundTruthTtc,   ///< independent ranging channel (radar-like), delayed
  Perception,       ///< the perception network's own (previous) output
  PerceptionFloor,  ///< perception-derived, but never below Medium
};

struct RunConfig {
  double deadline_ms = 5.0;
  CriticalitySource criticality_source = CriticalitySource::GroundTruthTtc;
  PerceptionCriticality::Config perception_criticality;
  /// Frames of perception/monitoring latency before a criticality change
  /// is visible to the controller AND the safety monitor (the plant's
  /// true criticality still scores missed detections). 0 = idealized.
  int sensing_delay_frames = 1;
  /// Whole-scenario energy budget; 0 disables the budget signal (the
  /// controller then always sees energy_budget_frac == 1).
  double energy_budget_mj = 0.0;
  /// Sensor fault injection: per-frame probability that the camera frame
  /// is lost (rendered as an empty road).  Ground truth is unchanged, so
  /// blackout frames with an actor present count as missed detections —
  /// the fault-tolerance experiments use this to stress the loop.  This is
  /// per-frame Bernoulli sugar over FaultKind::SensorBlackout; scheduled
  /// blackout bursts go in `faults`.
  double sensor_blackout_prob = 0.0;
  /// Seeded fault schedule applied at frame boundaries (see sim/faults.h).
  /// Weight/store/artifact faults additionally need a FaultHarness passed
  /// to run_scenario; the sensor/timing kinds work with the plan alone.
  FaultPlan faults;
  /// Integrity scrub cadence in frames (0 = no scrubbing).  Requires a
  /// harness with a checker (reversible arm) or reload digests (reload
  /// arm) to have any effect.
  int scrub_period_frames = 0;
  /// Repair detected weight divergence in place (reversible arm) or by
  /// re-reading the artifact (reload arm).  Detection-only when false.
  bool self_heal = true;
  /// Deadline watchdog: after this many CONSECUTIVE deadline overruns the
  /// runner forces the certified max level for the sensed criticality and
  /// records a WatchdogDegrade assurance record.  0 disables.
  int watchdog_overrun_frames = 0;
  /// Record MEASURED per-frame inference wall-clock into RunResult::wall
  /// next to the platform-model numbers.  Purely additive: telemetry,
  /// metrics and trace output are byte-identical either way.
  bool measure_wall = false;
  PlatformConfig platform;
  CriticalityConfig criticality;
  VisionTaskConfig vision;
  std::uint64_t noise_seed = 1234;  ///< sensor-noise stream
  /// Optional SLO monitor: evaluated once per frame against the metrics
  /// registry; certified-level violations, watchdog degrades and integrity
  /// detections are additionally noted as direct incidents.
  core::SloMonitor* slo = nullptr;
};

/// Measured wall-clock of one frame's inference (util/timer.h facade).
/// Wall numbers are machine-dependent by nature, so they are kept strictly
/// OUT of Telemetry, metrics and trace — the deterministic observability
/// artifacts stay byte-identical whether or not measurement is on.
struct WallFrame {
  std::int64_t frame = 0;
  int level = 0;           ///< executed level during the measured inference
  double infer_us = 0.0;   ///< measured wall-clock of provider.infer()
  double modeled_us = 0.0; ///< platform-model latency charged to the frame
};

/// Per-run collection of measured frames (empty unless
/// RunConfig::measure_wall).
struct WallStats {
  bool enabled = false;
  std::vector<WallFrame> frames;
  /// Mean measured inference µs over frames executed at `level`
  /// (level == -1: all frames).  Returns 0 when nothing matched.
  double mean_infer_us(int level = -1) const;
};

struct RunResult {
  std::string scenario;
  std::string provider;
  std::string policy;
  core::Telemetry telemetry;
  core::RunSummary summary;
  WallStats wall;  ///< measured wall-clock channel (see WallStats)
};

/// Runs the full closed loop over one scenario.
RunResult run_scenario(const Scenario& scenario,
                       core::RuntimeController& controller,
                       const RunConfig& config);

/// As above, with fault-injection targets and integrity wiring.  The
/// harness (optional) receives every detection/recovery; weight faults in
/// `config.faults` are skipped without it.
RunResult run_scenario(const Scenario& scenario,
                       core::RuntimeController& controller,
                       const RunConfig& config, FaultHarness* harness);

/// Offline profiling of a provider's level ladder: modeled latency/energy
/// from active MACs and measured accuracy on `eval`.  Restores level 0.
core::LevelProfile profile_levels(core::InferenceProvider& provider,
                                  const PlatformModel& platform,
                                  const nn::Dataset& eval,
                                  const nn::Shape& input_shape,
                                  int eval_batch = 64);

/// Accuracy of a provider at its CURRENT level over a dataset.
double provider_accuracy(core::InferenceProvider& provider,
                         const nn::Dataset& data, int batch = 64);

}  // namespace rrp::sim
