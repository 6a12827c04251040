#include "metric_table.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> table = {
      {"setup_s", "s", "lower"},
      {"frames_per_s", "frames/s", "higher"},
      {"peak_rss_mb", "MB", "lower"},
      {"served_frac", "fraction", "higher"},
      {"deadline_met_frac", "fraction", "higher"},
      {"accuracy", "fraction", "higher"},
      {"critical_recall", "fraction", "higher"},
      {"certified_frac", "fraction", "higher"},
  };
  return table;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> table = {
      // models / prune / core / serve: the setup breakdown.
      {"models.provision_s", "s", "lower"},
      {"models.load_s", "s", "lower"},
      {"prune.ladder_build_s", "s", "lower"},
      {"core.bn_calibrate_s", "s", "lower"},
      {"nn.level_eval_s", "s", "lower"},
      {"serve.engine_build_s", "s", "lower"},
      // nn: inference.
      {"nn.infer_calls", "count", "lower"},
      {"nn.infer_us_p50", "us", "lower"},
      {"nn.infer_us_p99", "us", "lower"},
      {"nn.infer_us.L0", "us", "lower"},
      {"nn.infer_us.L1", "us", "lower"},
      {"nn.infer_us.L2", "us", "lower"},
      {"nn.infer_us.L3", "us", "lower"},
      {"nn.infer_us.L4", "us", "lower"},
      {"nn.infer_share", "fraction", "lower"},
      {"nn.macs_per_frame", "MAC", "lower"},
      {"nn.gmacs_per_s", "GMAC/s", "higher"},
      {"nn.weight_bytes_per_frame", "B", "lower"},
      // core: control, level switching, memory.
      {"core.controller_step_us_p50", "us", "lower"},
      {"core.controller_step_us_p99", "us", "lower"},
      {"core.decide_us_p50", "us", "lower"},
      {"core.decide_us_p99", "us", "lower"},
      {"core.set_level_calls", "count", "lower"},
      {"core.level_switch_ratio", "fraction", "lower"},
      {"core.restore_us_p50", "us", "lower"},
      {"core.restore_us_p99", "us", "lower"},
      {"core.prune_us_p50", "us", "lower"},
      {"core.prune_us_p99", "us", "lower"},
      {"core.restore_bytes_mean", "B", "lower"},
      {"core.resident_weight_mb", "MB", "lower"},
      // sim: the frame loop and campaign cells.
      {"sim.step_us_p50", "us", "lower"},
      {"sim.step_us_p99", "us", "lower"},
      {"sim.self_us_p50", "us", "lower"},
      {"sim.self_us_p99", "us", "lower"},
      {"sim.render_us_p50", "us", "lower"},
      {"sim.scenario_gen_us_p50", "us", "lower"},
      {"sim.cell_us_p50", "us", "lower"},
      {"sim.cell_us_p99", "us", "lower"},
      {"sim.clone_us_p50", "us", "lower"},
      {"sim.weight_faults_injected", "count", "higher"},
      {"sim.weight_faults_healed", "count", "higher"},
      {"sim.heal_ratio", "fraction", "higher"},
      // serve: the engine run and its admission outcome.
      {"serve.run_s", "s", "lower"},
      {"serve.self_share", "fraction", "lower"},
      {"serve.admitted", "count", "higher"},
      {"serve.rejected", "count", "lower"},
      {"serve.shed", "count", "lower"},
      {"serve.degrades", "count", "lower"},
      {"serve.restores", "count", "higher"},
      {"serve.peak_active", "count", "higher"},
      {"serve.final_floor", "level", "lower"},
      {"serve.mean_congestion", "ratio", "lower"},
      // bench: the host's state and the cost of tracing.
      {"bench.ref_ms_p50", "ms", "lower"},
      {"bench.ref_mode_ratio", "ratio", "lower"},
      {"bench.trace_overhead_frac", "fraction", "lower"},
  };
  return table;
}

MetricSink::MetricSink(const std::vector<MetricDef>& table) : table_(&table) {}

void MetricSink::set(const std::string& name, double value) {
  bool known = false;
  for (const MetricDef& d : *table_) known = known || name == d.name;
  if (!known) throw std::logic_error("metric not in the table: " + name);
  if (!std::isfinite(value))
    throw std::runtime_error("metric " + name + " is not finite");
  if (!values_.emplace(name, value).second)
    throw std::logic_error("metric set twice: " + name);
}

std::string MetricSink::finish(bool correct, std::int64_t attempted,
                               std::int64_t failed) const {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : *table_) {
    const auto it = values_.find(d.name);
    if (it == values_.end())
      throw std::logic_error(std::string("metric never set: ") + d.name);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", it->second);
    out += std::string(first ? "" : ", ") + "\"" + d.name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
