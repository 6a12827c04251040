// metric_table.h — every metric the benchmark emits, and the result line.
//
// The tables here are the single list of names: a run must set every
// metric of its table exactly once (MetricSink::finish throws otherwise),
// and the benchmark's tests check the tables against BENCHMARK.json.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" | "lower"
};

/// End-to-end metrics (tracing off), the same on every workload.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics (the traced run), the same names on every workload.
const std::vector<MetricDef>& per_layer_metrics();

/// Collects one run's metric values against a table.
class MetricSink {
 public:
  explicit MetricSink(const std::vector<MetricDef>& table);

  /// Sets a metric of the table (throws on an unknown or repeated name,
  /// or a non-finite value).
  void set(const std::string& name, double value);

  /// The result line:
  /// {"correct": …, "attempted": …, "failed": …, "metrics": {…}}.
  /// Throws when a metric of the table was never set.
  std::string finish(bool correct, std::int64_t attempted,
                     std::int64_t failed) const;

 private:
  const std::vector<MetricDef>* table_;
  std::map<std::string, double> values_;
};

}  // namespace perfbench
