// Tests of the benchmark itself: decorator transparency, normalisation
// arithmetic, and the metric tables against BENCHMARK.json.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "core/controller.h"
#include "decorators.h"
#include "metric_table.h"
#include "models/zoo.h"
#include "ref_kernel.h"
#include "serve/serve_engine.h"
#include "sim/frame_engine.h"
#include "sim/scenario_gen.h"
#include "stats.h"
#include "util/rng.h"

namespace pb = perfbench;
namespace rc = rrp::core;
namespace rsim = rrp::sim;

namespace {

struct Fixture {
  rrp::nn::Network net;
  rrp::prune::PruneLevelLibrary levels;
};

// An untrained lenet and its five-level ladder: enough to exercise every
// frame-path call without a provisioned artifact.
Fixture make_fixture() {
  rrp::Rng rng(77);
  Fixture f;
  f.net = rrp::models::build_model(rrp::models::ModelKind::LeNet, rng);
  f.levels = rrp::prune::PruneLevelLibrary::build_structured(
      f.net, {0.0, 0.3, 0.5, 0.7, 0.85}, rrp::models::zoo_input_shape(),
      rrp::prune::ImportanceMetric::L1, 2);
  return f;
}

// Steps `scenario` through FrameEngine with the given policy/provider and
// returns the telemetry CSV.
std::string run_csv(rc::Policy& policy, rc::InferenceProvider& provider,
                    const rsim::Scenario& scenario) {
  rc::SafetyConfig certified;
  rc::SafetyMonitor monitor(certified);
  rc::RuntimeController controller(policy, provider, &monitor);
  rsim::RunConfig cfg;
  cfg.deadline_ms = 12.0;
  cfg.noise_seed = 99;
  const rsim::FrameEngine engine(cfg);
  rsim::StreamState state = engine.make_stream(scenario, controller);
  while (!state.done()) engine.step(state);
  std::ostringstream os;
  engine.finish(state).telemetry.write_csv(os);
  return os.str();
}

rsim::Scenario test_scenario() {
  return rsim::make_suite_or_dsl("cut_in", 60, 1234);
}

// The benchmark contract's grammars: a name starts with a letter or digit
// and has at most 64 of [A-Za-z0-9_.-]; a unit has 1-16 of [A-Za-z0-9_/%.-].
bool valid_metric_name(const std::string& name) {
  return std::regex_match(name, std::regex("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"));
}
bool valid_metric_unit(const std::string& unit) {
  return std::regex_match(unit, std::regex("[A-Za-z0-9_/%.-]{1,16}"));
}

}  // namespace

TEST(Decorators, MaskedPrunerTelemetryIsByteIdentical) {
  Fixture f = make_fixture();
  const rsim::Scenario scenario = test_scenario();

  rrp::nn::Network net_a = f.net.clone();
  rc::ReversiblePruner plain_pruner(net_a, f.levels);
  rc::CriticalityGreedyPolicy plain_policy(rc::SafetyConfig{}, 6, 5);
  const std::string plain = run_csv(plain_policy, plain_pruner, scenario);

  rrp::nn::Network net_b = f.net.clone();
  rc::ReversiblePruner pruner(net_b, f.levels);
  rc::CriticalityGreedyPolicy policy(rc::SafetyConfig{}, 6, 5);
  pb::FrameTrace trace;
  pb::TimingPolicy timed_policy(policy, trace);
  pb::TimingProvider timed_pruner(pruner, trace);
  const std::string traced = run_csv(timed_policy, timed_pruner, scenario);

  EXPECT_EQ(plain, traced);
  EXPECT_EQ(trace.infer_us.size(), scenario.scenes.size());
  EXPECT_EQ(trace.decide_us.size(), scenario.scenes.size());
  EXPECT_EQ(trace.controller_us.size(), scenario.scenes.size());
  EXPECT_EQ(trace.set_level_calls,
            static_cast<std::int64_t>(scenario.scenes.size()));
  EXPECT_GT(trace.level_switches, 0);
  EXPECT_EQ(trace.restore_us.size() + trace.prune_us.size(),
            static_cast<std::size_t>(trace.level_switches));
  EXPECT_GT(trace.macs, 0);
}

TEST(Decorators, FleetViewWithFloorTelemetryIsByteIdentical) {
  Fixture f = make_fixture();
  const rsim::Scenario scenario = test_scenario();
  rc::CompactedLadderProvider shared(f.net, f.levels,
                                     rrp::models::zoo_input_shape());

  rc::CompactedLadderView plain_view(shared);
  rrp::serve::FloorPolicy plain_policy(
      std::make_unique<rc::CriticalityGreedyPolicy>(rc::SafetyConfig{}, 6, 5));
  plain_policy.set_floor(2);
  const std::string plain = run_csv(plain_policy, plain_view, scenario);

  rc::CompactedLadderView view(shared);
  rrp::serve::FloorPolicy policy(
      std::make_unique<rc::CriticalityGreedyPolicy>(rc::SafetyConfig{}, 6, 5));
  policy.set_floor(2);
  pb::FrameTrace trace;
  pb::TimingPolicy timed_policy(policy, trace);
  pb::TimingProvider timed_view(view, trace);
  EXPECT_EQ(plain, run_csv(timed_policy, timed_view, scenario));
  for (int level : trace.infer_level) EXPECT_GE(level, 2);
}

TEST(Normalisation, ScalesWallTimeToNominalSpeed) {
  // Reference took twice its nominal time: the host ran at half speed,
  // so the wall time is scaled by 0.5^kHostSensitivity.
  const double half = std::pow(0.5, pb::kHostSensitivity);
  pb::Bracketed b{2.0, 10.0, 10.0};
  EXPECT_DOUBLE_EQ(pb::host_speed(b, 5.0), 0.5);
  EXPECT_DOUBLE_EQ(pb::speed_factor(b, 5.0), half);
  EXPECT_DOUBLE_EQ(pb::normalised_s(b, 5.0), 2.0 * half);
  // The two brackets are averaged: (4 + 8) / 2 = 6 is nominal speed.
  pb::Bracketed c{3.0, 4.0, 8.0};
  EXPECT_DOUBLE_EQ(pb::normalised_s(c, 6.0), 3.0);
  // At a quarter speed the factor is the half-speed factor squared.
  pb::Bracketed e{2.0, 20.0, 20.0};
  EXPECT_DOUBLE_EQ(pb::normalised_s(e, 5.0), 2.0 * half * half);
  // At double speed the factor is the inverse of the half-speed one.
  pb::Bracketed f{1.0, 2.5, 2.5};
  EXPECT_DOUBLE_EQ(pb::normalised_s(f, 5.0) * half, 1.0);
  // At nominal speed the normalised time is the wall time.
  pb::Bracketed d{0.25, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(pb::normalised_s(d, 5.0), 0.25);
  EXPECT_THROW(pb::host_speed(pb::Bracketed{1.0, 0.0, 0.0}, 5.0),
               std::invalid_argument);
}

TEST(Normalisation, ReferenceKernelIsCacheLineAligned) {
  // Its speed depended on its link address before it was aligned.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&pb::ref_kernel) % 64, 0u);
}

TEST(Normalisation, QuantilesAndModeRatio) {
  EXPECT_DOUBLE_EQ(pb::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(pb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(pb::quantile({0.0, 10.0}, 0.9), 9.0);
  EXPECT_DOUBLE_EQ(pb::quantile({7.0}, 0.99), 7.0);
  // Over 1..11: p10 = 2, p90 = 10.
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(pb::mode_ratio(v), 10.0 / 2.0);
  EXPECT_THROW(pb::quantile({}, 0.5), std::invalid_argument);
}

TEST(MetricTable, NamesAndUnitsFollowTheGrammar) {
  std::set<std::string> seen;
  for (const auto* table :
       {&pb::end_to_end_metrics(), &pb::per_layer_metrics()})
    for (const pb::MetricDef& d : *table) {
      EXPECT_TRUE(valid_metric_name(d.name)) << d.name;
      EXPECT_TRUE(valid_metric_unit(d.unit)) << d.unit;
      EXPECT_TRUE(std::string(d.better) == "higher" ||
                  std::string(d.better) == "lower")
          << d.name;
      EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
    }
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_unit("µs"));
}

TEST(MetricTable, SinkEmitsExactlyTheTable) {
  pb::MetricSink sink(pb::end_to_end_metrics());
  EXPECT_THROW(sink.set("no_such_metric", 1.0), std::logic_error);
  for (const pb::MetricDef& d : pb::end_to_end_metrics()) {
    EXPECT_THROW(sink.finish(true, 1, 0), std::logic_error);
    sink.set(d.name, 0.5);
  }
  EXPECT_THROW(sink.set("setup_s", 1.0), std::logic_error);
  const std::string line = sink.finish(true, 3, 0);
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                       "\"metrics\": {\"setup_s\": {\"value\": 0.5, "
                       "\"unit\": \"s\"}",
                       0),
            0u);
}

TEST(MetricTable, BenchmarkJsonListsExactlyTheEmittedNames) {
  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in) << PERFBENCH_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  const std::size_t e2e = json.find("\"end_to_end\"");
  const std::size_t layer = json.find("\"per_layer\"");
  ASSERT_NE(e2e, std::string::npos);
  ASSERT_NE(layer, std::string::npos);
  ASSERT_LT(e2e, layer);

  const std::regex entry(
      R"re(\{\s*"name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)",\s*"better":\s*"([^"]+)")re");
  const auto parse = [&](std::size_t from, std::size_t to) {
    std::vector<std::string> out;
    const std::string part = json.substr(from, to - from);
    for (std::sregex_iterator it(part.begin(), part.end(), entry), end;
         it != end; ++it)
      out.push_back((*it)[1].str() + "|" + (*it)[2].str() + "|" +
                    (*it)[3].str());
    return out;
  };
  const auto expect = [](const std::vector<pb::MetricDef>& table) {
    std::vector<std::string> out;
    for (const pb::MetricDef& d : table)
      out.push_back(std::string(d.name) + "|" + d.unit + "|" + d.better);
    return out;
  };
  EXPECT_EQ(parse(e2e, layer), expect(pb::end_to_end_metrics()));
  EXPECT_EQ(parse(layer, json.size()), expect(pb::per_layer_metrics()));
}
