// test_incident_replay.cpp — record a faulted closed loop into an incident
// bundle and replay it byte-identically (sim/incident_replay.h).  The
// flight-recorder acceptance path: a fault-induced SLO incident produces a
// bundle, and `replay_bundle` reproduces the recorded telemetry byte-for-
// byte at every thread-pool size.
#include <gtest/gtest.h>

#include <sstream>

#include "core/integrity.h"
#include "core/weight_store.h"
#include "nn/init.h"
#include "sim/incident_replay.h"
#include "sim/suites.h"
#include "test_support.h"
#include "util/checks.h"
#include "util/thread_pool.h"

namespace rrp::sim {
namespace {

// Same closed-loop fixture as test_faults.cpp: a briefly-trained conv net
// on the vision task's default geometry with a 3-level structured ladder.
class ReplayFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = nn::Network("replay-net");
    net_.emplace<nn::Conv2D>("conv1", 1, 6, 3, 1, 1);
    net_.emplace<nn::ReLU>("relu1");
    net_.emplace<nn::MaxPool>("pool1", 4, 4);
    net_.emplace<nn::Flatten>("flatten");
    net_.emplace<nn::Linear>("fc1", 6 * 4 * 4, 16);
    net_.emplace<nn::ReLU>("relu2");
    auto& head = net_.emplace<nn::Linear>("head", 16, kNumClasses);
    head.set_out_prunable(false);
    Rng rng(1);
    nn::init_network(net_, rng);

    RunConfig cfg;
    Rng data_rng(2);
    data_ = make_dataset(400, cfg.vision, data_rng);
    rrp::testing::quick_train(net_, data_, 4);

    lib_ = prune::PruneLevelLibrary::build_structured(
        net_, {0.0, 0.3, 0.6}, input_shape(cfg.vision));

    inputs_.net = &net_;
    inputs_.levels = &lib_;
    inputs_.certified.max_level_for = {2, 1, 1, 0};
  }

  // A spec whose weight-dominated fault schedule reliably raises
  // integrity-detection incidents within a short run.
  BlackboxRunSpec spec() const {
    BlackboxRunSpec s;
    s.model = "replay-net";
    s.suite = "cut_in";
    s.policy = "fixed0";  // fixed level: flips are never masked by switches
    s.frames = 160;
    s.scenario_seed = 905;
    s.noise_seed = 905 ^ 0x5DEECE66Dull;
    s.deadline_ms = 5.0;
    s.scrub_period_frames = 10;
    s.recorder_capacity = 64;
    FaultMix mix;
    mix.weight_bit_flip = 5.0;
    s.faults = FaultPlan::random_plan(31337, s.frames, 6, mix);
    return s;
  }

  nn::Network net_;
  nn::Dataset data_;
  prune::PruneLevelLibrary lib_;
  CampaignInputs inputs_;
};

std::string bundle_bytes(const core::IncidentBundle& bundle) {
  std::ostringstream os(std::ios::binary);
  core::write_incident_bundle(bundle, os);
  return os.str();
}

TEST(RecordedFaultConversion, FaultEventRoundTripsLosslessly) {
  FaultPlan plan = FaultPlan::random_plan(99, 400, 12);
  const std::vector<core::RecordedFault> recorded = record_fault_plan(plan);
  ASSERT_EQ(recorded.size(), plan.events.size());
  const FaultPlan back = fault_plan_from_recorded(recorded);
  ASSERT_EQ(back.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& a = plan.events[i];
    const FaultEvent& b = back.events[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.frame, b.frame);
    EXPECT_EQ(a.duration_frames, b.duration_frames);
    EXPECT_EQ(a.magnitude, b.magnitude);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.bit, b.bit);
    EXPECT_EQ(a.stuck, b.stuck);
    EXPECT_EQ(a.count, b.count);
  }
}

TEST_F(ReplayFixture, FaultRunRaisesIncidentsAndPacksTheBundle) {
  const core::WeightStore before = core::WeightStore::snapshot(net_);
  const BlackboxRunResult res = run_blackbox(spec(), inputs_);

  // Weight faults under a 10-frame scrub: detections MUST surface as
  // incidents (note_event per detection frame).
  EXPECT_TRUE(res.incident);
  ASSERT_FALSE(res.bundle.incidents.empty());
  bool any_integrity = false;
  for (const core::Incident& inc : res.bundle.incidents)
    any_integrity |= inc.slo_id.find("integrity") != std::string::npos;
  EXPECT_TRUE(any_integrity);

  // The bundle carries the whole spec back out.
  EXPECT_EQ(res.bundle.context.model, "replay-net");
  EXPECT_EQ(res.bundle.context.suite, "cut_in");
  EXPECT_EQ(res.bundle.context.policy, "fixed0");
  EXPECT_EQ(res.bundle.context.frames, 160);
  EXPECT_EQ(res.bundle.faults.size(), spec().faults.events.size());
  EXPECT_FALSE(res.bundle.slos.empty());
  EXPECT_FALSE(res.bundle.records.empty());
  EXPECT_LE(res.bundle.records.size(), std::size_t{64});
  EXPECT_NE(res.bundle.context.telemetry_digest, 0u);

  const BlackboxRunSpec round = spec_from_bundle(res.bundle);
  EXPECT_EQ(round.suite, "cut_in");
  EXPECT_EQ(round.frames, 160);
  EXPECT_EQ(round.scenario_seed, 905u);
  EXPECT_EQ(round.faults.events.size(), spec().faults.events.size());

  // run_blackbox restored the (fault-corrupted) network bit-exactly.
  const core::IntegrityChecker checker(before);
  EXPECT_TRUE(checker.scrub(net_, lib_.mask(0)).clean());
}

TEST_F(ReplayFixture, ReplayIsByteIdenticalAtEveryThreadCount) {
  std::string recorded_bytes;
  core::IncidentBundle bundle;
  {
    ThreadCountGuard guard(1);
    const BlackboxRunResult res = run_blackbox(spec(), inputs_);
    ASSERT_TRUE(res.incident);
    bundle = res.bundle;
    recorded_bytes = bundle_bytes(bundle);
  }

  for (int threads : {1, 2, 8}) {
    ThreadCountGuard guard(threads);
    const ReplayResult r = replay_bundle(bundle, inputs_);
    EXPECT_TRUE(r.records_match) << "threads=" << threads;
    EXPECT_TRUE(r.telemetry_match) << "threads=" << threads;
    EXPECT_TRUE(r.incidents_match) << "threads=" << threads;
    EXPECT_TRUE(r.match) << "threads=" << threads;
    EXPECT_EQ(r.recorded_csv, r.replayed_csv) << "threads=" << threads;
    EXPECT_EQ(r.recorded_telemetry_digest, r.replayed_telemetry_digest);
    EXPECT_EQ(r.summary.frames, 160);
  }

  // Recording itself is thread-count-invariant too: re-record at 8 threads
  // and compare the bundles byte-for-byte.
  {
    ThreadCountGuard guard(8);
    const BlackboxRunResult res = run_blackbox(spec(), inputs_);
    EXPECT_EQ(bundle_bytes(res.bundle), recorded_bytes);
  }
}

void expect_same_record(const core::FrameRecord& a,
                        const core::FrameRecord& b) {
  EXPECT_EQ(a.frame, b.frame);
  EXPECT_EQ(a.criticality, b.criticality);
  EXPECT_EQ(a.sensed_criticality, b.sensed_criticality);
  EXPECT_EQ(a.requested_level, b.requested_level);
  EXPECT_EQ(a.executed_level, b.executed_level);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.energy_mj, b.energy_mj);
  EXPECT_EQ(a.switch_us, b.switch_us);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.veto, b.veto);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.true_violation, b.true_violation);
  EXPECT_EQ(a.integrity_detects, b.integrity_detects);
  EXPECT_EQ(a.integrity_repairs, b.integrity_repairs);
  EXPECT_EQ(a.watchdog_degrades, b.watchdog_degrades);
  EXPECT_EQ(a.span_digest, b.span_digest);
}

// The bundle window is the run's last `recorder_capacity` telemetry
// records, oldest first: frames [F - N, F - 1] when N < F.
TEST_F(ReplayFixture, BundleWindowIsTheRunsLastRecords) {
  BlackboxRunSpec s = spec();
  s.trace_enabled = true;
  const BlackboxRunResult res = run_blackbox(s, inputs_);
  const std::vector<core::FrameRecord>& all = res.run.telemetry.records();
  ASSERT_EQ(all.size(), 160u);
  ASSERT_EQ(res.bundle.records.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(res.bundle.records[i].frame, static_cast<std::int64_t>(96 + i));
    expect_same_record(res.bundle.records[i], all[96 + i]);
  }
}

// With a capacity that covers the run, the window is the whole run.
TEST_F(ReplayFixture, BundleWindowHoldsTheWholeRunWhenCapacityCoversIt) {
  for (std::size_t capacity : {std::size_t{160}, std::size_t{256}}) {
    BlackboxRunSpec s = spec();
    s.recorder_capacity = capacity;
    const BlackboxRunResult res = run_blackbox(s, inputs_);
    const std::vector<core::FrameRecord>& all = res.run.telemetry.records();
    ASSERT_EQ(res.bundle.records.size(), all.size()) << capacity;
    for (std::size_t i = 0; i < all.size(); ++i)
      expect_same_record(res.bundle.records[i], all[i]);
  }
}

TEST_F(ReplayFixture, ZeroRecorderCapacityIsRejected) {
  BlackboxRunSpec s = spec();
  s.recorder_capacity = 0;
  EXPECT_THROW(run_blackbox(s, inputs_), PreconditionError);
}

// The on-disk format pinned from outside the codec: replay only checks
// that the code agrees with itself, so a consistent change to the record
// layout, the field order or the flag packing would pass it unnoticed.
// Tracing is armed so every record carries a non-zero span digest.
TEST_F(ReplayFixture, BundleBytesAndIncidentCsvArePinned) {
  ThreadCountGuard guard(1);
  BlackboxRunSpec s = spec();
  s.trace_enabled = true;
  const BlackboxRunResult res = run_blackbox(s, inputs_);
  ASSERT_TRUE(res.incident);
  ASSERT_EQ(res.bundle.records.size(), 64u);
  int detects = 0;
  int repairs = 0;
  for (const auto& r : res.bundle.records) {
    EXPECT_NE(r.span_digest, 0u) << "frame " << r.frame;
    detects += r.integrity_detects;
    repairs += r.integrity_repairs;
  }
  EXPECT_GT(detects, 0);
  EXPECT_GT(repairs, 0);

  const std::string bytes = bundle_bytes(res.bundle);
  const std::string csv = core::incident_csv_string(res.bundle);
  EXPECT_EQ(core::fnv1a64(bytes.data(), bytes.size()), 0x0c495ddba731e2f2ull);
  EXPECT_EQ(core::fnv1a64(csv.data(), csv.size()), 0xc6709818a76e6747ull);
}

TEST_F(ReplayFixture, TamperedBundleFailsReplay) {
  ThreadCountGuard guard(2);
  const BlackboxRunResult res = run_blackbox(spec(), inputs_);
  ASSERT_TRUE(res.incident);

  // Doctor one recorded latency: the window CSV no longer matches what the
  // re-run produces, so replay must report a mismatch (the forensic
  // property: recorded evidence cannot be silently edited).
  core::IncidentBundle doctored = res.bundle;
  ASSERT_FALSE(doctored.records.empty());
  doctored.records.back().latency_ms += 0.125;
  const ReplayResult r = replay_bundle(doctored, inputs_);
  EXPECT_FALSE(r.records_match);
  EXPECT_FALSE(r.match);
  // The re-run itself still matches the ORIGINAL telemetry digest (the
  // context was untouched), so the mismatch is pinned to the records.
  EXPECT_TRUE(r.telemetry_match);
}

}  // namespace
}  // namespace rrp::sim
