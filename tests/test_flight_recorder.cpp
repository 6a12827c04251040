// test_flight_recorder.cpp — incident-bundle serialization
// (core/flight_recorder.h): the binary round-trip, checksum/truncation
// failure modes, CSV/summary rendering.  The bundle window itself (the
// run's last N telemetry records) is checked in test_incident_replay.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/flight_recorder.h"
#include "core/integrity.h"
#include "util/checks.h"

namespace rrp::core {
namespace {

FrameRecord make_record(std::int64_t frame) {
  FrameRecord r;
  r.frame = frame;
  r.sensed_criticality = static_cast<CriticalityClass>(frame % 4);
  r.criticality = static_cast<CriticalityClass>((frame + 1) % 4);
  r.requested_level = 2;
  r.executed_level = static_cast<int>(frame % 3);
  r.latency_ms = 3.25 + 0.001 * static_cast<double>(frame);
  r.switch_us = 40.0;
  r.deadline_ms = 5.0;
  r.energy_mj = 1.5;
  r.correct = true;
  r.integrity_detects = frame % 7 == 0 ? 1 : 0;
  r.span_digest = 0x1234u + static_cast<std::uint64_t>(frame);
  return r;
}

IncidentBundle make_bundle(std::size_t n_records) {
  IncidentBundle bundle;
  bundle.context.model = "lenet";
  bundle.context.suite = "cut_in";
  bundle.context.policy = "greedy";
  bundle.context.provider = "reversible";
  bundle.context.frames = 600;
  bundle.context.scenario_seed = 20240325;
  bundle.context.noise_seed = 0x5DEECE66Dull;
  bundle.context.deadline_ms = 12.0;
  bundle.context.scrub_period_frames = 20;
  bundle.context.watchdog_overrun_frames = 8;
  bundle.context.certified = {4, 3, 1, 0};
  bundle.context.telemetry_digest = 0xfeedface12345678ull;

  RecordedFault f;
  f.kind = 3;
  f.frame = 40;
  f.magnitude = 4.0;
  f.target = 77;
  f.bit = 12;
  bundle.faults.push_back(f);

  bundle.slos = standard_slos();

  Incident inc;
  inc.frame = 55;
  inc.slo_id = "integrity.detect";
  inc.observed = 2.0;
  inc.detail = "weight fault detected";
  bundle.incidents.push_back(inc);
  bundle.dropped_incidents = 3;

  for (std::size_t i = 0; i < n_records; ++i)
    bundle.records.push_back(make_record(static_cast<std::int64_t>(i) + 30));
  return bundle;
}

std::string bundle_to_string(const IncidentBundle& bundle) {
  std::ostringstream os(std::ios::binary);
  write_incident_bundle(bundle, os);
  return os.str();
}

IncidentBundle bundle_from_string(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  return read_incident_bundle(is);
}

// The four outcome bools travel as one flags word; every combination must
// survive the round trip and render in the CSV, next to the slack.
TEST(IncidentBundle, FlagsRoundTripAndSlackRendersInCsv) {
  IncidentBundle bundle = make_bundle(0);
  for (int bits = 0; bits < 16; ++bits) {
    FrameRecord r = make_record(bits);
    r.correct = (bits & 1) != 0;
    r.veto = (bits & 2) != 0;
    r.violation = (bits & 4) != 0;
    r.true_violation = (bits & 8) != 0;
    bundle.records.push_back(r);
  }
  const IncidentBundle back = bundle_from_string(bundle_to_string(bundle));
  ASSERT_EQ(back.records.size(), 16u);
  for (int bits = 0; bits < 16; ++bits) {
    const FrameRecord& r = back.records[static_cast<std::size_t>(bits)];
    EXPECT_EQ(r.correct, (bits & 1) != 0) << bits;
    EXPECT_EQ(r.veto, (bits & 2) != 0) << bits;
    EXPECT_EQ(r.violation, (bits & 4) != 0) << bits;
    EXPECT_EQ(r.true_violation, (bits & 8) != 0) << bits;
  }

  FrameRecord r;
  r.deadline_ms = 5.0;
  r.latency_ms = 3.0;
  r.switch_us = 500.0;  // 0.5 ms
  EXPECT_NEAR(r.slack_ms(), 1.5, 1e-12);
  r.correct = true;
  r.violation = true;
  bundle.records = {r};
  const std::string csv = incident_csv_string(bundle);
  EXPECT_NE(csv.find(",3.0000,500.00,5.00,1.5000,"), std::string::npos)
      << csv;
  EXPECT_NE(csv.find(",1,0,1,0,"), std::string::npos) << csv;
}

// Bytes with a valid checksum but a record field the codec never writes
// must still fail: an out-of-range criticality or an unknown flag bit.
TEST(IncidentBundle, OutOfRangeRecordFieldsAreRejected) {
  const std::string bytes = bundle_to_string(make_bundle(1));
  // The only record is the last 80 bytes before the checksum: frame (8),
  // sensed criticality (4), true criticality (4), ... flags at +56.
  const std::size_t rec = bytes.size() - 8 - 80;
  const auto reseal = [](std::string body) {
    body.resize(body.size() - 8);
    const std::uint64_t sum = fnv1a64(body.data(), body.size());
    for (int i = 0; i < 8; ++i)
      body.push_back(static_cast<char>((sum >> (8 * i)) & 0xff));
    return body;
  };
  EXPECT_NO_THROW(bundle_from_string(reseal(bytes)));

  std::string bad_crit = bytes;
  bad_crit[rec + 8] = static_cast<char>(kCriticalityClasses);
  EXPECT_THROW(bundle_from_string(reseal(bad_crit)), SerializationError);

  std::string bad_flags = bytes;
  bad_flags[rec + 56] = static_cast<char>(0x10);
  EXPECT_THROW(bundle_from_string(reseal(bad_flags)), SerializationError);
}

TEST(IncidentBundle, RoundTripPreservesEveryField) {
  const IncidentBundle bundle = make_bundle(12);
  const IncidentBundle back = bundle_from_string(bundle_to_string(bundle));

  EXPECT_EQ(back.context.model, "lenet");
  EXPECT_EQ(back.context.suite, "cut_in");
  EXPECT_EQ(back.context.policy, "greedy");
  EXPECT_EQ(back.context.provider, "reversible");
  EXPECT_EQ(back.context.frames, 600);
  EXPECT_EQ(back.context.scenario_seed, 20240325u);
  EXPECT_EQ(back.context.noise_seed, 0x5DEECE66Dull);
  EXPECT_EQ(back.context.deadline_ms, 12.0);
  EXPECT_EQ(back.context.certified, bundle.context.certified);
  EXPECT_EQ(back.context.telemetry_digest, 0xfeedface12345678ull);

  ASSERT_EQ(back.faults.size(), 1u);
  EXPECT_EQ(back.faults[0].kind, 3);
  EXPECT_EQ(back.faults[0].frame, 40);
  EXPECT_EQ(back.faults[0].target, 77u);
  EXPECT_EQ(back.faults[0].bit, 12);

  ASSERT_EQ(back.slos.size(), standard_slos().size());
  EXPECT_EQ(back.slos[0].id, "slo.deadline_miss_rate");
  EXPECT_EQ(back.slos[0].numerator, "runner.deadline_misses");
  EXPECT_EQ(back.slos[1].quantile, 0.99);

  ASSERT_EQ(back.incidents.size(), 1u);
  EXPECT_EQ(back.incidents[0].frame, 55);
  EXPECT_EQ(back.incidents[0].slo_id, "integrity.detect");
  EXPECT_EQ(back.incidents[0].detail, "weight fault detected");
  EXPECT_EQ(back.dropped_incidents, 3);

  ASSERT_EQ(back.records.size(), 12u);
  for (std::size_t i = 0; i < back.records.size(); ++i) {
    EXPECT_EQ(back.records[i].frame, bundle.records[i].frame);
    EXPECT_EQ(back.records[i].latency_ms, bundle.records[i].latency_ms);
    EXPECT_EQ(back.records[i].correct, bundle.records[i].correct);
    EXPECT_EQ(back.records[i].sensed_criticality,
              bundle.records[i].sensed_criticality);
    EXPECT_EQ(back.records[i].criticality, bundle.records[i].criticality);
    EXPECT_EQ(back.records[i].span_digest, bundle.records[i].span_digest);
  }

  // Serialization is deterministic: the round-tripped bundle re-serializes
  // to the exact same bytes.
  EXPECT_EQ(bundle_to_string(back), bundle_to_string(bundle));
}

TEST(IncidentBundle, EveryCorruptedByteFailsTheChecksum) {
  const std::string bytes = bundle_to_string(make_bundle(4));
  // Flip one bit at a spread of positions (header, body, checksum itself):
  // every single-byte corruption must be caught before parsing.
  for (std::size_t pos : {std::size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    try {
      bundle_from_string(bad);
      FAIL() << "corruption at byte " << pos << " was not detected";
    } catch (const SerializationError& e) {
      EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(IncidentBundle, TruncationAndBadMagicAreRejected) {
  const std::string bytes = bundle_to_string(make_bundle(4));
  EXPECT_THROW(bundle_from_string(bytes.substr(0, 10)), SerializationError);
  EXPECT_THROW(bundle_from_string(bytes.substr(0, bytes.size() - 9)),
               SerializationError);
  // A valid checksum over a wrong magic: rebuild the tail by hand is
  // overkill — corrupting the magic already fails at the checksum, which
  // is the designed first line of defense (asserted above).  An EMPTY
  // stream must also fail cleanly.
  EXPECT_THROW(bundle_from_string(""), SerializationError);
}

TEST(IncidentBundle, CsvRenderingIsStable) {
  const IncidentBundle bundle = make_bundle(3);
  const std::string csv = incident_csv_string(bundle);
  EXPECT_EQ(csv, incident_csv_string(bundle));
  EXPECT_NE(csv.find("frame,criticality,true_criticality"), std::string::npos);
  EXPECT_NE(csv.find("slack_ms"), std::string::npos);
  EXPECT_NE(csv.find("span_digest"), std::string::npos);
  // Header + one line per record.
  const std::size_t lines =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, 1u + bundle.records.size());
}

TEST(IncidentBundle, SummaryNamesTheEvidence) {
  const IncidentBundle bundle = make_bundle(5);
  const std::string text = incident_summary_string(bundle);
  EXPECT_NE(text.find("model=lenet suite=cut_in"), std::string::npos);
  EXPECT_NE(text.find("certified=[4,3,1,0]"), std::string::npos);
  EXPECT_NE(text.find("id=integrity.detect"), std::string::npos);
  EXPECT_NE(text.find("(+3 dropped)"), std::string::npos);
  EXPECT_NE(text.find("window frames [30, 34]"), std::string::npos);
}

}  // namespace
}  // namespace rrp::core
