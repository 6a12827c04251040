// flight_recorder.h — the black-box incident bundle (DESIGN.md §8).
//
// A safe autonomous system must explain itself after the fact: when a
// deadline is missed or an integrity fault fires, engineers need the exact
// decision history that led there, not aggregate counters.  That history
// is the run's telemetry: every core::FrameRecord carries the criticality
// sensed and true, the level decisions, deadline slack, the assurance
// deltas and the span digest of its frame.  When the SLO monitor
// (core/slo.h) raises an incident, the run's last N records are dumped as
// a versioned, FNV-1a-checksummed "incident bundle": a binary .rrpb file
// plus a human/diff-friendly CSV rendering.
//
// The bundle carries everything needed to re-run the recorded window —
// scenario suite + seed, noise seed, policy, deadline, scrub/watchdog
// config, certified levels, the full fault schedule, and the SLO specs —
// so `rrp_cli blackbox replay` turns every incident into a reproducible
// test case (sim/incident_replay.h).  Determinism invariant: a bundle's
// bytes are identical for any RRP_THREADS, and replay reproduces the
// recorded telemetry byte-for-byte.
//
// Layering: this is a core-layer unit.  It deliberately does NOT include
// sim/ headers (rrp_lint R3 forbids core -> sim); the fault schedule is
// mirrored into the core-level RecordedFault POD, which sim converts
// to/from its own FaultEvent.  <chrono> stays banned here too (R5): all
// time in a record is modeled platform time or frame indices.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/slo.h"
#include "core/telemetry.h"

namespace rrp::core {

/// Core-level mirror of one scheduled fault (sim::FaultEvent).  Plain ints
/// so the core layer never includes sim headers; sim/incident_replay.h
/// converts both directions losslessly.
struct RecordedFault {
  std::int32_t kind = 0;
  std::int64_t frame = 0;
  std::int32_t duration_frames = 1;
  double magnitude = 4.0;
  std::uint64_t target = 0;
  std::int32_t bit = 30;
  std::int32_t stuck = 0;  ///< CriticalityClass as int
  std::int32_t count = 1;
};

/// Everything needed to reconstruct the recorded run.
struct IncidentContext {
  std::string model;     ///< provisioned model name ("lenet", ...)
  std::string suite;     ///< scenario suite ("cut_in", ...)
  std::string policy;    ///< "greedy" or "fixed<K>"
  std::string provider;  ///< informational (provider name of the run)
  std::int32_t frames = 0;
  std::uint64_t scenario_seed = 0;
  std::uint64_t noise_seed = 0;
  double deadline_ms = 0.0;
  std::int32_t hysteresis = 6;
  std::int32_t scrub_period_frames = 0;
  std::int32_t watchdog_overrun_frames = 0;
  std::int32_t sensing_delay_frames = 1;
  bool self_heal = true;
  bool trace_enabled = false;
  std::array<std::int32_t, kCriticalityClasses> certified = {4, 3, 1, 0};
  std::uint32_t recorder_capacity = 256;
  /// FNV-1a of the run's FULL telemetry CSV (not just the window): the
  /// replay oracle for the frames before the window.
  std::uint64_t telemetry_digest = 0;
};

/// The versioned on-disk unit: context + fault schedule + SLO specs +
/// incidents + the window of the run's last `recorder_capacity` records.
struct IncidentBundle {
  IncidentContext context;
  std::vector<RecordedFault> faults;
  std::vector<SloSpec> slos;
  std::vector<Incident> incidents;
  std::int64_t dropped_incidents = 0;
  std::vector<FrameRecord> records;
};

inline constexpr std::uint32_t kIncidentBundleMagic = 0x42505252u;  // "RRPB"
inline constexpr std::uint32_t kIncidentBundleVersion = 1u;

/// Serializes the bundle: magic, version, body, trailing FNV-1a checksum
/// of everything before it.  Little-endian, byte-exact on every platform.
void write_incident_bundle(const IncidentBundle& bundle, std::ostream& out);

/// Parses and validates a bundle; throws SerializationError on a bad
/// magic/version, a short read, or a checksum mismatch.
IncidentBundle read_incident_bundle(std::istream& in);

/// The CSV rendering of the record window — the byte-identity oracle
/// replay compares against.
void write_incident_csv(const IncidentBundle& bundle, std::ostream& out);
std::string incident_csv_string(const IncidentBundle& bundle);

/// Human-readable `blackbox inspect` text (context, incidents, window
/// extremes).  Stable formatting, but not a byte-identity oracle.
std::string incident_summary_string(const IncidentBundle& bundle);

/// FNV-1a digest over the trace spans recorded at index >= `from_index`
/// (name, depth, frame, sequence ticks, modeled time, items).  The runner
/// snapshots trace::spans().size() at frame start and calls this at frame
/// end to give each FrameRecord its span digest.
std::uint64_t span_window_digest(std::size_t from_index);

}  // namespace rrp::core
