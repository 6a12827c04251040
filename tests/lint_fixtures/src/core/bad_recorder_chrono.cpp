// Fixture: the flight recorder's determinism contract is lint-enforced.
// core/flight_recorder.* is deliberately ABSENT from kChronoWhitelist (all
// record time is modeled platform time or frame indices) and core may not
// reach up into sim (R3).  Never compiled — test_rrp_lint.cpp asserts the
// exact lines that fire.
#include <chrono>
#include "sim/runner.h"

// Wall-clock timestamps in a frame record would make bundles
// host-dependent and break byte-identical replay.
std::chrono::steady_clock::time_point recorded_at;
