// ref_kernel.h — the benchmark's reference kernel (host speedometer).
//
// The host this benchmark runs on can change CPU speed by about 2x every
// 0.2-2 s, invisibly to the process.  Every timed repetition is therefore
// bracketed by this fixed-work kernel: the ratio of its nominal time to
// its measured time says how fast the host ran around the repetition.
// The kernel links no rrp code and is compiled with fixed flags
// (CMakeLists.txt), and its code and data sit on 64-byte boundaries, so
// its speed depends on the host alone, not on where it is linked.
#pragma once

namespace perfbench {

/// Nominal wall time of one kernel round, in ms: the host's fast mode
/// (Intel Xeon VM, 4 vCPU) as measured when the benchmark was defined.
/// A normalised second equals a wall second when the host runs at this
/// speed.
inline constexpr double kRefNominalMsPerRound = 0.12;

/// Runs `rounds` fixed-work rounds (one round: a 64x64x64 scalar float
/// matrix product plus a feedback step) and returns a checksum that
/// depends on every product, so the work cannot be removed.
double ref_kernel(int rounds);

}  // namespace perfbench
