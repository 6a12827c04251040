// stats.h — timing arithmetic of the benchmark: sample quantiles and the
// reference-speed normalisation (see ref_kernel.h).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, in seconds since an arbitrary origin.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile q in [0, 1] of `v` (copied, not sorted in
/// place).  Throws on an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// One timed interval and the reference-kernel times measured right
/// before and right after it.
struct Bracketed {
  double wall_s = 0.0;
  double ref_before_ms = 0.0;
  double ref_after_ms = 0.0;
};

/// Host speed around an interval relative to nominal: nominal reference
/// time over the mean of the two bracketing reference times (1 = the host
/// ran at nominal speed, 0.5 = it ran twice as slow).
inline double host_speed(const Bracketed& b, double ref_nominal_ms) {
  const double measured = 0.5 * (b.ref_before_ms + b.ref_after_ms);
  if (!(measured > 0.0)) throw std::invalid_argument("reference time <= 0");
  return ref_nominal_ms / measured;
}

/// How strongly the workloads' time follows the reference kernel's when
/// the host changes speed, as an exponent: measured over 60-100 s of
/// bracketed repetitions on the reference host, the workloads slow down by
/// about three quarters as much (in log terms) as the scalar reference
/// (their memory stalls do not scale with core speed), and normalising
/// with this exponent halved the spread between 10 s windows against a
/// full (exponent 1) normalisation.
inline constexpr double kHostSensitivity = 0.75;

/// Factor that scales a time measured inside `b` to nominal host speed:
/// host_speed^kHostSensitivity (1 at nominal speed).
inline double speed_factor(const Bracketed& b, double ref_nominal_ms) {
  return std::pow(host_speed(b, ref_nominal_ms), kHostSensitivity);
}

/// The interval's wall time scaled to nominal host speed.
inline double normalised_s(const Bracketed& b, double ref_nominal_ms) {
  return b.wall_s * speed_factor(b, ref_nominal_ms);
}

/// Host-mode swing within a run: p90 / p10 of the reference times.
inline double mode_ratio(const std::vector<double>& ref_ms) {
  return quantile(ref_ms, 0.9) / quantile(ref_ms, 0.1);
}

}  // namespace perfbench
