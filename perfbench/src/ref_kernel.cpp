#include "ref_kernel.h"

namespace perfbench {

namespace {
constexpr int kN = 64;
}  // namespace

double ref_kernel(int rounds) {
  alignas(64) static float a[kN * kN];
  alignas(64) static float b[kN * kN];
  alignas(64) static float c[kN * kN];
  unsigned state = 12345u;
  for (int i = 0; i < kN * kN; ++i) {
    state = state * 1664525u + 1013904223u;
    a[i] = static_cast<float>(state >> 9) * (1.0f / 8388608.0f) - 0.5f;
    state = state * 1664525u + 1013904223u;
    b[i] = static_cast<float>(state >> 9) * (1.0f / 8388608.0f) - 0.5f;
  }
  double checksum = 0.0;
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < kN; ++i)
      for (int j = 0; j < kN; ++j) {
        float acc = 0.0f;
        for (int k = 0; k < kN; ++k) acc += a[i * kN + k] * b[k * kN + j];
        c[i * kN + j] = acc;
      }
    // Fold the product into the checksum and move `a` to new (bounded,
    // never denormal) values, so no round can be hoisted or skipped.
    for (int i = 0; i < kN * kN; ++i) {
      checksum += c[i];
      a[i] = 0.5f * a[i] + 0.5f * b[(i + 7 * r + 1) % (kN * kN)];
    }
  }
  return checksum;
}

}  // namespace perfbench
