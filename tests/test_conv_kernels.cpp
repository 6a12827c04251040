// test_conv_kernels.cpp — the direct (implicit-GEMM) stride-1 conv kernels
// behind nn::conv_direct.
//
// The contract (nn/gemm_kernels.h, DESIGN.md invariant 13): every compiled
// direct variant, reading the zero-padded input, is bitwise equal to
// im2col followed by the reference GEMM — the oracle the RRP_SIMD=OFF
// build runs.  Swept over kernel sizes 1/3/5, padding 0/1/2, widths with
// and without an 8-lane tail, 1–33 input and output channels, all-zero
// weight rows and columns, and inf/NaN inputs that meet zero weights (the
// zero-weight skip decides 0·inf), and no variant may fuse a multiply and
// an add.  The public entry point must also be invariant to the row
// partition RRP_THREADS induces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "nn/gemm.h"
#include "nn/gemm_kernels.h"
#include "nn/op_kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rrp::nn {
namespace {

ops::ConvGeometry geometry(int in_ch, int out_ch, int kernel, int padding,
                           int h, int w) {
  return {in_ch,  out_ch, kernel, 1, padding, h, w,
          h + 2 * padding - kernel + 1, w + 2 * padding - kernel + 1};
}

std::string describe(const ops::ConvGeometry& g) {
  return "in=" + std::to_string(g.in_ch) + " out=" + std::to_string(g.out_ch) +
         " k=" + std::to_string(g.kernel) + " p=" + std::to_string(g.padding) +
         " " + std::to_string(g.h) + "x" + std::to_string(g.w);
}

std::vector<float> uniform(std::int64_t n, Rng& rng, double zero_frac) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v)
    x = rng.uniform() < zero_frac
            ? 0.0f
            : static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Weights with ~25% scattered zeros plus an all-zero output row and an
/// all-zero column (one k-term pruned in every row).
std::vector<float> weights(const ops::ConvGeometry& g, Rng& rng) {
  std::vector<float> w = uniform(g.out_ch * g.col_rows(), rng, 0.25);
  const std::int64_t k = g.col_rows();
  if (g.out_ch > 1)
    std::fill(w.begin() + k, w.begin() + 2 * k, 0.0f);  // row 1
  if (k > 1)
    for (int i = 0; i < g.out_ch; ++i) w[static_cast<std::size_t>(i * k)] = 0;
  return w;
}

/// The oracle: im2col + the reference GEMM (alpha 1, beta 0).
std::vector<float> oracle(const ops::ConvGeometry& g,
                          const std::vector<float>& w,
                          const std::vector<float>& x) {
  std::vector<float> col(static_cast<std::size_t>(g.col_floats()));
  std::vector<float> out(static_cast<std::size_t>(g.out_ch * g.col_cols()),
                         -7.0f);
  ops::im2col(g, x.data(), col.data());
  kernels::gemm_rows_reference(0, g.out_ch, g.col_cols(), g.col_rows(), 1.0f,
                               w.data(), g.col_rows(), col.data(),
                               g.col_cols(), 0.0f, out.data(), g.col_cols());
  return out;
}

std::vector<float> padded(const ops::ConvGeometry& g,
                          const std::vector<float>& x) {
  std::vector<float> p(static_cast<std::size_t>(g.padded_floats()), 9.0f);
  ops::pad_input(g, x.data(), p.data());
  return p;
}

/// Bitwise equality, except that any two NaNs match: a NaN's payload
/// depends on which operand the compiler put first, which no variant
/// promises (inf - inf and NaN + NaN are NaN either way).
void expect_same_bits(const std::vector<float>& want,
                      const std::vector<float>& got, const std::string& tag) {
  ASSERT_EQ(want.size(), got.size()) << tag;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i] != want[i] && got[i] != got[i]) continue;
    std::uint32_t a = 0, b = 0;
    std::memcpy(&a, &want[i], sizeof a);
    std::memcpy(&b, &got[i], sizeof b);
    ASSERT_EQ(a, b) << tag << " element " << i << ": " << want[i] << " vs "
                    << got[i];
  }
}

struct Variant {
  const char* name;
  kernels::ConvRowsFn fn;
};

std::vector<Variant> variants() {
  std::vector<Variant> v = {{"blocked", &kernels::conv_rows_blocked}};
#if defined(RRP_HAVE_AVX2)
  if (kernels::avx2_usable()) v.push_back({"avx2", &kernels::conv_rows_avx2});
#endif
  return v;
}

/// Runs `fn` over rows [0, out_ch) split at `cut` (0 = one call).
std::vector<float> run(kernels::ConvRowsFn fn, const ops::ConvGeometry& g,
                       const std::vector<float>& w,
                       const std::vector<float>& pad, int cut) {
  std::vector<float> out(static_cast<std::size_t>(g.out_ch * g.col_cols()),
                         -7.0f);
  if (cut > 0 && cut < g.out_ch) {
    fn(0, cut, g, w.data(), pad.data(), out.data());
    fn(cut, g.out_ch, g, w.data(), pad.data(), out.data());
  } else {
    fn(0, g.out_ch, g, w.data(), pad.data(), out.data());
  }
  return out;
}

TEST(ConvKernels, DirectVariantsMatchIm2colReference) {
  Rng rng(0xC0417);
  int cases = 0;
  for (int kernel : {1, 3, 5}) {
    for (int padding : {0, 1, 2}) {
      for (int width : {5, 8, 13, 16}) {
        if (width + 2 * padding < kernel) continue;
        // Channel counts 1..33: single channel, an 8-lane multiple, odd.
        for (auto [in_ch, out_ch] :
             {std::pair{1, 1}, std::pair{3, 8}, std::pair{8, 5},
              std::pair{17, 33}, std::pair{33, 2}}) {
          const int height = (width % 3) + 4;  // 4..6 rows
          if (height + 2 * padding < kernel) continue;
          const ops::ConvGeometry g =
              geometry(in_ch, out_ch, kernel, padding, height, width);
          const std::vector<float> w = weights(g, rng);
          const std::vector<float> x =
              uniform(g.in_ch * g.h * g.w, rng, 0.1);
          const std::vector<float> want = oracle(g, w, x);
          const std::vector<float> pad = padded(g, x);
          for (const Variant& v : variants())
            for (int cut : {0, 1, out_ch / 2})
              expect_same_bits(want, run(v.fn, g, w, pad, cut),
                               std::string(v.name) + " " + describe(g) +
                                   " cut=" + std::to_string(cut));
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 150);
}

TEST(ConvKernels, NonFiniteInputsMeetZeroWeightsExactly) {
  // A zero weight skips its term in every variant, so inf/NaN inputs
  // under a zero weight leave the output finite; under a non-zero weight
  // they propagate exactly as the reference GEMM propagates them.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  for (int width : {5, 8, 13, 16}) {
    const ops::ConvGeometry g = geometry(4, 9, 3, 1, 6, width);
    Rng rng(static_cast<std::uint64_t>(width));
    std::vector<float> w = weights(g, rng);
    // Channel 2's filter is zero in every output row: its non-finite
    // inputs must vanish.  Row 3 keeps channel 3 live.
    for (int i = 0; i < g.out_ch; ++i)
      for (int t = 0; t < 9; ++t)
        w[static_cast<std::size_t>(i * g.col_rows() + 2 * 9 + t)] = 0.0f;
    std::vector<float> x = uniform(g.in_ch * g.h * g.w, rng, 0.0);
    const std::int64_t plane = static_cast<std::int64_t>(g.h) * g.w;
    for (std::int64_t j = 0; j < plane; j += 3) {
      x[static_cast<std::size_t>(2 * plane + j)] = j % 2 ? kNaN : -kInf;
      x[static_cast<std::size_t>(2 * plane + j + 1)] = kInf;
    }
    x[static_cast<std::size_t>(3 * plane + 7)] = kInf;
    x[static_cast<std::size_t>(3 * plane + 11)] = kNaN;
    const std::vector<float> want = oracle(g, w, x);
    const std::vector<float> pad = padded(g, x);
    for (const Variant& v : variants())
      expect_same_bits(want, run(v.fn, g, w, pad, 0),
                       std::string(v.name) + " " + describe(g));
    // Sanity: the case really mixes finite and non-finite outputs.
    int finite = 0;
    for (float y : want) finite += std::isfinite(y) ? 1 : 0;
    EXPECT_GT(finite, 0);
    EXPECT_LT(finite, static_cast<int>(want.size()));
  }
}

TEST(ConvKernels, NoVariantFusesMultiplyAdd) {
  // Two 1x1 terms whose exact sum is 2^-24 but whose separately rounded
  // sum is 0 (FastPath.KernelsNeverFuseMultiplyAdd has the arithmetic).
  const float a1 = 1.0f + 0x1p-12f;
  const std::vector<float> w = {-(1.0f + 0x1p-11f), a1};
  // 8x16: full 8-lane tiles only; 3x13: masked row tails only.
  for (const ops::ConvGeometry& g :
       {geometry(2, 1, 1, 0, 8, 16), geometry(2, 1, 1, 0, 3, 13)}) {
    std::vector<float> x(static_cast<std::size_t>(2 * g.h * g.w), 1.0f);
    std::fill(x.begin() + g.h * g.w, x.end(), a1);
    const std::vector<float> zeros(static_cast<std::size_t>(g.col_cols()),
                                   0.0f);
    expect_same_bits(zeros, oracle(g, w, x), "reference " + describe(g));
    for (const Variant& v : variants())
      expect_same_bits(zeros, run(v.fn, g, w, x, 0),
                       std::string(v.name) + " " + describe(g));
  }
}

TEST(ConvKernels, ConvDirectIsBitExactAcrossThreadCounts) {
  // Shapes large enough that conv_direct fans out over output channels.
  if (kernels::active_conv_rows() == nullptr)
    GTEST_SKIP() << "RRP_SIMD=OFF: every conv runs im2col + GEMM";
  for (const ops::ConvGeometry& g :
       {geometry(16, 32, 3, 1, 16, 16), geometry(32, 33, 3, 1, 8, 13),
        geometry(17, 24, 1, 0, 8, 8)}) {
    ASSERT_TRUE(g.direct());
    Rng rng(static_cast<std::uint64_t>(g.in_ch * 100 + g.out_ch));
    const std::vector<float> w = weights(g, rng);
    const std::vector<float> x = uniform(g.in_ch * g.h * g.w, rng, 0.0);
    const std::vector<float> want = oracle(g, w, x);
    const std::vector<float> pad =
        g.padding > 0 ? padded(g, x) : x;  // p == 0 reads x in place
    for (int threads : {1, 2, 8}) {
      ThreadCountGuard guard(threads);
      std::vector<float> out(
          static_cast<std::size_t>(g.out_ch * g.col_cols()), -7.0f);
      conv_direct(g, w.data(), pad.data(), out.data());
      expect_same_bits(want, out,
                       describe(g) + " threads=" + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace rrp::nn
