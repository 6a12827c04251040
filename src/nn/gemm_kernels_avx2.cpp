// AVX2 micro-kernels.  This translation unit is the only one compiled with
// -mavx2 (the project-wide -ffp-contract=off keeps mul+add from fusing into
// FMA); callers reach it through kernels::active_gemm_rows() and
// kernels::active_conv_rows() after a runtime CPU check.
//
// Bit-exactness with the scalar reference: the j-axis is split into 8-wide
// lanes that never interact — each C element still sees its k-terms in
// ascending order, one _mm256_mul_ps then one _mm256_add_ps per term, which
// round exactly like the scalar `crow[j] += av * brow[j]`.  Scalar tail
// loops use the identical expression.  The direct conv kernel's masked
// lanes (an output row's tail) are never loaded from or stored to.
#include "nn/gemm_kernels.h"

#if defined(RRP_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>

#include "nn/op_kernels.h"

namespace rrp::nn::kernels {

namespace {

constexpr std::int64_t kTileM = 64;
constexpr std::int64_t kTileN = 64;
constexpr std::int64_t kTileK = 64;

void scale_rows(std::int64_t i_begin, std::int64_t i_end, std::int64_t n,
                float beta, float* c, std::int64_t ldc) {
  for (std::int64_t i = i_begin; i < i_end; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.0f) std::fill(crow, crow + n, 0.0f);
    else if (beta != 1.0f)
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
  }
}

// One C row x [j, j+jn) columns, accumulated over [k0, kmax) with the row's
// 8-wide accumulators held in ymm registers.  `a_at(kk)` abstracts the A
// layout (row-major vs transposed) so both public kernels share this body.
template <typename AtFn>
inline void row_tile(std::int64_t jn, std::int64_t k0, std::int64_t kmax,
                     float alpha, AtFn a_at, const float* b, std::int64_t ldb,
                     std::int64_t j, float* crow) {
  // Up to kTileN/8 = 8 vector accumulators plus a scalar tail.
  __m256 acc[kTileN / 8];
  const std::int64_t vn = jn / 8;       // full 8-lanes
  const std::int64_t tail = jn - vn * 8;
  float* cj = crow + j;
  for (std::int64_t v = 0; v < vn; ++v) acc[v] = _mm256_loadu_ps(cj + v * 8);
  for (std::int64_t kk = k0; kk < kmax; ++kk) {
    const float av = alpha * a_at(kk);
    if (av == 0.0f) continue;  // pruned weights short-circuit
    const float* brow = b + kk * ldb + j;
    const __m256 vav = _mm256_set1_ps(av);
    for (std::int64_t v = 0; v < vn; ++v)
      acc[v] = _mm256_add_ps(acc[v],
                             _mm256_mul_ps(vav, _mm256_loadu_ps(brow + v * 8)));
    for (std::int64_t t = 0; t < tail; ++t)
      cj[vn * 8 + t] += av * brow[vn * 8 + t];
  }
  for (std::int64_t v = 0; v < vn; ++v) _mm256_storeu_ps(cj + v * 8, acc[v]);
}

}  // namespace

// rrp-frame-path: hand-vectorized AVX2 micro-kernel (runtime-dispatched).
void gemm_rows_avx2(std::int64_t i_begin, std::int64_t i_end, std::int64_t n,
                    std::int64_t k, float alpha, const float* a,
                    std::int64_t lda, const float* b, std::int64_t ldb,
                    float beta, float* c, std::int64_t ldc) {
  scale_rows(i_begin, i_end, n, beta, c, ldc);
  for (std::int64_t i0 = i_begin; i0 < i_end; i0 += kTileM) {
    const std::int64_t imax = std::min(i0 + kTileM, i_end);
    for (std::int64_t k0 = 0; k0 < k; k0 += kTileK) {
      const std::int64_t kmax = std::min(k0 + kTileK, k);
      for (std::int64_t j0 = 0; j0 < n; j0 += kTileN) {
        const std::int64_t jmax = std::min(j0 + kTileN, n);
        const std::int64_t jn = jmax - j0;
        for (std::int64_t i = i0; i < imax; ++i) {
          const float* arow = a + i * lda;
          row_tile(jn, k0, kmax, alpha,
                   [arow](std::int64_t kk) { return arow[kk]; }, b, ldb, j0,
                   c + i * ldc);
        }
      }
    }
  }
}

// rrp-frame-path: hand-vectorized AVX2 micro-kernel, A-transposed.
void gemm_at_rows_avx2(std::int64_t i_begin, std::int64_t i_end,
                       std::int64_t n, std::int64_t k, float alpha,
                       const float* a, std::int64_t lda, const float* b,
                       std::int64_t ldb, float beta, float* c,
                       std::int64_t ldc) {
  scale_rows(i_begin, i_end, n, beta, c, ldc);
  // A is [K, M]: A elements for row i sit at a[kk * lda + i].
  for (std::int64_t i = i_begin; i < i_end; ++i) {
    for (std::int64_t j0 = 0; j0 < n; j0 += kTileN) {
      const std::int64_t jn = std::min(kTileN, n - j0);
      row_tile(jn, 0, k, alpha,
               [a, lda, i](std::int64_t kk) { return a[kk * lda + i]; }, b,
               ldb, j0, c + i * ldc);
    }
  }
}

namespace {

// Direct conv tile: one output channel x kConvSlots 8-pixel vectors.  A
// slot is 8 consecutive pixels of one output row (fewer at a row's tail),
// so its B values for term (c, ki, kj) are one contiguous run of the
// padded input at c*plane + ki*pw + kj + src_off.
constexpr int kConvSlots = 8;

struct ConvTile {
  int slots = 0;
  bool full = true;  ///< every slot has 8 lanes: no masks needed
  std::int64_t src_off[kConvSlots] = {};
  std::int64_t dst_off[kConvSlots] = {};
  __m256i mask[kConvSlots] = {};
};

// Terms of one output channel over one tile; `Full` drops the lane masks.
template <bool Full>
inline void conv_tile(const ConvTile& t, const ops::ConvGeometry& g,
                      std::int64_t pw, std::int64_t plane, const float* wrow,
                      const float* padded, float* orow) {
  __m256 acc[kConvSlots];
  const int slots = Full ? kConvSlots : t.slots;
  for (int s = 0; s < slots; ++s) acc[s] = _mm256_setzero_ps();
  std::int64_t kk = 0;
  for (int c = 0; c < g.in_ch; ++c) {
    for (int ki = 0; ki < g.kernel; ++ki) {
      const float* row = padded + c * plane + ki * pw;
      for (int kj = 0; kj < g.kernel; ++kj, ++kk) {
        const float av = wrow[kk];
        if (av == 0.0f) continue;  // pruned weights short-circuit
        const __m256 vav = _mm256_set1_ps(av);
        const float* src = row + kj;
        for (int s = 0; s < slots; ++s) {
          const __m256 b =
              Full ? _mm256_loadu_ps(src + t.src_off[s])
                   : _mm256_maskload_ps(src + t.src_off[s], t.mask[s]);
          acc[s] = _mm256_add_ps(acc[s], _mm256_mul_ps(vav, b));
        }
      }
    }
  }
  for (int s = 0; s < slots; ++s) {
    if (Full) _mm256_storeu_ps(orow + t.dst_off[s], acc[s]);
    else _mm256_maskstore_ps(orow + t.dst_off[s], t.mask[s], acc[s]);
  }
}

}  // namespace

// rrp-frame-path: hand-vectorized direct stride-1 conv (runtime-dispatched).
void conv_rows_avx2(std::int64_t i_begin, std::int64_t i_end,
                    const ops::ConvGeometry& g, const float* w,
                    const float* padded, float* out) {
  const std::int64_t pw = g.w + 2 * g.padding;
  const std::int64_t plane = (g.h + 2 * g.padding) * pw;
  const std::int64_t k = g.col_rows(), n = g.col_cols();
  const int per_row = (g.ow + 7) / 8;
  const int vectors = g.oh * per_row;
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (int v0 = 0; v0 < vectors; v0 += kConvSlots) {
    ConvTile t;
    t.slots = std::min(kConvSlots, vectors - v0);
    t.full = t.slots == kConvSlots;
    for (int s = 0; s < t.slots; ++s) {
      const int oi = (v0 + s) / per_row, oj = (v0 + s) % per_row * 8;
      const int lanes = std::min(8, g.ow - oj);
      t.full = t.full && lanes == 8;
      t.src_off[s] = oi * pw + oj;
      t.dst_off[s] = static_cast<std::int64_t>(oi) * g.ow + oj;
      t.mask[s] = _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes), lane);
    }
    for (std::int64_t i = i_begin; i < i_end; ++i) {
      if (t.full)
        conv_tile<true>(t, g, pw, plane, w + i * k, padded, out + i * n);
      else
        conv_tile<false>(t, g, pw, plane, w + i * k, padded, out + i * n);
    }
  }
}

}  // namespace rrp::nn::kernels

#endif  // RRP_HAVE_AVX2
