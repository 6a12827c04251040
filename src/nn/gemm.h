// gemm.h — single-precision matrix multiply kernels.
//
// All heavy layers (Conv2D, Linear) lower to these routines, so the
// engine's latency-vs-pruning behaviour is concentrated in one place that
// the platform model can reason about (cost ∝ M·N·K).  A stride-1 Conv2D
// enters through `conv_direct`, an implicit GEMM over its zero-padded
// input; strided convs, the RRP_SIMD=OFF build and Conv2D::backward use
// im2col + `gemm`.  Both report as one "gemm" span and the same
// gemm.calls / gemm.flops counters with M·N·K, so traces and metric
// snapshots do not depend on which path ran.
//
// Threading: every variant parallelizes over disjoint blocks of C rows on
// the process-wide ThreadPool (util/thread_pool.h).  Each row of C is
// computed with exactly the same per-element accumulation order as the
// serial engine regardless of the thread count, so results are bit-exact
// and independent of RRP_THREADS (DESIGN.md §2, "Threading").
//
// Accumulation contract (intentional, relied on by tests/test_gemm.cpp):
//   * `gemm` and `gemm_at` accumulate C in float, adding scaled A-values
//     into the output row in k-ascending order, one rounded multiply and
//     one rounded add per term (never a fused FMA).
//   * `conv_direct` is bitwise `gemm(W, im2col(x))` with alpha 1, beta 0:
//     the same k-ascending float sum from +0 and the same zero-weight
//     skip (nn/gemm_kernels.h).
//   * `gemm_bt` accumulates each dot product in double, then rounds once
//     to float.  Its inner loop is a [K]-contiguous dot product, where the
//     double accumulator is free and buys precision for the gradient
//     (dW += g · colᵀ) accumulations that dominate its call sites.
// Consequently the three variants agree only to float rounding tolerance
// (~1e-4 relative for the sizes used here), never bitwise; cross-variant
// consistency is covered by tolerance-bounded tests, while bit-exactness
// guarantees apply per-variant across thread counts.
#pragma once

#include <cstdint>

namespace rrp::nn {

namespace ops {
struct ConvGeometry;
}  // namespace ops

/// C[M,N] = alpha * A[M,K] * B[K,N] + beta * C[M,N]   (row-major, no trans)
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
          float beta, float* c, std::int64_t ldc);

/// C[M,N] = alpha * A^T (A is [K,M]) * B[K,N] + beta * C  (row-major)
void gemm_at(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, std::int64_t lda, const float* b,
             std::int64_t ldb, float beta, float* c, std::int64_t ldc);

/// C[M,N] = alpha * A[M,K] * B^T (B is [N,K]) + beta * C  (row-major)
void gemm_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, std::int64_t lda, const float* b,
             std::int64_t ldb, float beta, float* c, std::int64_t ldc);

/// out[out_ch, oh*ow] = W[out_ch, in_ch*k*k] * im2col(x) for a stride-1
/// conv, read from `padded` (x zero-padded to [in_ch, h+2p, w+2p]; x
/// itself when p == 0) without materialising im2col.  Requires
/// g.direct() (nn/op_kernels.h).
void conv_direct(const ops::ConvGeometry& g, const float* weight,
                 const float* padded, float* out);

}  // namespace rrp::nn
