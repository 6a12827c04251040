// gemm_kernels.h — row-range GEMM micro-kernels behind nn/gemm.cpp.
//
// Three interchangeable implementations of one row-range GEMM contract:
//
//   * reference — the original scalar tile loops (the bit-exactness
//     oracle every other variant is tested against);
//   * blocked   — register-tiled, cache-blocked portable C++ (the
//     accumulator tile lives in a local array the compiler keeps in
//     registers / baseline vector lanes);
//   * avx2      — the blocked kernel with the j-axpy hand-vectorized
//     8-wide.  Only compiled when the toolchain accepts -mavx2 and only
//     selected at runtime on hardware that reports AVX2.
//
// All variants produce BIT-IDENTICAL output: every C element accumulates
// its k-terms in ascending-k order, one rounded multiply then one rounded
// add per term (never FMA-contracted — the whole project builds with
// -ffp-contract=off, so neither -mavx2 nor -march=native fuses them), and
// zero A-values short-circuit identically.
// Variant choice, tile shape and row partition are therefore invisible in
// the result (DESIGN.md invariant 13), which keeps golden traces and
// bench baselines independent of the RRP_SIMD build configuration.
//
// The direct (implicit-GEMM) conv kernels extend the same contract to
// stride-1 convolutions: C = W[out_ch, in_ch*k*k] * im2col(x), computed
// by reading each B element at padded[c][oi+ki][oj+kj] of the input copied
// once into a zero-padded [in_ch, h+2p, w+2p] buffer, instead of from an
// im2col row.  k = (c, ki, kj) is the im2col row index, so the terms of
// each output element are added in the same ascending order from +0, a
// padding position reads the same exact 0 that im2col writes, and the
// per-(row, k) zero-weight skip is the GEMM's — bitwise equal to im2col
// followed by the reference GEMM (tests/test_conv_kernels.cpp).  Only the
// blocked and avx2 variants have one: the reference configuration keeps
// im2col + gemm_rows_reference as the oracle.
//
// The -DRRP_SIMD CMake option picks which variant the active_* dispatch
// returns (OFF -> reference, ON -> avx2 when usable, else blocked); every
// compiled-in variant stays callable so tests can compare them directly
// within one build.
#pragma once

#include <cstdint>

namespace rrp::nn::ops {
struct ConvGeometry;
}  // namespace rrp::nn::ops

namespace rrp::nn::kernels {

/// Rows [i_begin, i_end) of C = alpha*A*B + beta*C (row-major, A [M,K]).
using GemmRowsFn = void (*)(std::int64_t i_begin, std::int64_t i_end,
                            std::int64_t n, std::int64_t k, float alpha,
                            const float* a, std::int64_t lda, const float* b,
                            std::int64_t ldb, float beta, float* c,
                            std::int64_t ldc);

// --- reference (scalar oracle; always available) ---------------------------
void gemm_rows_reference(std::int64_t i_begin, std::int64_t i_end,
                         std::int64_t n, std::int64_t k, float alpha,
                         const float* a, std::int64_t lda, const float* b,
                         std::int64_t ldb, float beta, float* c,
                         std::int64_t ldc);
void gemm_at_rows_reference(std::int64_t i_begin, std::int64_t i_end,
                            std::int64_t n, std::int64_t k, float alpha,
                            const float* a, std::int64_t lda, const float* b,
                            std::int64_t ldb, float beta, float* c,
                            std::int64_t ldc);

// --- blocked (register-tiled portable; always available) -------------------
void gemm_rows_blocked(std::int64_t i_begin, std::int64_t i_end,
                       std::int64_t n, std::int64_t k, float alpha,
                       const float* a, std::int64_t lda, const float* b,
                       std::int64_t ldb, float beta, float* c,
                       std::int64_t ldc);
void gemm_at_rows_blocked(std::int64_t i_begin, std::int64_t i_end,
                          std::int64_t n, std::int64_t k, float alpha,
                          const float* a, std::int64_t lda, const float* b,
                          std::int64_t ldb, float beta, float* c,
                          std::int64_t ldc);

// --- avx2 (hand-vectorized; present only when the toolchain has -mavx2) ----
#if defined(RRP_HAVE_AVX2)
void gemm_rows_avx2(std::int64_t i_begin, std::int64_t i_end, std::int64_t n,
                    std::int64_t k, float alpha, const float* a,
                    std::int64_t lda, const float* b, std::int64_t ldb,
                    float beta, float* c, std::int64_t ldc);
void gemm_at_rows_avx2(std::int64_t i_begin, std::int64_t i_end,
                       std::int64_t n, std::int64_t k, float alpha,
                       const float* a, std::int64_t lda, const float* b,
                       std::int64_t ldb, float beta, float* c,
                       std::int64_t ldc);
#endif

/// Output channels [i_begin, i_end) of a stride-1 conv: out[out_ch,
/// oh*ow] = W[out_ch, in_ch*k*k] * im2col(x), where `padded` is x
/// zero-padded to [in_ch, h+2p, w+2p] (x itself when p == 0).  The
/// caller guarantees g.stride == 1.
using ConvRowsFn = void (*)(std::int64_t i_begin, std::int64_t i_end,
                            const ops::ConvGeometry& g, const float* w,
                            const float* padded, float* out);

void conv_rows_blocked(std::int64_t i_begin, std::int64_t i_end,
                       const ops::ConvGeometry& g, const float* w,
                       const float* padded, float* out);
#if defined(RRP_HAVE_AVX2)
void conv_rows_avx2(std::int64_t i_begin, std::int64_t i_end,
                    const ops::ConvGeometry& g, const float* w,
                    const float* padded, float* out);
#endif

/// True when the AVX2 kernels are compiled in AND the CPU supports AVX2.
bool avx2_usable();

/// The kernel pair the RRP_SIMD build configuration selects (resolved once
/// per process; the choice never changes after the first call).
GemmRowsFn active_gemm_rows();
GemmRowsFn active_gemm_at_rows();
/// The direct conv kernel, or nullptr under RRP_SIMD=OFF, where every
/// conv keeps im2col + the reference GEMM.
ConvRowsFn active_conv_rows();

/// "scalar" (RRP_SIMD=OFF), "blocked" or "avx2" — for bench report configs
/// and diagnostics.
const char* active_variant();

}  // namespace rrp::nn::kernels
