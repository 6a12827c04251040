// op_kernels.h — per-sample inference kernels shared by the eval-mode
// Layer::forward implementations and the compiled InferencePlan
// (nn/plan.h).
//
// Each kernel is the ONE implementation of its arithmetic: the layer
// forwards loop it over the batch, the plan runs it over arena offsets.
// Same code, same expression order, same accumulation types — which is
// why a plan's output is bitwise identical to Network::forward
// (DESIGN.md invariant 13).  Kernels write only their output and scratch
// pointers and never allocate.
#pragma once

#include <cstdint>

namespace rrp::nn::ops {

/// Geometry of one sample through a Conv2D / DepthwiseConv2D.
struct ConvGeometry {
  int in_ch = 0;
  int out_ch = 0;
  int kernel = 0;
  int stride = 1;
  int padding = 0;
  int h = 0, w = 0;    ///< input extents
  int oh = 0, ow = 0;  ///< output extents

  std::int64_t col_rows() const {
    return static_cast<std::int64_t>(in_ch) * kernel * kernel;
  }
  std::int64_t col_cols() const { return static_cast<std::int64_t>(oh) * ow; }
  /// im2col matrix [col_rows, col_cols].
  std::int64_t col_floats() const { return col_rows() * col_cols(); }
  /// Zero-padded input [in_ch, h+2p, w+2p].
  std::int64_t padded_floats() const {
    return static_cast<std::int64_t>(in_ch) * (h + 2 * padding) *
           (w + 2 * padding);
  }
  /// True when conv2d() runs this conv as an implicit GEMM over the padded
  /// input (stride 1 with a direct kernel in the build), false when it
  /// unrolls im2col.
  bool direct() const;
  /// Scratch conv2d() needs: the padded input for a direct conv (none when
  /// padding is 0: the input is read in place), col_floats() otherwise.
  std::int64_t scratch_floats() const {
    if (!direct()) return col_floats();
    return padding > 0 ? padded_floats() : 0;
  }
};

/// Unrolls one sample [in_ch, h, w] into col [in_ch*k*k, oh*ow].
void im2col(const ConvGeometry& g, const float* src, float* col);

/// Copies one sample [in_ch, h, w] into the zero-padded
/// [in_ch, h+2p, w+2p] buffer `padded`.
void pad_input(const ConvGeometry& g, const float* src, float* padded);

/// One Conv2D sample: out[out_ch, oh*ow] = W[out_ch, col_rows] *
/// im2col(src), then the bias (nullable).  A direct() conv pads `src`
/// into `scratch` and runs nn::conv_direct; any other unrolls im2col
/// into `scratch` and runs nn::gemm.  `scratch` holds scratch_floats().
void conv2d(const ConvGeometry& g, const float* weight, const float* bias,
            const float* src, float* scratch, float* out);

/// One depthwise output plane: channel `c`'s [h, w] plane convolved with
/// its k×k filter, accumulated in double from the bias.
void depthwise_plane(const ConvGeometry& g, const float* plane,
                     const float* filter, float bias, float* out);

/// Rows of a Linear layer: y[n, out] = x[n, in] * W^T through nn::gemm_bt,
/// then the bias (nullable).
void linear(std::int64_t n, int in_features, int out_features,
            const float* weight, const float* bias, const float* x, float* y);

/// Eval-mode BatchNorm affine of one channel, in BatchNorm::forward's
/// expression order.
struct Affine {
  float scale;
  float shift;
};
Affine batchnorm_affine(float gamma, float beta, float mean, float var,
                        float eps);

/// dst[i] = src[i] * a.scale + a.shift over one plane (dst may be src).
void affine_plane(const float* src, float* dst, std::int64_t n, Affine a);

/// dst[i] = max(src[i], 0) (dst may be src).
void relu(const float* src, float* dst, std::int64_t n);

/// Max over each k×k window of one plane `w` wide (stride s, no padding).
/// When `argmax` is non-null it receives plane_base + the flat source
/// index of each winner (training-time cache).
void maxpool_plane(const float* plane, int w, int kernel, int stride, int oh,
                   int ow, float* out, std::int64_t* argmax = nullptr,
                   std::int64_t plane_base = 0);

/// Mean over each k×k window of one plane `w` wide, accumulated in double.
void avgpool_plane(const float* plane, int w, int kernel, int stride, int oh,
                   int ow, float* out);

/// Mean of one plane of `n` elements, accumulated in double.
float global_avg(const float* plane, int n);

/// In-place numerically stable softmax of one row.
void softmax_row(float* row, int cols);

/// dst[i] += src[i] (the residual identity add).
void add(const float* src, float* dst, std::int64_t n);

}  // namespace rrp::nn::ops
