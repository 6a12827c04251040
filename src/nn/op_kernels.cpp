#include "nn/op_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "nn/gemm.h"
#include "nn/gemm_kernels.h"

namespace rrp::nn::ops {
namespace {
constexpr float kNegInf = -std::numeric_limits<float>::infinity();
}  // namespace

void im2col(const ConvGeometry& g, const float* src, float* col) {
  const int k = g.kernel, h = g.h, w = g.w, oh = g.oh, ow = g.ow;
  std::int64_t row = 0;
  for (int c = 0; c < g.in_ch; ++c) {
    const float* plane = src + static_cast<std::int64_t>(c) * h * w;
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj, ++row) {
        float* out = col + row * static_cast<std::int64_t>(oh) * ow;
        for (int oi = 0; oi < oh; ++oi) {
          const int ii = oi * g.stride - g.padding + ki;
          if (ii < 0 || ii >= h) {
            std::memset(out + static_cast<std::int64_t>(oi) * ow, 0,
                        sizeof(float) * static_cast<std::size_t>(ow));
            continue;
          }
          const float* srow = plane + static_cast<std::int64_t>(ii) * w;
          float* orow = out + static_cast<std::int64_t>(oi) * ow;
          for (int oj = 0; oj < ow; ++oj) {
            const int jj = oj * g.stride - g.padding + kj;
            orow[oj] = (jj >= 0 && jj < w) ? srow[jj] : 0.0f;
          }
        }
      }
    }
  }
}

bool ConvGeometry::direct() const {
  return stride == 1 && kernels::active_conv_rows() != nullptr;
}

void pad_input(const ConvGeometry& g, const float* src, float* padded) {
  const int p = g.padding, pw = g.w + 2 * p;
  const std::size_t row_bytes = sizeof(float) * static_cast<std::size_t>(g.w);
  const std::size_t edge_bytes =
      sizeof(float) * static_cast<std::size_t>(p) * pw;
  for (int c = 0; c < g.in_ch; ++c) {
    // Only the border is zeroed: the interior is overwritten row by row.
    std::memset(padded, 0, edge_bytes);
    padded += static_cast<std::int64_t>(p) * pw;
    for (int r = 0; r < g.h; ++r, padded += pw, src += g.w) {
      std::fill(padded, padded + p, 0.0f);
      std::memcpy(padded + p, src, row_bytes);
      std::fill(padded + p + g.w, padded + pw, 0.0f);
    }
    std::memset(padded, 0, edge_bytes);
    padded += static_cast<std::int64_t>(p) * pw;
  }
}

void conv2d(const ConvGeometry& g, const float* weight, const float* bias,
            const float* src, float* scratch, float* out) {
  const std::int64_t col_rows = g.col_rows(), col_cols = g.col_cols();
  if (g.direct()) {
    const float* padded = src;
    if (g.padding > 0) {
      pad_input(g, src, scratch);
      padded = scratch;
    }
    conv_direct(g, weight, padded, out);
  } else {
    im2col(g, src, scratch);
    // out[out_ch, oh*ow] = W[out_ch, col_rows] * col[col_rows, oh*ow]
    gemm(g.out_ch, col_cols, col_rows, 1.0f, weight, col_rows, scratch,
         col_cols, 0.0f, out, col_cols);
  }
  if (bias != nullptr) {
    for (int c = 0; c < g.out_ch; ++c) {
      float* plane = out + static_cast<std::int64_t>(c) * col_cols;
      const float b = bias[c];
      for (std::int64_t i = 0; i < col_cols; ++i) plane[i] += b;
    }
  }
}

void depthwise_plane(const ConvGeometry& g, const float* plane,
                     const float* filter, float bias, float* out) {
  const int kk = g.kernel, h = g.h, w = g.w;
  for (int oi = 0; oi < g.oh; ++oi) {
    for (int oj = 0; oj < g.ow; ++oj) {
      double acc = bias;
      for (int ki = 0; ki < kk; ++ki) {
        const int ii = oi * g.stride - g.padding + ki;
        if (ii < 0 || ii >= h) continue;
        for (int kj = 0; kj < kk; ++kj) {
          const int jj = oj * g.stride - g.padding + kj;
          if (jj < 0 || jj >= w) continue;
          acc += static_cast<double>(filter[ki * kk + kj]) *
                 plane[static_cast<std::int64_t>(ii) * w + jj];
        }
      }
      out[static_cast<std::int64_t>(oi) * g.ow + oj] = static_cast<float>(acc);
    }
  }
}

void linear(std::int64_t n, int in_features, int out_features,
            const float* weight, const float* bias, const float* x, float* y) {
  // y[N, out] = x[N, in] * W^T (W is [out, in])
  gemm_bt(n, out_features, in_features, 1.0f, x, in_features, weight,
          in_features, 0.0f, y, out_features);
  if (bias != nullptr) {
    for (std::int64_t i = 0; i < n; ++i) {
      float* row = y + i * out_features;
      for (int j = 0; j < out_features; ++j) row[j] += bias[j];
    }
  }
}

Affine batchnorm_affine(float gamma, float beta, float mean, float var,
                        float eps) {
  const float inv_std = 1.0f / std::sqrt(var + eps);
  const float scale = gamma * inv_std;
  const float shift = beta - mean * scale;
  return {scale, shift};
}

void affine_plane(const float* src, float* dst, std::int64_t n, Affine a) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i] * a.scale + a.shift;
}

void relu(const float* src, float* dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = std::max(src[i], 0.0f);
}

void maxpool_plane(const float* plane, int w, int kernel, int stride, int oh,
                   int ow, float* out, std::int64_t* argmax,
                   std::int64_t plane_base) {
  std::int64_t oidx = 0;
  for (int oi = 0; oi < oh; ++oi) {
    for (int oj = 0; oj < ow; ++oj, ++oidx) {
      float best = kNegInf;
      std::int64_t best_idx = 0;
      for (int ki = 0; ki < kernel; ++ki) {
        const int ii = oi * stride + ki;
        for (int kj = 0; kj < kernel; ++kj) {
          const int jj = oj * stride + kj;
          const float v = plane[static_cast<std::int64_t>(ii) * w + jj];
          if (v > best) {
            best = v;
            best_idx = plane_base + static_cast<std::int64_t>(ii) * w + jj;
          }
        }
      }
      out[oidx] = best;
      if (argmax != nullptr) argmax[oidx] = best_idx;
    }
  }
}

void avgpool_plane(const float* plane, int w, int kernel, int stride, int oh,
                   int ow, float* out) {
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  std::int64_t oidx = 0;
  for (int oi = 0; oi < oh; ++oi) {
    for (int oj = 0; oj < ow; ++oj, ++oidx) {
      double acc = 0.0;
      for (int ki = 0; ki < kernel; ++ki) {
        const int ii = oi * stride + ki;
        for (int kj = 0; kj < kernel; ++kj)
          acc += plane[static_cast<std::int64_t>(ii) * w + oj * stride + kj];
      }
      out[oidx] = static_cast<float>(acc) * inv;
    }
  }
}

float global_avg(const float* plane, int n) {
  const float inv = 1.0f / static_cast<float>(n);
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += plane[i];
  return static_cast<float>(acc) * inv;
}

void softmax_row(float* row, int cols) {
  const float m = *std::max_element(row, row + cols);
  double z = 0.0;
  for (int c = 0; c < cols; ++c) {
    row[c] = std::exp(row[c] - m);
    z += row[c];
  }
  const float inv = static_cast<float>(1.0 / z);
  for (int c = 0; c < cols; ++c) row[c] *= inv;
}

void add(const float* src, float* dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

}  // namespace rrp::nn::ops
