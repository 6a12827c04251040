#include "nn/layers.h"
#include "util/checks.h"

namespace rrp::nn {

namespace {
std::pair<int, int> pool_out_hw(int h, int w, int k, int s) {
  const int oh = (h - k) / s + 1;
  const int ow = (w - k) / s + 1;
  RRP_CHECK_MSG(oh > 0 && ow > 0, "pool input " << h << "x" << w
                                                << " smaller than kernel");
  return {oh, ow};
}
}  // namespace

MaxPool::MaxPool(std::string name, int kernel, int stride)
    : Layer(std::move(name)), kernel_(kernel), stride_(stride) {
  RRP_CHECK(kernel > 0 && stride > 0);
}

Tensor MaxPool::forward(const Tensor& x, bool training) {
  RRP_CHECK_MSG(x.dim() == 4, "MaxPool expects NCHW");
  const int n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  const auto [oh, ow] = pool_out_hw(h, w, kernel_, stride_);
  Tensor y({n, c, oh, ow});
  if (training) {
    cached_in_shape_ = x.shape();
    argmax_.assign(static_cast<std::size_t>(y.numel()), 0);
  }
  const std::int64_t planes = static_cast<std::int64_t>(n) * c;
  const std::int64_t out_plane = static_cast<std::int64_t>(oh) * ow;
  for (std::int64_t p = 0; p < planes; ++p)
    ops::maxpool_plane(x.raw() + p * h * w, w, kernel_, stride_, oh, ow,
                       y.raw() + p * out_plane,
                       training ? argmax_.data() + p * out_plane : nullptr,
                       p * h * w);
  return y;
}

Tensor MaxPool::backward(const Tensor& grad_out) {
  RRP_CHECK_MSG(!cached_in_shape_.empty(),
                "MaxPool '" << name() << "' backward without forward(train)");
  RRP_CHECK(static_cast<std::size_t>(grad_out.numel()) == argmax_.size());
  Tensor grad_in(cached_in_shape_);
  for (std::int64_t i = 0; i < grad_out.numel(); ++i)
    grad_in[argmax_[static_cast<std::size_t>(i)]] += grad_out[i];
  return grad_in;
}

Shape MaxPool::output_shape(const Shape& in) const {
  RRP_CHECK(in.size() == 4);
  const auto [oh, ow] = pool_out_hw(in[2], in[3], kernel_, stride_);
  return {in[0], in[1], oh, ow};
}

std::unique_ptr<Layer> MaxPool::clone() const {
  return std::make_unique<MaxPool>(name(), kernel_, stride_);
}

AvgPool::AvgPool(std::string name, int kernel, int stride)
    : Layer(std::move(name)), kernel_(kernel), stride_(stride) {
  RRP_CHECK(kernel > 0 && stride > 0);
}

Tensor AvgPool::forward(const Tensor& x, bool training) {
  RRP_CHECK_MSG(x.dim() == 4, "AvgPool expects NCHW");
  const int n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  const auto [oh, ow] = pool_out_hw(h, w, kernel_, stride_);
  Tensor y({n, c, oh, ow});
  const std::int64_t planes = static_cast<std::int64_t>(n) * c;
  for (std::int64_t p = 0; p < planes; ++p)
    ops::avgpool_plane(x.raw() + p * h * w, w, kernel_, stride_, oh, ow,
                       y.raw() + p * oh * ow);
  if (training) cached_in_shape_ = x.shape();
  return y;
}

Tensor AvgPool::backward(const Tensor& grad_out) {
  RRP_CHECK_MSG(!cached_in_shape_.empty(),
                "AvgPool '" << name() << "' backward without forward(train)");
  const int n = cached_in_shape_[0], c = cached_in_shape_[1],
            h = cached_in_shape_[2], w = cached_in_shape_[3];
  const auto [oh, ow] = pool_out_hw(h, w, kernel_, stride_);
  RRP_CHECK(grad_out.dim() == 4 && grad_out.size(2) == oh &&
            grad_out.size(3) == ow);
  Tensor grad_in(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  std::int64_t oidx = 0;
  for (int s = 0; s < n; ++s) {
    for (int ch = 0; ch < c; ++ch) {
      float* plane =
          grad_in.raw() + (static_cast<std::int64_t>(s) * c + ch) * h * w;
      for (int oi = 0; oi < oh; ++oi) {
        for (int oj = 0; oj < ow; ++oj, ++oidx) {
          const float g = grad_out[oidx] * inv;
          for (int ki = 0; ki < kernel_; ++ki) {
            const int ii = oi * stride_ + ki;
            for (int kj = 0; kj < kernel_; ++kj)
              plane[static_cast<std::int64_t>(ii) * w + oj * stride_ + kj] +=
                  g;
          }
        }
      }
    }
  }
  return grad_in;
}

Shape AvgPool::output_shape(const Shape& in) const {
  RRP_CHECK(in.size() == 4);
  const auto [oh, ow] = pool_out_hw(in[2], in[3], kernel_, stride_);
  return {in[0], in[1], oh, ow};
}

std::unique_ptr<Layer> AvgPool::clone() const {
  return std::make_unique<AvgPool>(name(), kernel_, stride_);
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool training) {
  RRP_CHECK_MSG(x.dim() == 4, "GlobalAvgPool expects NCHW");
  const int n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  Tensor y({n, c});
  for (std::int64_t p = 0; p < static_cast<std::int64_t>(n) * c; ++p)
    y.raw()[p] = ops::global_avg(x.raw() + p * h * w, h * w);
  if (training) cached_in_shape_ = x.shape();
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  RRP_CHECK_MSG(!cached_in_shape_.empty(),
                "GlobalAvgPool backward without forward(train)");
  const int n = cached_in_shape_[0], c = cached_in_shape_[1],
            h = cached_in_shape_[2], w = cached_in_shape_[3];
  RRP_CHECK(grad_out.dim() == 2 && grad_out.size(0) == n &&
            grad_out.size(1) == c);
  Tensor grad_in(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int s = 0; s < n; ++s) {
    for (int ch = 0; ch < c; ++ch) {
      const float g = grad_out.at(s, ch) * inv;
      float* plane =
          grad_in.raw() + (static_cast<std::int64_t>(s) * c + ch) * h * w;
      for (int i = 0; i < h * w; ++i) plane[i] = g;
    }
  }
  return grad_in;
}

Shape GlobalAvgPool::output_shape(const Shape& in) const {
  RRP_CHECK(in.size() == 4);
  return {in[0], in[1]};
}

std::unique_ptr<Layer> GlobalAvgPool::clone() const {
  return std::make_unique<GlobalAvgPool>(name());
}

}  // namespace rrp::nn
