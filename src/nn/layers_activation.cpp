#include "nn/layers.h"
#include "util/checks.h"

namespace rrp::nn {

Tensor ReLU::forward(const Tensor& x, bool training) {
  Tensor y = x;
  ops::relu(y.raw(), y.raw(), y.numel());
  if (training) cached_input_ = x;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  RRP_CHECK_MSG(!cached_input_.empty(),
                "ReLU '" << name() << "' backward without forward(train)");
  RRP_CHECK(grad_out.shape() == cached_input_.shape());
  Tensor grad_in = grad_out;
  auto g = grad_in.data();
  auto x = cached_input_.data();
  for (std::size_t i = 0; i < g.size(); ++i)
    if (x[i] <= 0.0f) g[i] = 0.0f;
  return grad_in;
}

std::unique_ptr<Layer> ReLU::clone() const {
  return std::make_unique<ReLU>(name());
}

Tensor Softmax::forward(const Tensor& x, bool training) {
  (void)training;
  RRP_CHECK_MSG(x.dim() >= 1, "Softmax needs rank >= 1");
  const int cols = x.size(-1);
  const std::int64_t rows = x.numel() / cols;
  Tensor y = x;
  for (std::int64_t r = 0; r < rows; ++r)
    ops::softmax_row(y.raw() + r * cols, cols);
  return y;
}

std::unique_ptr<Layer> Softmax::clone() const {
  return std::make_unique<Softmax>(name());
}

Tensor Flatten::forward(const Tensor& x, bool training) {
  RRP_CHECK_MSG(x.dim() >= 2, "Flatten needs rank >= 2");
  if (training) cached_in_shape_ = x.shape();
  const int n = x.size(0);
  const int rest = static_cast<int>(x.numel() / n);
  return x.reshape({n, rest});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  RRP_CHECK_MSG(!cached_in_shape_.empty(),
                "Flatten '" << name() << "' backward without forward(train)");
  return grad_out.reshape(cached_in_shape_);
}

Shape Flatten::output_shape(const Shape& in) const {
  RRP_CHECK(in.size() >= 2);
  int rest = 1;
  for (std::size_t i = 1; i < in.size(); ++i) rest *= in[i];
  return {in[0], rest};
}

std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>(name());
}

}  // namespace rrp::nn
