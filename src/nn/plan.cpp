#include "nn/plan.h"

#include <algorithm>
#include <cstring>

#include "util/checks.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace rrp::nn {
namespace {

// 64-byte aligned offsets keep every buffer on its own cache lines.
constexpr std::int64_t kAlignFloats = 16;

std::int64_t align_up(std::int64_t n) {
  return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

/// This thread's inference scratch, grown to at least `floats`.  One
/// arena per thread (never per plan or per view): plans run sequentially
/// on a thread, so every plan on it can share the same bytes.
float* thread_arena(std::int64_t floats) {
  thread_local std::vector<float> arena;
  if (static_cast<std::int64_t>(arena.size()) < floats)
    // rrp-lint-allow(frame-path-alloc): grows only past the largest plan this thread has run; plans pre-size the compiling thread's arena, so a steady-state frame never reaches this line (tests/test_alloc_free.cpp).
    arena.resize(static_cast<std::size_t>(floats));
  return arena.data();
}

/// True when `x` is a batch of samples shaped like `sample` ([1, ...]).
bool is_batch_of(const Tensor& x, const Shape& sample) {
  if (x.dim() != static_cast<int>(sample.size())) return false;
  for (std::size_t d = 1; d < sample.size(); ++d)
    if (x.shape()[d] != sample[d]) return false;
  return true;
}

}  // namespace

InferencePlan::InferencePlan(const Network& net, const Shape& input_shape)
    : in_shape_(input_shape) {
  RRP_CHECK_MSG(!input_shape.empty() && input_shape[0] == 1,
                "plan input shape must be batch-1, got "
                    << shape_str(input_shape));
  in_numel_ = shape_numel(input_shape);
  macs_ = net.macs(input_shape);
  std::vector<std::int64_t> pinned;
  const Value out = lower(net, Value{kInput, input_shape}, pinned);
  out_shape_ = out.shape;
  out_numel_ = shape_numel(out_shape_);
  out_buf_ = out.buf;
  // The conv scratch sits after the activations; every conv shares it.
  const std::int64_t scratch_offset = align_up(act_floats_);
  for (Op& op : ops_)
    if (op.kind == OpKind::Conv) op.aux = scratch_offset;
  arena_floats_ = scratch_offset + scratch_floats_;
  thread_arena(arena_floats_);  // pre-size the building thread's arena
}

std::int64_t InferencePlan::alloc(std::int64_t floats) {
  const std::int64_t at = act_floats_;
  act_floats_ = align_up(act_floats_ + floats);
  return at;
}

std::int64_t InferencePlan::in_place_dst(
    const Value& v, const std::vector<std::int64_t>& pinned) {
  const bool pinned_buf =
      v.buf == kInput ||
      std::find(pinned.begin(), pinned.end(), v.buf) != pinned.end();
  return pinned_buf ? alloc(shape_numel(v.shape)) : v.buf;
}

InferencePlan::Value InferencePlan::lower(const Network& net, Value v,
                                          std::vector<std::int64_t>& pinned) {
  for (const auto& layer : net.layers()) v = lower_layer(*layer, v, pinned);
  return v;
}

InferencePlan::Value InferencePlan::lower_layer(
    const Layer& layer, Value v, std::vector<std::int64_t>& pinned) {
  const Shape out_shape = layer.output_shape(v.shape);  // validates v.shape
  Op op;
  op.src = v.buf;
  op.numel = shape_numel(out_shape);
  switch (layer.kind()) {
    case LayerKind::Conv2D: {
      const auto& conv = static_cast<const Conv2D&>(layer);
      op.kind = OpKind::Conv;
      op.g = conv.geometry(v.shape[2], v.shape[3]);
      op.weight = conv.weight().raw();
      op.bias = conv.with_bias() ? conv.bias().raw() : nullptr;
      op.dst = alloc(op.numel);
      scratch_floats_ = std::max(scratch_floats_, op.g.scratch_floats());
      break;
    }
    case LayerKind::DepthwiseConv2D: {
      const auto& dw = static_cast<const DepthwiseConv2D&>(layer);
      op.kind = OpKind::Depthwise;
      op.g = dw.geometry(v.shape[2], v.shape[3]);
      op.weight = dw.weight().raw();
      op.bias = dw.with_bias() ? dw.bias().raw() : nullptr;
      op.dst = alloc(op.numel);
      break;
    }
    case LayerKind::Linear: {
      const auto& fc = static_cast<const Linear&>(layer);
      RRP_CHECK_MSG(v.shape.size() == 2, "Linear '" << fc.name()
                                                    << "' expects [N, F]");
      op.kind = OpKind::Linear;
      op.g.in_ch = fc.in_features();
      op.g.out_ch = fc.out_features();
      op.weight = fc.weight().raw();
      op.bias = fc.with_bias() ? fc.bias().raw() : nullptr;
      op.dst = alloc(op.numel);
      break;
    }
    case LayerKind::BatchNorm: {
      const auto& bn = static_cast<const BatchNorm&>(layer);
      RRP_CHECK_MSG(v.shape.size() == 4 || v.shape.size() == 2,
                    "BatchNorm '" << bn.name() << "' expects NCHW or NC");
      op.kind = OpKind::Affine;
      op.g.in_ch = bn.channels();
      op.aux = static_cast<std::int64_t>(affines_.size());
      for (int c = 0; c < bn.channels(); ++c)
        affines_.push_back(ops::batchnorm_affine(
            bn.gamma()[c], bn.beta()[c], bn.running_mean()[c],
            bn.running_var()[c], bn.eps()));
      op.dst = in_place_dst(v, pinned);
      break;
    }
    case LayerKind::ReLU:
      op.kind = OpKind::Relu;
      op.dst = in_place_dst(v, pinned);
      break;
    case LayerKind::Softmax:
      op.kind = OpKind::Softmax;
      op.g.in_ch = v.shape.back();  // row length
      op.dst = in_place_dst(v, pinned);
      break;
    case LayerKind::MaxPool:
    case LayerKind::AvgPool: {
      const bool max = layer.kind() == LayerKind::MaxPool;
      op.kind = max ? OpKind::MaxPool : OpKind::AvgPool;
      op.g.in_ch = v.shape[1];
      op.g.h = v.shape[2];
      op.g.w = v.shape[3];
      op.g.oh = out_shape[2];
      op.g.ow = out_shape[3];
      op.g.kernel = max ? static_cast<const MaxPool&>(layer).kernel()
                        : static_cast<const AvgPool&>(layer).kernel();
      op.g.stride = max ? static_cast<const MaxPool&>(layer).stride()
                        : static_cast<const AvgPool&>(layer).stride();
      op.dst = alloc(op.numel);
      break;
    }
    case LayerKind::GlobalAvgPool:
      op.kind = OpKind::GlobalAvgPool;
      op.g.in_ch = v.shape[1];
      op.g.h = v.shape[2];
      op.g.w = v.shape[3];
      op.dst = alloc(op.numel);
      break;
    case LayerKind::Flatten:
      return Value{v.buf, out_shape};  // alias: same bytes, new shape
    case LayerKind::Residual: {
      const auto& res = static_cast<const Residual&>(layer);
      pinned.push_back(v.buf);  // the skip must survive the body
      const Value body = lower(res.body(), v, pinned);
      pinned.pop_back();
      RRP_CHECK_MSG(body.shape == v.shape && body.buf != v.buf &&
                        body.buf != kInput,
                    "Residual '" << res.name() << "' body must produce a "
                                                  "fresh same-shape buffer");
      op.kind = OpKind::Add;
      op.src = body.buf;
      op.dst = body.buf;
      op.aux = v.buf;
      break;
    }
  }
  ops_.push_back(op);
  return Value{op.dst, out_shape};
}

std::int64_t InferencePlan::macs_for(const Shape& input_shape) const {
  RRP_CHECK_MSG(input_shape == in_shape_,
                "plan compiled for " << shape_str(in_shape_) << ", asked for "
                                     << shape_str(input_shape));
  return macs_;
}

// rrp-frame-path: the compiled ladder-level executor — every fast-path
// inference runs here (DESIGN.md invariant 14).
void InferencePlan::execute(const Tensor& x, Tensor& out) const {
  RRP_CHECK_MSG(is_batch_of(x, in_shape_) && &x != &out,
                "plan expects a batch of " << shape_str(in_shape_) << ", got "
                                           << shape_str(x.shape())
                                           << " (or an aliased output)");
  const int n = x.size(0);
  if (!is_batch_of(out, out_shape_) || out.size(0) != n) {
    Shape batched = out_shape_;
    batched[0] = n;
    // First call only: callers keep their output tensor, so its shape
    // matches on every later frame (tests/test_alloc_free.cpp).
    out = Tensor(std::move(batched));
  }
  float* arena = thread_arena(arena_floats_);
  for (int s = 0; s < n; ++s) {
    const float* in = x.raw() + static_cast<std::int64_t>(s) * in_numel_;
    for (const Op& op : ops_) run_op(op, in, arena);
    const float* result = out_buf_ == kInput ? in : arena + out_buf_;
    std::memcpy(out.raw() + static_cast<std::int64_t>(s) * out_numel_, result,
                sizeof(float) * static_cast<std::size_t>(out_numel_));
  }
}

void InferencePlan::run_op(const Op& op, const float* in,
                           float* arena) const {
  const float* src = op.src == kInput ? in : arena + op.src;
  float* dst = arena + op.dst;
  const ops::ConvGeometry& g = op.g;
  switch (op.kind) {
    case OpKind::Conv: {
      static metrics::Counter& calls = metrics::counter("conv.calls");
      calls.add(1);
      RRP_SPAN_VAR(span, "conv.forward");
      span.add_items(g.out_ch * g.col_rows() * g.col_cols());
      ops::conv2d(g, op.weight, op.bias, src, arena + op.aux, dst);
      break;
    }
    case OpKind::Depthwise: {
      static metrics::Counter& calls = metrics::counter("depthwise.calls");
      static metrics::Counter& flops = metrics::counter("depthwise.flops");
      const std::int64_t fma = op.numel * g.kernel * g.kernel;
      calls.add(1);
      flops.add(fma);
      RRP_SPAN_VAR(span, "depthwise.forward");
      span.add_items(fma);
      const std::int64_t in_plane = static_cast<std::int64_t>(g.h) * g.w;
      const std::int64_t kk = static_cast<std::int64_t>(g.kernel) * g.kernel;
      for (int c = 0; c < g.in_ch; ++c)
        ops::depthwise_plane(g, src + c * in_plane, op.weight + c * kk,
                             op.bias != nullptr ? op.bias[c] : 0.0f,
                             dst + c * g.col_cols());
      break;
    }
    case OpKind::Linear:
      ops::linear(1, g.in_ch, g.out_ch, op.weight, op.bias, src, dst);
      break;
    case OpKind::Affine: {
      const std::int64_t plane = op.numel / g.in_ch;
      for (int c = 0; c < g.in_ch; ++c)
        ops::affine_plane(src + c * plane, dst + c * plane, plane,
                          affines_[static_cast<std::size_t>(op.aux + c)]);
      break;
    }
    case OpKind::Relu:
      ops::relu(src, dst, op.numel);
      break;
    case OpKind::Softmax:
      if (dst != src)
        std::memcpy(dst, src,
                    sizeof(float) * static_cast<std::size_t>(op.numel));
      for (std::int64_t r = 0; r < op.numel / g.in_ch; ++r)
        ops::softmax_row(dst + r * g.in_ch, g.in_ch);
      break;
    case OpKind::MaxPool:
    case OpKind::AvgPool: {
      const std::int64_t in_plane = static_cast<std::int64_t>(g.h) * g.w;
      const std::int64_t out_plane = g.col_cols();
      for (int c = 0; c < g.in_ch; ++c) {
        if (op.kind == OpKind::MaxPool)
          ops::maxpool_plane(src + c * in_plane, g.w, g.kernel, g.stride, g.oh,
                             g.ow, dst + c * out_plane);
        else
          ops::avgpool_plane(src + c * in_plane, g.w, g.kernel, g.stride, g.oh,
                             g.ow, dst + c * out_plane);
      }
      break;
    }
    case OpKind::GlobalAvgPool: {
      const int plane = g.h * g.w;
      for (int c = 0; c < g.in_ch; ++c)
        dst[c] = ops::global_avg(src + static_cast<std::int64_t>(c) * plane,
                                 plane);
      break;
    }
    case OpKind::Add:
      ops::add(op.aux == kInput ? in : arena + op.aux, dst, op.numel);
      break;
  }
}

}  // namespace rrp::nn
