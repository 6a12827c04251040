// plan.h — an eval-mode Network lowered once into a flat, allocation-free
// op list over static shapes.
//
// The compacted ladder's networks are immutable after build and every
// frame has the same input shape, so everything Network::forward decides
// per call — output shapes, scratch sizes, BatchNorm affines, the MAC
// count — is decided once here.  Running the plan is a walk over a flat
// op array whose activations and conv scratch are fixed offsets into
// one per-thread arena: no Tensor per layer, no zero-fill, no scratch
// vector per conv, no Shape arithmetic.
//
// Lowering (one op per leaf layer):
//   Conv2D          -> ops::conv2d (stride 1: zero-pad + nn::conv_direct;
//                      strided: im2col + nn::gemm; then the bias)
//   DepthwiseConv2D -> ops::depthwise_plane per channel
//   Linear          -> ops::linear (nn::gemm_bt + bias)
//   BatchNorm       -> per-channel scale/shift epilogue, in place; the
//                      affines are ops::batchnorm_affine of the layer's
//                      eval statistics, computed at compile time (never
//                      folded into conv weights)
//   ReLU, Softmax   -> in place
//   Max/Avg/GlobalAvgPool -> their own ops
//   Flatten         -> an alias of its input (no op, no copy)
//   Residual        -> the body, with its input pinned as the skip
//                      buffer, then an identity add
//
// Bit-exactness: every op calls the same nn/op_kernels.h kernel the layer's
// forward calls, over the same per-sample data, so a plan's output is
// bitwise identical to Network::forward(x, false) — DESIGN.md invariant
// 13, checked by tests/test_fast_path.cpp.
//
// Scratch: the arena is per THREAD, not per plan or per caller — sized
// at compile on the compiling thread to the largest plan it has built,
// grown once on any other thread's first run — so N serving streams over
// one ladder share one arena per pool thread.  Weights are read through
// pointers into the source network, which must outlive the plan and stay
// unmodified (the BatchNorm affines are a compile-time snapshot).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/network.h"

namespace rrp::nn {

class InferencePlan {
 public:
  /// Lowers `net` for the batch-1 input shape `input_shape`.  Throws
  /// PreconditionError when a layer does not accept the shape flowing
  /// into it.
  InferencePlan(const Network& net, const Shape& input_shape);

  /// Runs x ([N, ...input_shape()[1:]]) one sample at a time and writes
  /// [N, ...output_shape()[1:]] into `out`.  `out` is reshaped only when
  /// its shape differs, so a caller that keeps its output tensor runs
  /// allocation-free from the second call on.
  void execute(const Tensor& x, Tensor& out) const;

  const Shape& output_shape() const { return out_shape_; }
  /// Dense MACs of one sample — Network::macs of the source network,
  /// cached at compile.  `input_shape` must be the plan's input shape.
  std::int64_t macs_for(const Shape& input_shape) const;
  std::size_t op_count() const { return ops_.size(); }

 private:
  enum class OpKind : std::uint8_t {
    Conv,
    Depthwise,
    Linear,
    Affine,
    Relu,
    Softmax,
    MaxPool,
    AvgPool,
    GlobalAvgPool,
    Add,
  };

  /// Buffers are arena offsets (floats); kInput is the caller's sample.
  static constexpr std::int64_t kInput = -1;

  struct Op {
    OpKind kind = OpKind::Relu;
    std::int64_t src = kInput;
    std::int64_t dst = 0;
    /// Conv: scratch offset (padded input or im2col).  Affine: first entry in affines_.
    /// Add: the skip buffer.
    std::int64_t aux = 0;
    std::int64_t numel = 0;  ///< elements of dst
    ops::ConvGeometry g;     ///< conv/pool geometry; g.in_ch = channels
    const float* weight = nullptr;
    const float* bias = nullptr;
  };

  /// A value flowing through the lowering: its buffer and batch-1 shape.
  struct Value {
    std::int64_t buf = kInput;
    Shape shape;
  };

  Value lower(const Network& net, Value v, std::vector<std::int64_t>& pinned);
  Value lower_layer(const Layer& layer, Value v,
                    std::vector<std::int64_t>& pinned);
  std::int64_t alloc(std::int64_t floats);
  /// Destination of an in-place op on `v`: v's own buffer unless it is
  /// the caller's input or a pinned residual skip.
  std::int64_t in_place_dst(const Value& v,
                            const std::vector<std::int64_t>& pinned);
  void run_op(const Op& op, const float* in, float* arena) const;

  std::vector<Op> ops_;
  std::vector<ops::Affine> affines_;
  Shape in_shape_, out_shape_;
  std::int64_t in_numel_ = 0, out_numel_ = 0;
  std::int64_t out_buf_ = kInput;
  std::int64_t act_floats_ = 0;  ///< bump cursor over activations
  std::int64_t scratch_floats_ = 0;  ///< largest conv scratch
  std::int64_t arena_floats_ = 0;
  std::int64_t macs_ = 0;
};

}  // namespace rrp::nn
