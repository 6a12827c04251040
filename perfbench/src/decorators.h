// decorators.h — tracing decorators around the frame-path interfaces.
//
// TimingPolicy wraps a core::Policy and TimingProvider wraps a
// core::InferenceProvider.  Both forward every call unchanged (a decorated
// run produces byte-identical telemetry, pinned by the benchmark's tests)
// and record wall times into a FrameTrace owned by the caller:
//
//   decide_us       Policy::decide
//   controller_us   from Policy::decide entry to InferenceProvider::
//                   set_level exit: the plan/screen/execute part of
//                   RuntimeController::step
//   render_us       from set_level exit to the next infer entry: the
//                   sensor render between control and inference
//   infer_us        InferenceProvider::infer (with the executing level)
//   restore_us / prune_us   set_level calls that lower / raise the level
#pragma once

#include <cstdint>
#include <vector>

#include "core/policies.h"
#include "core/reversible_pruner.h"
#include "stats.h"

namespace perfbench {

struct FrameTrace {
  std::vector<double> decide_us;
  std::vector<double> controller_us;
  std::vector<double> render_us;
  std::vector<double> infer_us;
  std::vector<int> infer_level;
  std::vector<double> restore_us;
  std::vector<double> prune_us;
  std::vector<double> restore_bytes;
  std::int64_t set_level_calls = 0;
  std::int64_t level_switches = 0;
  std::int64_t macs = 0;  ///< sum of active_macs() results

  // Open intervals (seconds; < 0 when closed).
  double decide_entry_s = -1.0;
  double set_level_exit_s = -1.0;
};

class TimingPolicy : public rrp::core::Policy {
 public:
  TimingPolicy(rrp::core::Policy& inner, FrameTrace& trace)
      : inner_(&inner), trace_(&trace) {}

  const std::string& name() const override { return inner_->name(); }
  int decide(const rrp::core::ControlInput& in, int current_level) override {
    const double t0 = now_s();
    const int level = inner_->decide(in, current_level);
    trace_->decide_us.push_back((now_s() - t0) * 1e6);
    trace_->decide_entry_s = t0;
    return level;
  }
  void reset() override { inner_->reset(); }

 private:
  rrp::core::Policy* inner_;
  FrameTrace* trace_;
};

class TimingProvider : public rrp::core::InferenceProvider {
 public:
  TimingProvider(rrp::core::InferenceProvider& inner, FrameTrace& trace)
      : inner_(&inner), trace_(&trace) {}

  const std::string& name() const override { return inner_->name(); }

  rrp::nn::Tensor infer(const rrp::nn::Tensor& x) override {
    const double t0 = now_s();
    if (trace_->set_level_exit_s >= 0.0) {
      trace_->render_us.push_back((t0 - trace_->set_level_exit_s) * 1e6);
      trace_->set_level_exit_s = -1.0;
    }
    rrp::nn::Tensor out = inner_->infer(x);
    trace_->infer_us.push_back((now_s() - t0) * 1e6);
    trace_->infer_level.push_back(inner_->current_level());
    return out;
  }

  rrp::core::TransitionStats set_level(int level) override {
    const double t0 = now_s();
    const rrp::core::TransitionStats st = inner_->set_level(level);
    const double t1 = now_s();
    ++trace_->set_level_calls;
    if (st.from_level != st.to_level) {
      ++trace_->level_switches;
      if (st.to_level < st.from_level) {
        trace_->restore_us.push_back((t1 - t0) * 1e6);
        trace_->restore_bytes.push_back(static_cast<double>(st.bytes_written));
      } else {
        trace_->prune_us.push_back((t1 - t0) * 1e6);
      }
    }
    if (trace_->decide_entry_s >= 0.0) {
      trace_->controller_us.push_back((t1 - trace_->decide_entry_s) * 1e6);
      trace_->decide_entry_s = -1.0;
    }
    trace_->set_level_exit_s = t1;
    return st;
  }

  int current_level() const override { return inner_->current_level(); }
  int level_count() const override { return inner_->level_count(); }
  std::int64_t active_macs(const rrp::nn::Shape& input_shape) override {
    const std::int64_t m = inner_->active_macs(input_shape);
    trace_->macs += m;
    return m;
  }
  std::int64_t resident_weight_bytes() override {
    return inner_->resident_weight_bytes();
  }

 private:
  rrp::core::InferenceProvider* inner_;
  FrameTrace* trace_;
};

}  // namespace perfbench
