// test_alloc_free.cpp — `ctest -L perf`: the runtime half of DESIGN.md
// invariant 14 (real-time-safe frame path).
//
// rrp_lint proves statically that no allocation is REACHABLE from the
// frame-path roots, but the analyzer cannot see constructors and
// declarations (DESIGN.md §7).  This binary closes that blind spot at
// runtime: it replaces the global operator new with a counting one and
// asserts that a steady-state fast-path inference, level swap and MAC
// query allocate NOTHING — on a view and on the provider, at every level
// of a lenet-shaped and a detnet-shaped ladder, with the pool inline
// (RRP_THREADS=1) and fanned out (2), and that parallel_for takes its
// chunk body by reference (no std::function heap).  It also measures the
// mean allocations of one FrameEngine::step over a view and pins it as a
// ceiling, so a per-frame allocation creeping back into the frame loop
// fails here by name.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/controller.h"
#include "core/policies.h"
#include "core/reversible_pruner.h"
#include "core/safety_monitor.h"
#include "models/zoo.h"
#include "prune/levels.h"
#include "sim/frame_engine.h"
#include "sim/suites.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace rrp {
namespace {

/// Heap allocations made (by any thread) while `body` runs.
template <typename F>
std::int64_t allocations_during(F&& body) {
  const std::int64_t before = g_allocations.load();
  body();
  return g_allocations.load() - before;
}

/// Mean allocations of one FrameEngine::step over a view, measured on a
/// lenet ladder after a short warm-up (see FrameStepOverAView): 0.007,
/// i.e. the 7 regrowths of the per-stream telemetry record vector over
/// 1000 frames.  Any per-frame allocation (1.0 and up) fails the ceiling.
constexpr double kStepAllocCeiling = 0.01;

const std::vector<double> kRatios{0.0, 0.3, 0.5, 0.7, 0.85};

nn::Tensor random_input(const nn::Shape& shape, std::uint64_t seed) {
  nn::Tensor x(shape);
  Rng rng(seed);
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(0.0, 1.0));
  return x;
}

class AllocFree : public ::testing::TestWithParam<models::ModelKind> {};

TEST_P(AllocFree, SteadyStateFastPathAllocatesNothing) {
  Rng rng(4242);
  nn::Network net = models::build_model(GetParam(), rng);
  const nn::Shape in = models::zoo_input_shape();
  core::CompactedLadderProvider ladder(
      net, prune::PruneLevelLibrary::build_structured(net, kRatios, in), in);
  core::CompactedLadderView view(ladder);
  const nn::Tensor x = random_input(in, 7);

  for (int threads : {1, 2}) {
    ThreadCountGuard guard(threads);
    nn::Tensor view_logits, ladder_logits;
    // Warm-up walk: shapes the callers' logits and registers the swap
    // counter (one-time static init) before anything is counted.
    for (int k = ladder.level_count() - 1; k >= 0; --k) {
      view.set_level(k);
      view.infer_into(x, view_logits);
      ladder.set_level(k);
      ladder.infer_into(x, ladder_logits);
    }
    for (int k = 0; k < ladder.level_count(); ++k) {
      std::int64_t macs = 0;
      const std::int64_t n = allocations_during([&] {
        for (int rep = 0; rep < 10; ++rep) {
          view.set_level(k);
          view.infer_into(x, view_logits);
          macs += view.active_macs(in);
          ladder.set_level(k);
          ladder.infer_into(x, ladder_logits);
          macs += ladder.active_macs(in);
        }
      });
      EXPECT_EQ(n, 0) << models::model_kind_name(GetParam()) << " level "
                      << k << " threads " << threads;
      EXPECT_EQ(macs, 20 * ladder.network_at(k).macs(in));
      EXPECT_TRUE(view_logits.equals(ladder_logits));
    }
    // A random level walk is just as quiet.
    Rng walk(threads);
    const std::int64_t n = allocations_during([&] {
      for (int s = 0; s < 40; ++s) {
        view.set_level(walk.uniform_int(0, ladder.level_count() - 1));
        view.infer_into(x, view_logits);
      }
    });
    EXPECT_EQ(n, 0) << "level walk, threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Ladders, AllocFree,
                         ::testing::Values(models::ModelKind::LeNet,
                                           models::ModelKind::DetNet),
                         [](const auto& info) {
                           return std::string(
                               models::model_kind_name(info.param));
                         });

TEST(AllocFreeStep, ParallelForTakesItsBodyByReference) {
  // A capture list well past std::function's small-buffer size.
  std::int64_t a = 0, b = 0, c = 0, d = 0, e = 0;
  std::vector<std::int64_t> hits(64, 0);
  for (int threads : {1, 2}) {
    ThreadCountGuard guard(threads);
    parallel_for(0, 1, 1, [](std::int64_t, std::int64_t) {});  // warm
    const std::int64_t n = allocations_during([&] {
      parallel_for(0, 64, 4, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          hits[static_cast<std::size_t>(i)] += 1 + a + b + c + d + e;
      });
    });
    EXPECT_EQ(n, 0) << "threads " << threads;
  }
  for (std::int64_t h : hits) EXPECT_EQ(h, 2);
}

TEST(AllocFreeStep, FrameStepOverAView) {
  ThreadCountGuard guard(1);
  Rng rng(99);
  nn::Network net = models::build_model(models::ModelKind::LeNet, rng);
  const nn::Shape in = models::zoo_input_shape();
  core::CompactedLadderProvider ladder(
      net, prune::PruneLevelLibrary::build_structured(net, kRatios, in), in);
  core::CompactedLadderView view(ladder);

  core::SafetyConfig certified;
  certified.max_level_for = {4, 3, 1, 0};
  core::CriticalityGreedyPolicy policy(certified, 6, view.level_count());
  core::SafetyMonitor monitor(certified);
  core::RuntimeController controller(policy, view, &monitor);

  constexpr int kWarmup = 20, kFrames = 1000;
  const sim::Scenario scenario = sim::make_cut_in(kWarmup + kFrames, 5);
  const sim::RunConfig config;
  const sim::FrameEngine engine(config);
  sim::StreamState stream = engine.make_stream(scenario, controller);
  for (int f = 0; f < kWarmup; ++f) engine.step(stream);
  const std::int64_t n = allocations_during([&] {
    for (int f = 0; f < kFrames; ++f) engine.step(stream);
  });
  const double per_step = static_cast<double>(n) / kFrames;
  RecordProperty("allocations_per_step", std::to_string(per_step));
  EXPECT_LE(per_step, kStepAllocCeiling)
      << n << " allocations over " << kFrames << " steps";
  EXPECT_TRUE(stream.done());
}

}  // namespace
}  // namespace rrp
