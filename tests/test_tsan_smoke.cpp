// TSan/ASan smoke suite (ctest -L tsan) — a fast pass over every code path
// that fans work out on the thread pool: raw pool mechanics, the parallel
// GEMM kernels, clone-based batched evaluation, concurrent ladder views,
// and multi-model zoo provisioning.  Build with -DRRP_SANITIZE=thread (or address) and run
// `ctest -L tsan`; any data race in the execution layer surfaces here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/reversible_pruner.h"
#include "models/trained_cache.h"
#include "nn/gemm.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace rrp {
namespace {

TEST(TsanSmoke, PoolStress) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(0, 257, 3, [&](std::int64_t b, std::int64_t e) {
      std::int64_t local = 0;
      for (std::int64_t i = b; i < e; ++i) local += i;
      sum += local;
    });
    ASSERT_EQ(sum.load(), 257 * 256 / 2);
  }
}

TEST(TsanSmoke, ParallelGemm) {
  ThreadCountGuard guard(4);
  const int m = 96, n = 64, k = 80;
  Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  for (float& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (int round = 0; round < 10; ++round)
    nn::gemm(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(), n);
  SUCCEED();
}

TEST(TsanSmoke, ParallelEvaluation) {
  ThreadCountGuard guard(4);
  const nn::Dataset data = rrp::testing::tiny_dataset(64, 3);
  nn::Network net = rrp::testing::tiny_bn_net(4);
  // Small batches force several clone-based chunks per evaluation.
  for (int round = 0; round < 5; ++round)
    nn::evaluate_accuracy(net, data, /*batch_size=*/8);
  SUCCEED();
}

TEST(TsanSmoke, ConcurrentLadderViews) {
  ThreadCountGuard guard(4);
  // Serving streams infer through views of one shared ladder at once; the
  // plans are shared and the scratch arena is per thread.
  nn::Network net = rrp::testing::tiny_bn_net(5);
  core::CompactedLadderProvider shared(
      net,
      prune::PruneLevelLibrary::build_structured(
          net, {0.0, 0.4, 0.7}, rrp::testing::tiny_input_shape()),
      rrp::testing::tiny_input_shape());
  const nn::Tensor x =
      rrp::testing::random_tensor(rrp::testing::tiny_input_shape(), 6);
  std::vector<nn::Tensor> out(16);
  for (int round = 0; round < 5; ++round) {
    parallel_for(0, 16, 1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        core::CompactedLadderView view(shared, static_cast<int>(i % 3));
        view.infer_into(x, out[static_cast<std::size_t>(i)]);
      }
    });
  }
  for (std::size_t i = 3; i < out.size(); ++i)
    EXPECT_TRUE(out[i].equals(out[i % 3])) << i;
}

TEST(TsanSmoke, ParallelProvisioning) {
  ThreadCountGuard guard(4);
  // Two models provisioned concurrently with a deliberately tiny recipe;
  // a scratch cache dir keeps this hermetic and forces the train path.
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() / "rrp_tsan_cache").string();
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);

  models::TrainRecipe train_recipe;
  train_recipe.train_samples = 96;
  train_recipe.eval_samples = 32;
  train_recipe.epochs = 1;
  models::LevelRecipe level_recipe;
  level_recipe.ratios = {0.0, 0.5};
  level_recipe.co_train_epochs = 1;

  const std::vector<models::ModelKind> kinds = {models::ModelKind::Mlp,
                                                models::ModelKind::LeNet};
  const auto provisioned = models::get_provisioned_all(
      kinds, train_recipe, level_recipe, cache_dir);
  ASSERT_EQ(provisioned.size(), kinds.size());
  for (const auto& pm : provisioned) {
    EXPECT_EQ(pm.levels.level_count(), 2);
    EXPECT_EQ(pm.level_accuracy.size(), 2u);
  }
  std::filesystem::remove_all(cache_dir);
}

}  // namespace
}  // namespace rrp
