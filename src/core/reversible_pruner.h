// reversible_pruner.h — the paper's primary contribution.
//
// Two reversible execution providers over one nested level ladder:
//
//  * ReversiblePruner (masked mode) — one resident network; switching level
//    k→k′ touches exactly the elements whose keep flag differs between the
//    two nested masks: zero them (prune) or copy them back from the
//    WeightStore (restore).  Restore is "back to the future": O(Δ) memcpy,
//    no disk, no retraining, bit-exact.
//
//  * CompactedLadderProvider (fast path) — pre-built physically-shrunk
//    networks per level, each compiled into an allocation-free
//    nn::InferencePlan; switching is an index swap (O(1)) and inference
//    actually gets faster.  A masked ReversiblePruner rides along as the
//    golden arm; CompactedLadderView gives each serving stream its own
//    level over one shared ladder.
//
// All implement InferenceProvider so the runtime controller, baselines and
// the scenario runner are interchangeable over them.
#pragma once

#include "core/bn_calibration.h"
#include "core/weight_store.h"
#include "nn/plan.h"
#include "prune/compact.h"
#include "prune/levels.h"

namespace rrp::core {

/// Cost accounting for one level transition.
struct TransitionStats {
  int from_level = 0;
  int to_level = 0;
  bool is_restore = false;          ///< true when moving to a lower level
  std::int64_t elements_changed = 0;
  std::int64_t bytes_written = 0;
  double wall_us = 0.0;
  /// Reload baseline only: failed artifact-read attempts absorbed by the
  /// bounded retry loop, and the modeled backoff delay they cost.
  int read_retries = 0;
  double backoff_us = 0.0;
};

/// Uniform interface over every way of executing the network at a level.
class InferenceProvider {
 public:
  virtual ~InferenceProvider() = default;

  virtual const std::string& name() const = 0;
  virtual nn::Tensor infer(const nn::Tensor& x) = 0;
  /// Writes infer(x) into `logits`.  The default forwards to infer(), so a
  /// wrapper that overrides only infer() still sees every call; the
  /// compacted ladder overrides it to run its plan straight into the
  /// caller's tensor, allocation-free once `logits` has its shape.
  virtual void infer_into(const nn::Tensor& x, nn::Tensor& logits) {
    logits = infer(x);
  }
  virtual TransitionStats set_level(int level) = 0;
  virtual int current_level() const = 0;
  virtual int level_count() const = 0;
  /// MACs one inference at the CURRENT level executes for a batch-1 input.
  virtual std::int64_t active_macs(const nn::Shape& input_shape) = 0;
  /// Resident weight memory in bytes (for the overhead experiment).
  virtual std::int64_t resident_weight_bytes() = 0;
};

/// Masked-mode reversible pruning over a single resident network.
class ReversiblePruner : public InferenceProvider {
 public:
  /// Snapshots `net`'s weights as golden and starts at level 0.
  /// The library must have been built for this network.
  ReversiblePruner(nn::Network& net, prune::PruneLevelLibrary levels);

  /// Leaves the network exactly as found: restores level 0 (golden
  /// weights and, when installed, the dense BatchNorm statistics), so a
  /// later provider built from the same network sees clean weights.
  ~ReversiblePruner() override;

  ReversiblePruner(ReversiblePruner&& other) noexcept;
  ReversiblePruner& operator=(ReversiblePruner&&) = delete;

  const std::string& name() const override { return name_; }
  nn::Tensor infer(const nn::Tensor& x) override;
  TransitionStats set_level(int level) override;
  int current_level() const override { return current_level_; }
  int level_count() const override { return levels_.level_count(); }
  std::int64_t active_macs(const nn::Shape& input_shape) override;
  std::int64_t resident_weight_bytes() override;

  /// Convenience: full restore ("back to the future").
  TransitionStats restore_full() { return set_level(0); }

  /// Installs per-level BatchNorm statistics (switchable BN). Must contain
  /// exactly level_count() states; entry k is applied whenever level k is
  /// entered (including retroactively for the current level).
  void set_bn_states(std::vector<BnState> states);
  bool has_bn_states() const { return !bn_states_.empty(); }

  nn::Network& network() { return *net_; }
  const WeightStore& store() const { return store_; }
  /// FAULT-INJECTION BACKDOOR: mutable store access so sim/faults.h can
  /// simulate SEUs in the golden copy's memory (WeightStore::flip_bit).
  /// Never used by runtime control paths.
  WeightStore& mutable_store() { return store_; }
  const prune::PruneLevelLibrary& levels() const { return levels_; }
  /// The last kHistoryCapacity transitions.  Below capacity this is
  /// append-ordered; once full it becomes a ring and the oldest slot
  /// (at index history_ring_next()) is overwritten first, so the frame
  /// path never reallocates (R6, DESIGN.md invariant 14).
  const std::vector<TransitionStats>& history() const { return history_; }
  std::size_t history_ring_next() const { return history_next_; }
  static constexpr std::size_t kHistoryCapacity = 256;

  /// Bytes spent on the precomputed delta index lists (overhead report).
  std::int64_t delta_index_bytes() const;

 private:
  /// Elements newly pruned at level k (vs k-1) of one parameter: the unit
  /// of O(Δ) switching. Nesting guarantees these deltas partition the
  /// ever-pruned set, so any k->k' walk applies each element once.
  struct ParamDelta {
    nn::Tensor* value = nullptr;
    const nn::Tensor* golden = nullptr;
    std::vector<std::uint32_t> indices;
  };

  void build_deltas();

  std::string name_ = "reversible-masked";
  nn::Network* net_;
  WeightStore store_;
  prune::PruneLevelLibrary levels_;
  std::vector<std::vector<ParamDelta>> deltas_;  // [level] -> param deltas
  std::vector<BnState> bn_states_;
  int current_level_ = 0;
  std::vector<TransitionStats> history_;  // bounded ring, see history()
  std::size_t history_next_ = 0;          // overwrite cursor once full
};

/// The sparsity-realizing fast path: a provisioned compacted-network
/// ladder for the frame path PLUS a masked golden arm for safety.
///
/// At construction the full ladder is materialized once (one
/// compact_network clone per level, that level's calibrated BN statistics
/// baked in), each level is compiled into an nn::InferencePlan, and a
/// ReversiblePruner is set up over the golden weights.  After that:
///
///  * infer()/infer_into() run the ACTIVE level's plan — physically
///    smaller tensors, no allocation, no per-layer Tensor — so pruning
///    buys real cycles, not just modeled ones; the output is bitwise
///    network_at(level).forward (DESIGN.md invariant 13);
///  * set_level() swaps an index — O(1), no rebuild, no weight copy, no
///    allocation on the frame path (prune.ladder_rebuilds stays flat and
///    parameter storage addresses are stable; see test_fast_path.cpp);
///  * the masked golden arm keeps the paper's prune→restore bit-exactness
///    and gives the integrity scrub its golden ⊙ mask reference.  It LAGS
///    the active level and is aligned by sync_masked() — an O(Δ) delta
///    walk that runs on the scrub cadence (or before restore), never per
///    frame.
///
/// Numerically the compacted ladder matches the masked network to the
/// tolerance of DESIGN.md invariant 13 (exact for Linear/Conv gathers; BN
/// folding of pruned channels reorders no surviving arithmetic).  The
/// ladder networks and their plans are immutable after construction.
class CompactedLadderProvider : public InferenceProvider {
 public:
  /// Snapshots `net` (level-0 golden) and materializes the ladder.
  /// `bn_states`, when present, must hold one state per level; each
  /// level's compacted clone bakes its own statistics in and the masked
  /// arm gets switchable BN as usual.
  CompactedLadderProvider(nn::Network& net, prune::PruneLevelLibrary levels,
                          const nn::Shape& input_shape,
                          std::vector<BnState> bn_states = {});

  const std::string& name() const override { return name_; }
  nn::Tensor infer(const nn::Tensor& x) override;
  void infer_into(const nn::Tensor& x, nn::Tensor& logits) override;
  /// O(1): swaps the active-network index.  TransitionStats reports zero
  /// elements/bytes — the modeled switch cost is the platform's fixed
  /// overhead only — and the masked arm is deliberately NOT walked here.
  TransitionStats set_level(int level) override;
  int current_level() const override { return current_level_; }
  int level_count() const override {
    return static_cast<int>(ladder_.size());
  }
  /// O(1): the dense MACs cached in the active level's plan.
  std::int64_t active_macs(const nn::Shape& input_shape) override;
  std::int64_t resident_weight_bytes() override;

  /// Aligns the masked golden arm to current_level() with the usual O(Δ)
  /// delta walk.  Runs on the scrub cadence inside the mission loop, so
  /// it carries the same real-time certification as set_level.
  // rrp-frame-path: scrub-cadence alignment of the masked golden arm.
  TransitionStats sync_masked() { return masked_.set_level(current_level_); }

  /// The masked golden arm (scrub target, fault-injection backdoor,
  /// "back to the future" restore).
  ReversiblePruner& masked() { return masked_; }
  const ReversiblePruner& masked() const { return masked_; }

  nn::Network& network_at(int level);
  /// The compiled plan of `level` (shared by every view).
  const nn::InferencePlan& plan_at(int level) const;

 private:
  std::string name_ = "reversible-fastpath";
  ReversiblePruner masked_;
  std::vector<nn::Network> ladder_;
  std::vector<nn::InferencePlan> plans_;  // plans_[k] runs ladder_[k]
  int current_level_ = 0;
};

/// A per-stream view over one shared CompactedLadderProvider.
///
/// The serving engine (src/serve) runs N concurrent perception streams
/// against ONE resident compacted ladder: the ladder's plans are immutable
/// after construction and keep their scratch in a per-thread arena, so any
/// number of views may infer concurrently — including two views at the
/// same level over the very same plan.  Each view carries its OWN level
/// index and no scratch of its own (a view is an index, not a buffer), so a
/// stream's set_level is invisible to every other stream (the aliasing
/// property pinned in test_fast_path.cpp): the swap touches only the view.
///
/// The shared provider's current_level() and masked golden arm are NOT
/// consulted or moved by views; integrity scrubbing of the shared weights
/// remains the owner's job.
class CompactedLadderView : public InferenceProvider {
 public:
  explicit CompactedLadderView(CompactedLadderProvider& shared, int level = 0);

  const std::string& name() const override { return name_; }
  nn::Tensor infer(const nn::Tensor& x) override;
  void infer_into(const nn::Tensor& x, nn::Tensor& logits) override;
  /// O(1): swaps this view's level index only.  Safe from pool chunk
  /// bodies — no shared state is written.
  TransitionStats set_level(int level) override;
  int current_level() const override { return level_; }
  /// Cached at construction (the shared ladder is immutable after build),
  /// so the frame path never chains through the shared provider.
  int level_count() const override { return level_count_; }
  std::int64_t active_macs(const nn::Shape& input_shape) override;
  /// Marginal resident cost of a view is ~0; reports the SHARED ladder's
  /// footprint (each stream does not pay for its own copy — that is the
  /// point).
  std::int64_t resident_weight_bytes() override;

  CompactedLadderProvider& shared() { return *shared_; }
  const nn::Network& active_network() const;

 private:
  std::string name_ = "reversible-fastpath-view";
  CompactedLadderProvider* shared_;
  int level_ = 0;
  int level_count_ = 0;
};

}  // namespace rrp::core
