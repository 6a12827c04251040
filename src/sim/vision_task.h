// vision_task.h — the synthetic perception task.
//
// Substitution note (see DESIGN.md): stands in for the camera + CNN
// perception stack.  Each scene renders to a small grayscale frame with a
// class-specific stencil whose apparent size and contrast shrink with
// distance and degrade with visibility, plus sensor noise — so task
// difficulty is coupled to scene parameters exactly where it matters for
// the controller (pruned networks fail first on small/dim targets).
// Labels are exact (we generated the scene), so accuracy is measurable.
#pragma once

#include "nn/train.h"
#include "sim/scenario.h"

namespace rrp::sim {

struct VisionTaskConfig {
  int height = 16;
  int width = 16;
  double base_noise = 0.18;   ///< Gaussian sigma at perfect visibility
  double road_intensity = 0.15;
};

/// Ground-truth label of a scene: dominant actor's type, or kClearLabel.
int scene_label(const Scene& scene);

/// Renders one sensor frame [1, H, W] for the scene.
nn::Tensor render_scene(const Scene& scene, const VisionTaskConfig& config,
                        Rng& rng);

/// render_scene into a caller-owned tensor of H*W elements (any shape —
/// the frame loop passes its batch-1 input [1, 1, H, W]); every pixel is
/// overwritten and the RNG draws are the same.  Allocation-free once this
/// thread has rendered a scene with as many actors.
void render_scene_into(const Scene& scene, const VisionTaskConfig& config,
                       Rng& rng, nn::Tensor& img);

/// Batch-1 input shape for networks consuming this task.
nn::Shape input_shape(const VisionTaskConfig& config);

/// Uniformly samples scenes across classes / distances / visibilities and
/// renders a labelled dataset (used for training and validation).
nn::Dataset make_dataset(std::size_t n, const VisionTaskConfig& config,
                         Rng& rng);

/// Draws a random single-actor (or clear) scene like make_dataset does;
/// exposed so tests can probe the renderer's difficulty coupling.
Scene random_scene(const VisionTaskConfig& config, Rng& rng);

}  // namespace rrp::sim
