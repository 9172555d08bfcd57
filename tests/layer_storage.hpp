// Test-owned parameter and gradient storage for a layer driven outside a
// Sequential.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace marsit {

/// Zeroed parameters and gradients, bound to `layer` on construction; the
/// storage must outlive the layer's use.
struct LayerStorage {
  explicit LayerStorage(Layer& layer)
      : params(layer.param_count()), grads(layer.param_count()) {
    layer.bind(params, grads);
  }

  std::vector<float> params;
  std::vector<float> grads;
};

}  // namespace marsit
