#include "nn/layer.hpp"

#include "util/check.hpp"

namespace marsit {

void Layer::bind(std::span<float> params, std::span<float> grads) {
  MARSIT_CHECK(params.size() == param_count() &&
               grads.size() == param_count())
      << name() << " binds " << params.size() << " parameters and "
      << grads.size() << " gradients, needs " << param_count();
  params_ = params;
  grads_ = grads;
}

void Layer::check_bound() const {
  MARSIT_CHECK(params_.size() == param_count())
      << name() << " is not bound to parameter storage";
}

void Layer::init(Rng& rng) { (void)rng; }

}  // namespace marsit
