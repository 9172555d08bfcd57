#include "nn/sequential.hpp"

#include <sstream>

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit {

Sequential::Sequential(std::vector<std::unique_ptr<Layer>> layers)
    : layers_(std::move(layers)), activations_(layers_.size()) {
  MARSIT_CHECK(!layers_.empty()) << "empty model";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer* layer = layers_[i].get();
    MARSIT_CHECK(layer != nullptr) << "null layer";
    MARSIT_CHECK(i == 0 || layer->in_size() == layers_[i - 1]->out_size())
        << "layer " << layer->name() << " expects " << layer->in_size()
        << " inputs but previous layer " << layers_[i - 1]->name()
        << " produces " << layers_[i - 1]->out_size();
    param_count_ += layer->param_count();
  }
  grads_ = Tensor(param_count_);
}

std::size_t Sequential::in_size() const { return layers_.front()->in_size(); }

std::size_t Sequential::out_size() const { return layers_.back()->out_size(); }

void Sequential::bind_storage() {
  if (params_.size() != param_count_) {
    own_params_ = Tensor(param_count_);
    bind_params(own_params_.span());
  }
}

void Sequential::bind_params(std::span<float> params) {
  MARSIT_CHECK(params.size() == param_count_)
      << "binding " << params.size() << " parameters to a model of "
      << param_count_;
  params_ = params;
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    const std::size_t count = layer->param_count();
    layer->bind(params.subspan(offset, count),
                grads_.span().subspan(offset, count));
    offset += count;
  }
}

std::span<float> Sequential::params() {
  bind_storage();
  return params_;
}

void Sequential::init(Rng& rng) {
  bind_storage();
  for (const auto& layer : layers_) {
    layer->init(rng);
  }
}

std::span<const float> Sequential::forward(std::span<const float> x,
                                           std::size_t batch) {
  MARSIT_CHECK(x.size() == batch * in_size()) << "forward: input extent";
  bind_storage();
  last_batch_ = batch;
  std::span<const float> current = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const std::size_t out_elems = batch * layers_[i]->out_size();
    if (activations_[i].size() != out_elems) {
      activations_[i] = Tensor(out_elems);
    }
    layers_[i]->forward(current, batch, activations_[i].span());
    current = activations_[i].span();
  }
  return current;
}

void Sequential::backward(std::span<const float> dy, std::size_t batch,
                          float grad_scale, const GradientSink& sink) {
  MARSIT_CHECK(batch == last_batch_ && batch > 0)
      << "backward batch " << batch << " without matching forward";
  MARSIT_CHECK(dy.size() == batch * out_size()) << "backward: dy extent";

  // Two ping-pong buffers sized to the largest interface, kept across
  // calls: every layer writes all of its dx.  Nothing reads the model
  // input's gradient, so the first layer gets an empty dx.
  std::size_t max_elems = 0;
  for (const auto& layer : layers_) {
    max_elems = std::max(max_elems, batch * layer->out_size());
  }
  for (Tensor& scratch : dx_scratch_) {
    if (scratch.size() != max_elems) {
      scratch = Tensor(max_elems);
    }
  }

  std::span<const float> current = dy;
  Tensor* next = &dx_scratch_[0];
  Tensor* spare = &dx_scratch_[1];
  std::size_t offset = param_count_;  // the layer's first parameter
  for (std::size_t i = layers_.size(); i > 0; --i) {
    Layer& layer = *layers_[i - 1];
    offset -= layer.param_count();
    auto dx = i == 1 ? std::span<float>{}
                     : next->span().subspan(0, batch * layer.in_size());
    if (sink) {
      layer.backward_to_sink(
          current, batch, dx, grad_scale,
          [&sink, offset](std::size_t begin, std::span<const float> grads) {
            sink(offset + begin, grads);
          });
    } else {
      layer.backward(current, batch, dx, grad_scale);
    }
    current = dx;
    std::swap(next, spare);
  }
}

void Sequential::zero_grads() { grads_.zero(); }

void Sequential::apply_update(std::span<const float> delta) {
  axpy(-1.0f, delta, params());
}

std::string Sequential::describe() const {
  std::ostringstream out;
  out << "Sequential(" << param_count() << " params)\n";
  for (const auto& layer : layers_) {
    out << "  " << layer->name() << "  [" << layer->in_size() << " -> "
        << layer->out_size() << "]";
    if (layer->param_count() > 0) {
      out << "  " << layer->param_count() << " params";
    }
    out << '\n';
  }
  return out.str();
}

double Sequential::flops_per_sample() const {
  // Forward MACs are exact per layer; backward ≈ 2× forward (input grads +
  // weight grads); 2 flops per MAC.
  double macs = 0.0;
  for (const auto& layer : layers_) {
    macs += layer->forward_macs_per_sample();
  }
  return 6.0 * macs;
}

}  // namespace marsit
