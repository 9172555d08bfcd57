#include "nn/sequential.hpp"

#include <sstream>

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit {

void Sequential::add(std::unique_ptr<Layer> layer) {
  MARSIT_CHECK(layer != nullptr) << "null layer";
  if (!layers_.empty()) {
    MARSIT_CHECK(layer->in_size() == layers_.back()->out_size())
        << "layer " << layer->name() << " expects " << layer->in_size()
        << " inputs but previous layer " << layers_.back()->name()
        << " produces " << layers_.back()->out_size();
  }
  layers_.push_back(std::move(layer));
  activations_.emplace_back();
}

std::size_t Sequential::in_size() const {
  MARSIT_CHECK(!layers_.empty()) << "empty model";
  return layers_.front()->in_size();
}

std::size_t Sequential::out_size() const {
  MARSIT_CHECK(!layers_.empty()) << "empty model";
  return layers_.back()->out_size();
}

std::vector<Layer*> Sequential::leaves() const {
  std::vector<Layer*> result;
  for (const auto& layer : layers_) {
    if (auto* composite = dynamic_cast<CompositeLayer*>(layer.get())) {
      composite->collect_leaves(result);
    } else {
      result.push_back(layer.get());
    }
  }
  return result;
}

std::size_t Sequential::param_count() const {
  std::size_t total = 0;
  for (Layer* layer : leaves()) {
    total += layer->param_count();
  }
  return total;
}

void Sequential::init(Rng& rng) {
  for (Layer* layer : leaves()) {
    layer->init(rng);
  }
}

std::span<const float> Sequential::forward(std::span<const float> x,
                                           std::size_t batch) {
  MARSIT_CHECK(!layers_.empty()) << "forward through empty model";
  MARSIT_CHECK(x.size() == batch * in_size()) << "forward: input extent";
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

void Sequential::backward(std::span<const float> dy, std::size_t batch) {
  MARSIT_CHECK(batch == last_batch_ && batch > 0)
      << "backward batch " << batch << " without matching forward";
  MARSIT_CHECK(dy.size() == batch * out_size()) << "backward: dy extent";

  // Two ping-pong scratch buffers sized to the largest interface.  Nothing
  // reads the model input's gradient, so the first layer gets an empty dx.
  std::size_t max_elems = 0;
  for (const auto& layer : layers_) {
    max_elems = std::max(max_elems, batch * layer->out_size());
  }
  Tensor a(max_elems);
  Tensor b(max_elems);

  std::span<const float> current = dy;
  Tensor* next = &a;
  Tensor* spare = &b;
  for (std::size_t i = layers_.size(); i > 0; --i) {
    Layer& layer = *layers_[i - 1];
    auto dx = i == 1 ? std::span<float>{}
                     : next->span().subspan(0, batch * layer.in_size());
    layer.backward(current, batch, dx);
    current = dx;
    std::swap(next, spare);
  }
}

void Sequential::zero_grads() {
  for (Layer* layer : leaves()) {
    layer->zero_grads();
  }
}

void Sequential::copy_grads_into(std::span<float> out) const {
  MARSIT_CHECK(out.size() == param_count()) << "grad buffer extent";
  std::size_t offset = 0;
  for (Layer* layer : leaves()) {
    auto g = layer->grads();
    copy_into(g, out.subspan(offset, g.size()));
    offset += g.size();
  }
}

void Sequential::copy_params_into(std::span<float> out) const {
  MARSIT_CHECK(out.size() == param_count()) << "param buffer extent";
  std::size_t offset = 0;
  for (Layer* layer : leaves()) {
    auto p = layer->params();
    copy_into(p, out.subspan(offset, p.size()));
    offset += p.size();
  }
}

void Sequential::load_params(std::span<const float> params) {
  MARSIT_CHECK(params.size() == param_count()) << "param buffer extent";
  std::size_t offset = 0;
  for (Layer* layer : leaves()) {
    auto p = layer->params();
    copy_into(params.subspan(offset, p.size()), p);
    offset += p.size();
  }
}

void Sequential::apply_update(std::span<const float> delta) {
  MARSIT_CHECK(delta.size() == param_count()) << "update extent";
  std::size_t offset = 0;
  for (Layer* layer : leaves()) {
    auto p = layer->params();
    axpy(-1.0f, delta.subspan(offset, p.size()), p);
    offset += p.size();
  }
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
  for (Layer* layer : leaves()) {
    macs += layer->forward_macs_per_sample();
  }
  return 6.0 * macs;
}

}  // namespace marsit
