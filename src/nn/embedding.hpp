// Token embedding and sequence mean-pooling — the text-classification
// substrate standing in for DistilBERT on IMDb (DESIGN.md §2).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace marsit {

/// Embedding lookup.  Input: seq_len token ids carried as floats (each value
/// must be an integer in [0, vocab)); output: seq_len × dim embeddings.
class Embedding final : public Layer {
 public:
  Embedding(std::size_t vocab_size, std::size_t dim, std::size_t seq_len);

  std::string name() const override;
  std::size_t in_size() const override { return seq_len_; }
  std::size_t out_size() const override { return seq_len_ * dim_; }

  void forward(std::span<const float> x, std::size_t batch,
               std::span<float> y) override;
  /// dx is zero (token ids are not differentiable); the table gradient is
  /// zeroed, each token's dy row is added to its id's row, and the finished
  /// table is scaled by grad_scale.
  void backward(std::span<const float> dy, std::size_t batch,
                std::span<float> dx, float grad_scale = 1.0f) override;

  /// The vocab × dim table.
  std::size_t param_count() const override { return vocab_ * dim_; }

  void init(Rng& rng) override;

  double forward_macs_per_sample() const override {
    // Table lookups: one copy of `dim` floats per token.
    return static_cast<double>(seq_len_) * static_cast<double>(dim_);
  }

 private:
  std::size_t vocab_;
  std::size_t dim_;
  std::size_t seq_len_;
  std::vector<std::size_t> cached_ids_;
};

/// Mean over the sequence axis: (seq_len, dim) → (dim).
class MeanPool final : public Layer {
 public:
  MeanPool(std::size_t seq_len, std::size_t dim);

  std::string name() const override { return "MeanPool"; }
  std::size_t in_size() const override { return seq_len_ * dim_; }
  std::size_t out_size() const override { return dim_; }

  void forward(std::span<const float> x, std::size_t batch,
               std::span<float> y) override;
  void backward(std::span<const float> dy, std::size_t batch,
                std::span<float> dx, float grad_scale = 1.0f) override;

 private:
  std::size_t seq_len_;
  std::size_t dim_;
};

}  // namespace marsit
