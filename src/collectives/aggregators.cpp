#include "collectives/aggregators.hpp"

#include <algorithm>
#include <cmath>

#include "compress/sign_codec.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit {

namespace {

void check_inputs(const WorkerSpans& inputs, std::size_t out_size) {
  MARSIT_CHECK(!inputs.empty()) << "aggregate over zero workers";
  for (const auto& in : inputs) {
    MARSIT_CHECK(in.size() == out_size)
        << "worker extent " << in.size() << " vs output " << out_size;
  }
}

}  // namespace

void aggregate_mean(const WorkerSpans& inputs, std::span<float> out) {
  check_inputs(inputs, out.size());
  // One pass over `out` in L1-sized blocks.  Each element sees the same
  // float operations in the same order as zero, one axpy(1, row) per row
  // in rank order, then a scale by 1/M, so the mean is bit-identical to
  // that sequence; only the memory traffic shrinks, from 2M + 3 passes
  // over D to M + 1.
  constexpr std::size_t kBlock = 2048;
  const float inv = 1.0f / static_cast<float>(inputs.size());
  for (std::size_t begin = 0; begin < out.size(); begin += kBlock) {
    const std::size_t n = std::min(kBlock, out.size() - begin);
    float* acc = out.data() + begin;
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] = 0.0f;
    }
    for (const auto& in : inputs) {
      const float* row = in.data() + begin;
      for (std::size_t i = 0; i < n; ++i) {
        acc[i] += 1.0f * row[i];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] *= inv;
    }
  }
}

SignSumAggregate aggregate_sign_sum(const std::vector<BitVector>& signs,
                                    bool record_elias_sizes) {
  MARSIT_CHECK(!signs.empty()) << "aggregate over zero workers";
  SignSumAggregate result;
  result.sum = SignSum(signs.front().size());
  for (const auto& bits : signs) {
    result.sum.accumulate(bits);
    if (record_elias_sizes) {
      result.elias_bits_per_element.push_back(
          static_cast<double>(result.sum.wire_bits_elias()) /
          static_cast<double>(result.sum.size()));
    }
  }
  return result;
}

void cascading_aggregate(const WorkerSpans& inputs, Rng& rng,
                         std::span<float> out, CascadeDecode decode) {
  check_inputs(inputs, out.size());
  const float decode_factor =
      decode == CascadeDecode::kUnbiased
          ? 1.0f
          : 1.0f / std::sqrt(static_cast<float>(out.size()));
  // `out` doubles as the running decompressed state w.
  zero(out);
  std::vector<float> assembled(out.size());
  for (const auto& in : inputs) {
    // Aggregate: w + v (w is the decoded value of the previous hop's
    // compressed message; zero at the chain head).
    add(out, in, {assembled.data(), assembled.size()});
    // Compress: Q(w + v) = ‖·‖₂ · stochastic-sign(·); Recover for the next
    // hop's aggregation.
    const float norm = ssdm_norm({assembled.data(), assembled.size()});
    const BitVector bits = ssdm_pack({assembled.data(), assembled.size()}, rng);
    unpack_signs(bits, norm * decode_factor, out);
  }
  scale(out, 1.0f / static_cast<float>(inputs.size()));
}

void ssdm_ps_aggregate(const WorkerSpans& inputs, Rng& rng,
                       std::span<float> out) {
  check_inputs(inputs, out.size());
  zero(out);
  for (const auto& in : inputs) {
    const float norm = ssdm_norm(in);
    const BitVector bits = ssdm_pack(in, rng);
    accumulate_signs(bits, norm, out);
  }
  scale(out, 1.0f / static_cast<float>(inputs.size()));
}

double sign_matching_rate(std::span<const float> reference,
                          std::span<const float> value) {
  MARSIT_CHECK(reference.size() == value.size() && !reference.empty())
      << "matching rate over mismatched/empty spans";
  std::size_t matches = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const bool ref_positive = reference[i] >= 0.0f;
    const bool val_positive = value[i] >= 0.0f;
    if (ref_positive == val_positive) {
      ++matches;
    }
  }
  return static_cast<double>(matches) / static_cast<double>(reference.size());
}

double weighted_sign_matching_rate(std::span<const float> reference,
                                   std::span<const float> value) {
  MARSIT_CHECK(reference.size() == value.size() && !reference.empty())
      << "matching rate over mismatched/empty spans";
  double matched_mass = 0.0;
  double total_mass = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double weight = std::fabs(static_cast<double>(reference[i]));
    total_mass += weight;
    const bool ref_positive = reference[i] >= 0.0f;
    const bool val_positive = value[i] >= 0.0f;
    if (ref_positive == val_positive) {
      matched_mass += weight;
    }
  }
  MARSIT_CHECK(total_mass > 0.0) << "all-zero reference vector";
  return matched_mass / total_mass;
}

}  // namespace marsit
