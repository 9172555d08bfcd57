#include "collectives/timing.hpp"

#include "compress/sign_sum.hpp"
#include "util/check.hpp"

namespace marsit {

namespace {

double rate_to_seconds(double rate) {
  MARSIT_CHECK(rate > 0) << "cost-model rate must be positive";
  return 1.0 / rate;
}

}  // namespace

WireFormat full_precision_wire() {
  WireFormat wire;
  wire.reduce_bits = [](std::size_t elements, std::size_t) {
    return 32.0 * static_cast<double>(elements);
  };
  wire.gather_bits = [](std::size_t elements) {
    return 32.0 * static_cast<double>(elements);
  };
  return wire;
}

WireFormat sign_sum_wire(const CostModel& model,
                         std::size_t scalars_per_message) {
  WireFormat wire;
  const double extra = 32.0 * static_cast<double>(scalars_per_message);
  wire.reduce_bits = [extra](std::size_t elements,
                             std::size_t contributions) {
    return static_cast<double>(elements) *
               static_cast<double>(sign_sum_bits_per_element(contributions)) +
           extra;
  };
  wire.gather_bits = [extra](std::size_t elements) {
    // The gather phase broadcasts the final majority/mean decision as one
    // bit per element (the sums are no longer needed once finalized).
    return static_cast<double>(elements) + extra;
  };
  wire.initial_pack_seconds_per_element = rate_to_seconds(model.sign_pack_rate);
  // Integer accumulate per received element, off the critical path is not
  // possible for sums (the add must finish before forwarding), but it is
  // cheap; model it as serial.
  wire.serial_seconds_per_element = rate_to_seconds(model.sign_unpack_rate);
  wire.final_unpack_seconds_per_element =
      rate_to_seconds(model.sign_unpack_rate);
  return wire;
}

WireFormat sign_sum_elias_wire(
    const CostModel& model,
    std::function<double(std::size_t contributions)> elias_bits_per_element) {
  WireFormat wire;
  auto bits_fn = std::move(elias_bits_per_element);
  wire.reduce_bits = [bits_fn](std::size_t elements,
                               std::size_t contributions) {
    return static_cast<double>(elements) * bits_fn(contributions);
  };
  wire.gather_bits = [](std::size_t elements) {
    return static_cast<double>(elements);
  };
  wire.initial_pack_seconds_per_element = rate_to_seconds(model.sign_pack_rate);
  // Elias decode + integer add + Elias re-encode sits on the hop critical
  // path, like any transcoding step.
  wire.serial_seconds_per_element =
      2.0 * rate_to_seconds(model.elias_code_rate);
  wire.final_unpack_seconds_per_element =
      rate_to_seconds(model.sign_unpack_rate);
  return wire;
}

WireFormat one_bit_wire() {
  WireFormat wire;
  wire.reduce_bits = [](std::size_t elements, std::size_t) {
    return static_cast<double>(elements);
  };
  wire.gather_bits = [](std::size_t elements) {
    return static_cast<double>(elements);
  };
  return wire;
}

WireFormat marsit_wire(const CostModel& model) {
  WireFormat wire = one_bit_wire();
  wire.initial_pack_seconds_per_element = rate_to_seconds(model.sign_pack_rate);
  // The ⊙ combine (transient Bernoulli word + three logical word ops)
  // overlaps with the receive — the paper's key pipelining claim.
  wire.overlapped_seconds_per_element =
      rate_to_seconds(model.one_bit_combine_rate);
  wire.final_unpack_seconds_per_element =
      rate_to_seconds(model.sign_unpack_rate);
  return wire;
}

WireFormat cascading_wire(const CostModel& model) {
  WireFormat wire;
  wire.reduce_bits = [](std::size_t elements, std::size_t) {
    return static_cast<double>(elements) + 32.0;  // sign bits + ℓ2 norm
  };
  wire.gather_bits = [](std::size_t elements) {
    return static_cast<double>(elements) + 32.0;
  };
  wire.initial_pack_seconds_per_element =
      rate_to_seconds(model.stochastic_sign_rate);
  // Decompress + add + renorm + stochastic recompress on every hop, fully
  // serial: the next hop cannot start until the recompressed segment exists.
  wire.serial_seconds_per_element =
      rate_to_seconds(model.cascade_recompress_rate);
  wire.final_unpack_seconds_per_element =
      rate_to_seconds(model.sign_unpack_rate);
  return wire;
}

}  // namespace marsit
