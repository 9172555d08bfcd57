// Wire formats: what a synchronization method puts on the wire per hop and
// what it costs to produce, and the CollectiveTiming a priced round reports.
//
// A wire format abstracts a method's payload: full-precision floats
// (PSGD), growing sign-sums (signSGD/EF/SSDM under MAR), constant one-bit
// vectors (Marsit), or compressed segments with a serial
// decompress-recompress stage (cascading compression).  The one pricer,
// price_hop_schedule (core/hop_schedule.hpp), replays a round's hop
// schedule and asks the format for each hop's bits and processing time.
//
// A baseline's aggregation arithmetic runs separately on full vectors
// (aggregators.hpp): elementwise aggregation is invariant to how a vector is
// chunked into segments, so its values and timing are computed
// independently.  Marsit's rounds instead fold the schedule they price —
// ⊙ draws keyed by its (segment, op), the flush's float sum in its
// association (core/segmented_fold.hpp).  DESIGN.md §6 records both.
#pragma once

#include <cstddef>
#include <functional>

#include "net/cost_model.hpp"

namespace marsit {

/// What a synchronization method puts on the wire and what it costs to
/// produce.  All rates come from CostModel; WireFormat carries *per-element
/// seconds* so schedules stay independent of the model struct.
struct WireFormat {
  /// Bits of a reduce-phase message carrying `elements` elements aggregated
  /// from `contributions` workers.  For Marsit this is `elements` (constant);
  /// for sign-sums it grows with ⌈log2(c+1)⌉+1; floats are 32·elements.
  std::function<double(std::size_t elements, std::size_t contributions)>
      reduce_bits;

  /// Bits of a gather/broadcast-phase message of `elements` finalized
  /// elements.
  std::function<double(std::size_t elements)> gather_bits;

  /// Per-element seconds of processing that sits on the hop critical path
  /// (cascading compression's decompress-add-recompress).
  double serial_seconds_per_element = 0.0;

  /// Per-element seconds of processing that overlaps with the receive
  /// (Marsit's transient-vector generation + bit-wise combine: paper §4.1.1
  /// "reception and compression processes can take place in parallel").
  /// Counted in the compression phase but not on the critical path.
  double overlapped_seconds_per_element = 0.0;

  /// One-time per-element pack cost before the first send (sign packing).
  double initial_pack_seconds_per_element = 0.0;

  /// Per-element cost to decode the final aggregate at each worker.
  double final_unpack_seconds_per_element = 0.0;
};

// Ready-made wire formats ----------------------------------------------------

/// 32-bit float payloads, no compression cost (PSGD).
WireFormat full_precision_wire();

/// Sign-sum payloads with fixed-width ⌈log2(c+1)⌉+1 bits/element;
/// `scalars_per_message` extra floats ride along (SSDM's norms, EF's scales).
WireFormat sign_sum_wire(const CostModel& model,
                         std::size_t scalars_per_message = 0);

/// Sign-sum payloads recoded with Elias-γ.  `elias_bits_per_element(c)` must
/// return the measured average code length at contribution count c (the
/// aggregators record it from real data).
WireFormat sign_sum_elias_wire(
    const CostModel& model,
    std::function<double(std::size_t contributions)> elias_bits_per_element);

/// Constant one-bit payloads with no compression cost: the wire alone, as
/// the distributed worker prices the rounds it runs.
WireFormat one_bit_wire();

/// Marsit's constant one-bit payloads; combine overlaps with receive.
WireFormat marsit_wire(const CostModel& model);

/// Cascading compression: one-bit payload + a 32-bit norm per message, with
/// the full decompress-add-recompress on the critical path of every hop.
WireFormat cascading_wire(const CostModel& model);

// Priced rounds ---------------------------------------------------------------

struct CollectiveTiming {
  /// Wall-clock (simulated) seconds from start to every worker holding the
  /// final aggregate.
  double completion_seconds = 0.0;
  /// Payload bits that crossed the wire, summed over all messages.
  double total_wire_bits = 0.0;
  /// Bits sent by one (representative) worker — the per-worker communication
  /// budget axis of Figure 4b.
  double bits_per_worker = 0.0;
  /// Compression work on one worker's critical path (initial pack, per-hop
  /// serial processing, final unpack) — included in completion_seconds, so
  /// `completion − serial` is the pure communication share.
  double serial_compression_seconds_per_worker = 0.0;
  /// Compression work hidden behind receives (Marsit's ⊙ combine) — NOT part
  /// of completion_seconds.
  double overlapped_compression_seconds_per_worker = 0.0;
  /// Payload bits burned by lost attempts (fault injection): retransmitted
  /// on top of total_wire_bits.  Zero without an attached FaultPlan.
  double retransmitted_wire_bits = 0.0;
  /// Lost-and-retried transmission attempts this collective.
  std::size_t retransmissions = 0;

  /// Total per-worker compression seconds — the red bars of Figures 1a/5.
  double compression_seconds_per_worker() const {
    return serial_compression_seconds_per_worker +
           overlapped_compression_seconds_per_worker;
  }
  /// Pure transfer share of the round (what the blue bars show).
  double communication_seconds() const {
    const double value =
        completion_seconds - serial_compression_seconds_per_worker;
    return value > 0.0 ? value : 0.0;
  }
};

}  // namespace marsit
