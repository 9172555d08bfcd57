// Simulated-time cost model.
//
// The paper measured wall-clock on a 32-node Huawei-Cloud cluster (2×T4 per
// node, datacenter Ethernet).  We have no cluster, so every timing figure in
// this reproduction is *simulated seconds* produced by this model:
//
//   message time   = alpha + bytes / link_bandwidth        (α–β model)
//   compute time   = flops / flop_rate
//   compression    = elements / <per-operation element rate>
//
// Absolute constants are calibrated to T4-class hardware (defaults below)
// but every figure we reproduce only depends on *ratios* — e.g. that a ring
// step moves D/M elements while PS ingest serializes M·D elements, or that
// cascading decompress+recompress costs ~10x a plain sign pack.  DESIGN.md
// §2 documents this substitution.
#pragma once

#include <cstddef>

namespace marsit {

struct CostModel {
  // --- link (per point-to-point message) -----------------------------------
  /// Per-message fixed latency, seconds.  25 µs ≈ datacenter TCP RTT/2.
  double link_alpha = 25e-6;
  /// Link bandwidth, bytes/second.  10 Gbit/s Ethernet.
  double link_bandwidth = 1.25e9;
  /// The PS server's aggregate NIC bandwidth.  Real PS deployments shard
  /// the server over a few NICs/hosts, so it is faster than one worker link
  /// — but all M flows still share it, which is Figure 1a's congestion
  /// point.
  double server_bandwidth = 4.0e9;

  // --- compute --------------------------------------------------------------
  /// Sustained training throughput, flops/second (T4 fp32 ≈ 8 TFLOPS, ~50 %
  /// utilization).
  double flop_rate = 4.0e12;

  // --- compression kernels (elements/second, T4-class GPU) ------------------
  /// Packing a float vector to sign bits (memory-bound on the GPU:
  /// ~300 GB/s over 4-byte reads).
  double sign_pack_rate = 20.0e9;
  /// Unpacking bits to floats.
  double sign_unpack_rate = 20.0e9;
  /// SSDM stochastic sign (an RNG draw + compare per element).
  double stochastic_sign_rate = 5.0e9;
  /// Generating the ⊙ operator's Bernoulli transient word + three logical
  /// word ops (64 elements per word — this is why Marsit's compression bar
  /// in Figure 5 is small).
  double one_bit_combine_rate = 50.0e9;
  /// Full decompress-add-recompress of cascading compression per element
  /// (unpack + add + ℓ2 norm + stochastic re-pack, serialized on the hop
  /// critical path — the paper's §3.2.1 overhead).
  double cascade_recompress_rate = 1.0e9;
  /// Elias decode-add-reencode of a sign-sum per element per hop.
  double elias_code_rate = 8.0e9;

  // --- derived helpers -------------------------------------------------------
  double compute_seconds(double flops) const { return flops / flop_rate; }
};

/// Per-round time decomposition reported by Figures 1a and 5.
///
/// compute/compression/communication are the *serial* decomposition: what
/// the round costs when the phases run back to back (their sum is total()).
/// `compression` also counts the work a wire format hides behind receives
/// (Marsit's ⊙ combine: CollectiveTiming's
/// overlapped_compression_seconds_per_worker), so total() can exceed the
/// round's simulated completion.
struct PhaseTimes {
  double compute = 0.0;
  double compression = 0.0;
  double communication = 0.0;

  double total() const { return compute + compression + communication; }

  PhaseTimes& operator+=(const PhaseTimes& other) {
    compute += other.compute;
    compression += other.compression;
    communication += other.communication;
    return *this;
  }
};

}  // namespace marsit
