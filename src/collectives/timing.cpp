#include "collectives/timing.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "compress/sign_sum.hpp"
#include "net/crc32.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace marsit {

namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Emits a "phase" span on the schedule track when tracing is on.  Times
/// are collective-local; the installed session's time_offset places them on
/// the global simulated timeline (see obs/trace.hpp).
void trace_phase(const char* name, double local_start, double local_end) {
  if (obs::TraceSession* trace = obs::TraceSession::current()) {
    const double offset = trace->time_offset();
    trace->add_span(name, "phase", offset + local_start, offset + local_end,
                    /*track=*/0);
  }
}

double max_ready(const std::vector<double>& ready, double floor) {
  double done = floor;
  for (const double r : ready) {
    done = std::max(done, r);
  }
  return done;
}

double rate_to_seconds(double rate) {
  MARSIT_CHECK(rate > 0) << "cost-model rate must be positive";
  return 1.0 / rate;
}

/// Snapshot of the simulator's retransmission counters at schedule entry;
/// the delta at exit is what this collective burned on lost attempts.
struct RetransBaseline {
  explicit RetransBaseline(const NetworkSim& net)
      : bytes(net.retransmitted_bytes()),
        count(net.retransmissions()),
        messages(net.total_messages()) {}

  void record_into(CollectiveTiming& timing, const NetworkSim& net) const {
    timing.retransmitted_wire_bits =
        (net.retransmitted_bytes() - bytes) * 8.0;
    timing.retransmissions = net.retransmissions() - count;
    // Wire integrity under corruption faults appends a CRC32 footer to every
    // delivered message (network_sim.cpp charges it per attempt).  The
    // schedule loops above sum payload bits only, so the footer of each
    // *successful* delivery is charged here, exactly once per message;
    // retried attempts' footers already live in retransmitted_wire_bits.
    const FaultPlan* plan = net.fault_plan();
    if (plan != nullptr && plan->corruption_rate > 0.0) {
      timing.total_wire_bits += kCrcFooterBits *
          static_cast<double>(net.total_messages() - messages);
    }
  }

  double bytes;
  std::size_t count;
  std::size_t messages;
};

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

WireFormat marsit_wire(const CostModel& model) {
  WireFormat wire;
  wire.reduce_bits = [](std::size_t elements, std::size_t) {
    return static_cast<double>(elements);
  };
  wire.gather_bits = [](std::size_t elements) {
    return static_cast<double>(elements);
  };
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

CollectiveTiming ring_allreduce_timing(std::size_t num_workers, std::size_t d,
                                       const WireFormat& wire,
                                       NetworkSim& net) {
  const std::size_t m = num_workers;
  MARSIT_CHECK(m >= 2) << "ring all-reduce needs >= 2 workers";
  MARSIT_CHECK(net.num_nodes() >= m) << "network smaller than worker count";
  MARSIT_CHECK(d >= 1) << "empty gradient";

  const std::size_t seg_len = ceil_div(d, m);
  const double seg = static_cast<double>(seg_len);

  CollectiveTiming timing;
  const RetransBaseline retrans(net);

  // Reduce-scatter.  Segment `s` starts at worker (s+1) mod M and is folded
  // once per hop until it completes at worker s with M contributions.
  std::vector<double> ready(m);
  for (std::size_t s = 0; s < m; ++s) {
    ready[s] = wire.initial_pack_seconds_per_element * seg;
  }
  for (std::size_t step = 0; step + 1 < m; ++step) {
    for (std::size_t s = 0; s < m; ++s) {
      const std::size_t holder = (s + 1 + step) % m;
      const std::size_t next = (holder + 1) % m;
      const double bits = wire.reduce_bits(seg_len, step + 1);
      const double arrival = net.transfer_bits(holder, next, bits, ready[s]);
      ready[s] = arrival + wire.serial_seconds_per_element * seg;
      timing.total_wire_bits += bits;
    }
  }
  const double reduce_done = max_ready(ready, 0.0);
  trace_phase("reduce-scatter", 0.0, reduce_done);

  // All-gather.  Finalized segment s leaves worker s and circulates M−1 hops.
  for (std::size_t step = 0; step + 1 < m; ++step) {
    for (std::size_t s = 0; s < m; ++s) {
      const std::size_t holder = (s + step) % m;
      const std::size_t next = (holder + 1) % m;
      const double bits = wire.gather_bits(seg_len);
      const double arrival = net.transfer_bits(holder, next, bits, ready[s]);
      ready[s] = arrival;
      timing.total_wire_bits += bits;
    }
  }

  const double last_arrival = max_ready(ready, 0.0);
  trace_phase("all-gather", reduce_done, last_arrival);
  const double dd = static_cast<double>(d);
  timing.completion_seconds =
      last_arrival + wire.final_unpack_seconds_per_element * dd;
  timing.bits_per_worker = timing.total_wire_bits / static_cast<double>(m);
  // Critical path carries the first segment's pack, every hop's serial
  // processing, and the final unpack; packing the remaining segments and the
  // ⊙-style combines hide behind transfers.
  timing.serial_compression_seconds_per_worker =
      wire.initial_pack_seconds_per_element * seg +
      static_cast<double>(m - 1) * seg * wire.serial_seconds_per_element +
      wire.final_unpack_seconds_per_element * dd;
  timing.overlapped_compression_seconds_per_worker =
      wire.initial_pack_seconds_per_element * (dd - seg) +
      static_cast<double>(m - 1) * seg * wire.overlapped_seconds_per_element;
  retrans.record_into(timing, net);
  return timing;
}

CollectiveTiming torus_allreduce_timing(std::size_t rows, std::size_t cols,
                                        std::size_t d, const WireFormat& wire,
                                        NetworkSim& net) {
  MARSIT_CHECK(rows >= 2 && cols >= 2) << "torus needs rows, cols >= 2";
  MARSIT_CHECK(net.num_nodes() >= rows * cols)
      << "network smaller than torus";
  MARSIT_CHECK(d >= 1) << "empty gradient";

  const Topology topo = Topology::torus2d(rows, cols);
  const std::size_t len_a = ceil_div(d, cols);          // row-phase chunk
  const std::size_t len_b = ceil_div(len_a, rows);      // column sub-chunk
  const double seg_a = static_cast<double>(len_a);
  const double seg_b = static_cast<double>(len_b);

  CollectiveTiming timing;
  const RetransBaseline retrans(net);

  // Phase A: reduce-scatter along each row ring (cols segments of len_a).
  // ready_a[r][c]: when node (r,c)'s finished chunk c is available.
  std::vector<std::vector<double>> ready_a(
      rows, std::vector<double>(cols, 0.0));
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> ready(cols,
                              wire.initial_pack_seconds_per_element * seg_a);
    for (std::size_t step = 0; step + 1 < cols; ++step) {
      for (std::size_t s = 0; s < cols; ++s) {
        const std::size_t holder = topo.torus_node(r, (s + 1 + step) % cols);
        const std::size_t next = topo.torus_node(r, (s + 2 + step) % cols);
        const double bits = wire.reduce_bits(len_a, step + 1);
        const double arrival = net.transfer_bits(holder, next, bits, ready[s]);
        ready[s] = arrival + wire.serial_seconds_per_element * seg_a;
        timing.total_wire_bits += bits;
      }
    }
    for (std::size_t c = 0; c < cols; ++c) {
      ready_a[r][c] = ready[c];
    }
  }
  double phase_a_done = 0.0;
  for (const auto& row : ready_a) {
    phase_a_done = max_ready(row, phase_a_done);
  }
  trace_phase("row reduce-scatter", 0.0, phase_a_done);

  // Phase B: all-reduce along each column ring over the len_a chunk
  // (reduce-scatter into rows sub-chunks of len_b, then all-gather).  A
  // message at column step `step` merges aggregates of cols·(step+1)
  // worker contributions.
  std::vector<std::vector<double>> ready_b(
      rows, std::vector<double>(cols, 0.0));
  for (std::size_t c = 0; c < cols; ++c) {
    std::vector<double> ready(rows);
    for (std::size_t s = 0; s < rows; ++s) {
      ready[s] = ready_a[(s + 1) % rows][c];
    }
    for (std::size_t step = 0; step + 1 < rows; ++step) {
      for (std::size_t s = 0; s < rows; ++s) {
        const std::size_t holder = topo.torus_node((s + 1 + step) % rows, c);
        const std::size_t next = topo.torus_node((s + 2 + step) % rows, c);
        const double bits = wire.reduce_bits(len_b, cols * (step + 1));
        const double arrival = net.transfer_bits(holder, next, bits, ready[s]);
        ready[s] = arrival + wire.serial_seconds_per_element * seg_b;
        timing.total_wire_bits += bits;
      }
    }
    // Column all-gather of finalized sub-chunks.
    for (std::size_t step = 0; step + 1 < rows; ++step) {
      for (std::size_t s = 0; s < rows; ++s) {
        const std::size_t holder = topo.torus_node((s + step) % rows, c);
        const std::size_t next = topo.torus_node((s + 1 + step) % rows, c);
        const double bits = wire.gather_bits(len_b);
        const double arrival = net.transfer_bits(holder, next, bits, ready[s]);
        ready[s] = arrival;
        timing.total_wire_bits += bits;
      }
    }
    // Node (r,c) has its full finalized len_a chunk when every sub-chunk has
    // passed through it; the chain structure guarantees that is the max of
    // the sub-chunk completion times.
    double done = 0.0;
    for (std::size_t s = 0; s < rows; ++s) {
      done = std::max(done, ready[s]);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      ready_b[r][c] = done;
    }
  }
  double phase_b_done = 0.0;
  for (const auto& row : ready_b) {
    phase_b_done = max_ready(row, phase_b_done);
  }
  trace_phase("column all-reduce", phase_a_done, phase_b_done);

  // Phase C: all-gather along each row ring (cols chunks of len_a).
  double last_arrival = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> ready(cols);
    for (std::size_t s = 0; s < cols; ++s) {
      ready[s] = ready_b[r][s];
    }
    for (std::size_t step = 0; step + 1 < cols; ++step) {
      for (std::size_t s = 0; s < cols; ++s) {
        const std::size_t holder = topo.torus_node(r, (s + step) % cols);
        const std::size_t next = topo.torus_node(r, (s + 1 + step) % cols);
        const double bits = wire.gather_bits(len_a);
        const double arrival = net.transfer_bits(holder, next, bits, ready[s]);
        ready[s] = arrival;
        timing.total_wire_bits += bits;
      }
    }
    for (std::size_t s = 0; s < cols; ++s) {
      last_arrival = std::max(last_arrival, ready[s]);
    }
  }
  trace_phase("row all-gather", phase_b_done, last_arrival);

  const double dd = static_cast<double>(d);
  const std::size_t m = rows * cols;
  timing.completion_seconds =
      last_arrival + wire.final_unpack_seconds_per_element * dd;
  timing.bits_per_worker = timing.total_wire_bits / static_cast<double>(m);
  const double hop_elems = static_cast<double>(cols - 1) * seg_a +
                           static_cast<double>(rows - 1) * seg_b;
  timing.serial_compression_seconds_per_worker =
      wire.initial_pack_seconds_per_element * seg_a +
      hop_elems * wire.serial_seconds_per_element +
      wire.final_unpack_seconds_per_element * dd;
  timing.overlapped_compression_seconds_per_worker =
      wire.initial_pack_seconds_per_element * (dd - seg_a) +
      hop_elems * wire.overlapped_seconds_per_element;
  retrans.record_into(timing, net);
  return timing;
}

CollectiveTiming ps_allreduce_timing(std::size_t num_workers, std::size_t d,
                                     const WireFormat& wire, NetworkSim& net) {
  const std::size_t m = num_workers;
  MARSIT_CHECK(m >= 1) << "PS needs at least one worker";
  MARSIT_CHECK(net.num_nodes() >= m + 1)
      << "PS network needs num_workers+1 nodes";
  MARSIT_CHECK(d >= 1) << "empty gradient";

  const std::size_t server = m;  // by convention the last node
  const double dd = static_cast<double>(d);

  CollectiveTiming timing;
  const RetransBaseline retrans(net);

  // Push: every worker sends its whole (single-contribution) payload; the
  // server ingress NIC serializes them.
  double all_pushed = 0.0;
  for (std::size_t w = 0; w < m; ++w) {
    const double ready = wire.initial_pack_seconds_per_element * dd;
    const double bits = wire.reduce_bits(d, 1);
    const double arrival =
        net.transfer_bits(w, server, bits, ready, /*server_endpoint=*/true);
    all_pushed = std::max(all_pushed, arrival);
    timing.total_wire_bits += bits;
  }

  trace_phase("push", 0.0, all_pushed);

  // Server-side aggregation of M payloads.
  const double aggregated =
      all_pushed +
      wire.serial_seconds_per_element * dd * static_cast<double>(m);
  trace_phase("server aggregate", all_pushed, aggregated);

  // Broadcast: serialized through the server egress NIC.
  double last_arrival = aggregated;
  const double down_bits = wire.gather_bits(d);
  for (std::size_t w = 0; w < m; ++w) {
    const double arrival = net.transfer_bits(server, w, down_bits, aggregated,
                                             /*server_endpoint=*/true);
    last_arrival = std::max(last_arrival, arrival);
    timing.total_wire_bits += down_bits;
  }
  trace_phase("broadcast", aggregated, last_arrival);

  timing.completion_seconds =
      last_arrival + wire.final_unpack_seconds_per_element * dd;
  timing.bits_per_worker = timing.total_wire_bits / static_cast<double>(m);
  // PS workers pack the whole payload before pushing (no segment
  // pipelining) and unpack the broadcast at the end: all serial.
  timing.serial_compression_seconds_per_worker =
      wire.initial_pack_seconds_per_element * dd +
      wire.final_unpack_seconds_per_element * dd;
  retrans.record_into(timing, net);
  return timing;
}

CollectiveTiming tree_allreduce_timing(std::size_t num_workers, std::size_t d,
                                       const WireFormat& wire,
                                       NetworkSim& net) {
  const std::size_t m = num_workers;
  MARSIT_CHECK(m >= 2) << "tree all-reduce needs >= 2 workers";
  MARSIT_CHECK(net.num_nodes() >= m) << "network smaller than worker count";
  MARSIT_CHECK(d >= 1) << "empty gradient";

  const double dd = static_cast<double>(d);
  CollectiveTiming timing;
  const RetransBaseline retrans(net);

  // ready[w]: when worker w's current aggregate is available;
  // weight[w]: how many workers that aggregate stands for.
  std::vector<double> ready(m, wire.initial_pack_seconds_per_element * dd);
  std::vector<std::size_t> weight(m, 1);
  std::size_t levels = 0;

  // Reduce: at level l, node i+2^l (for i multiple of 2^(l+1)) sends its
  // whole aggregate to node i.
  for (std::size_t stride = 1; stride < m; stride *= 2) {
    ++levels;
    for (std::size_t i = 0; i + stride < m; i += 2 * stride) {
      const std::size_t src = i + stride;
      const double bits = wire.reduce_bits(d, weight[src]);
      const double arrival = net.transfer_bits(
          src, i, bits, std::max(ready[i], ready[src]));
      ready[i] = arrival + wire.serial_seconds_per_element * dd;
      weight[i] += weight[src];
      timing.total_wire_bits += bits;
    }
  }
  const double reduce_done = max_ready(ready, 0.0);
  trace_phase("tree reduce", 0.0, reduce_done);

  // Broadcast the finalized aggregate back down the same tree (largest
  // reduce stride first).
  for (std::size_t stride = std::bit_floor(m - 1); stride >= 1;
       stride /= 2) {
    for (std::size_t i = 0; i + stride < m; i += 2 * stride) {
      const double bits = wire.gather_bits(d);
      const double arrival = net.transfer_bits(i, i + stride, bits, ready[i]);
      ready[i + stride] = arrival;
      timing.total_wire_bits += bits;
    }
    if (stride == 1) {
      break;
    }
  }

  double last_arrival = 0.0;
  for (std::size_t w = 0; w < m; ++w) {
    last_arrival = std::max(last_arrival, ready[w]);
  }
  timing.completion_seconds =
      last_arrival + wire.final_unpack_seconds_per_element * dd;
  timing.bits_per_worker = timing.total_wire_bits / static_cast<double>(m);
  // Interior nodes fold up to ⌈log2 M⌉ aggregates; charge the root's share
  // as the representative worker.
  timing.serial_compression_seconds_per_worker =
      wire.initial_pack_seconds_per_element * dd +
      static_cast<double>(levels) * dd * wire.serial_seconds_per_element +
      wire.final_unpack_seconds_per_element * dd;
  timing.overlapped_compression_seconds_per_worker =
      static_cast<double>(levels) * dd * wire.overlapped_seconds_per_element;
  retrans.record_into(timing, net);
  return timing;
}

}  // namespace marsit
