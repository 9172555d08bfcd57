#include "core/hop_schedule.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "compress/kernels.hpp"
#include "core/one_bit.hpp"
#include "net/crc32.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit {

const char* mar_paradigm_name(MarParadigm paradigm) {
  switch (paradigm) {
    case MarParadigm::kRing:
      return "RAR";
    case MarParadigm::kTorus2d:
      return "TAR";
    case MarParadigm::kParameterServer:
      return "PS";
    case MarParadigm::kTree:
      return "TREE";
  }
  return "?";
}

std::size_t torus_rows_for(std::size_t torus_cols, std::size_t members) {
  if (torus_cols == 0 || members % torus_cols != 0 ||
      members / torus_cols < 2) {
    return 0;
  }
  return members / torus_cols;
}

WordSegment word_segment(std::size_t num_words, std::size_t parts,
                         std::size_t index) {
  MARSIT_CHECK(parts > 0) << "word_segment over zero parts";
  MARSIT_CHECK(index < parts)
      << "word_segment index " << index << " of " << parts;
  const std::size_t base = num_words / parts;
  const std::size_t rem = num_words % parts;
  WordSegment seg;
  seg.begin = index * base + std::min(index, rem);
  seg.count = base + (index < rem ? 1 : 0);
  return seg;
}

namespace {

/// Members in ring order.
using Ring = std::vector<std::size_t>;

/// The ring first, first + stride, …: the whole membership, a torus row
/// (stride 1) or a torus column (stride cols).
Ring ring_of(std::size_t first, std::size_t stride, std::size_t count) {
  Ring ring(count);
  for (std::size_t i = 0; i < count; ++i) {
    ring[i] = first + i * stride;
  }
  return ring;
}

/// Appends one chain per position s of `ring`: ranges[s] travels L−1 hops
/// around the ring, starting at position s + shift.  In a fold phase it is
/// folded into every member it reaches (seed id seed_base + s, op k at its
/// k-th hop), every member standing for `weight` contributions.
void add_ring_chains(HopPhase& phase, const Ring& ring,
                     const std::vector<WordSegment>& ranges,
                     std::size_t shift, std::size_t seed_base = 0,
                     std::size_t weight = 1) {
  const std::size_t L = ring.size();
  for (std::size_t s = 0; s < L; ++s) {
    std::vector<Hop> chain(L - 1);
    for (std::size_t k = 0; k + 1 < L; ++k) {
      Hop& hop = chain[k];
      hop.src = ring[(s + shift + k) % L];
      hop.dst = ring[(s + shift + k + 1) % L];
      hop.begin = ranges[s].begin;
      hop.count = ranges[s].count;
      if (phase.kind == HopKind::kFold) {
        hop.seed_id = seed_base + s;
        hop.op = k;
        hop.arriving_weight = (k + 1) * weight;
        hop.resident_weight = weight;
        hop.arriving_first = true;
      }
    }
    phase.chains.push_back(std::move(chain));
  }
}

/// word_segment(units, parts, ·) as a list of ranges offset by `base`.
std::vector<WordSegment> partition(std::size_t base, std::size_t units,
                                   std::size_t parts) {
  std::vector<WordSegment> ranges(parts);
  for (std::size_t i = 0; i < parts; ++i) {
    ranges[i] = word_segment(units, parts, i);
    ranges[i].begin += base;
  }
  return ranges;
}

std::uint32_t frame_tag(std::size_t round, std::uint32_t stream) {
  MARSIT_CHECK(stream < 4) << "tag stream " << stream;
  return static_cast<std::uint32_t>(round << 2) | stream;
}

std::size_t phase_steps(const HopPhase& phase) {
  std::size_t steps = 0;
  for (const std::vector<Hop>& chain : phase.chains) {
    steps = std::max(steps, chain.size());
  }
  return steps;
}

/// Calls fn(hop) for hop t of every chain long enough, in chain order.
template <typename Fn>
void for_step(const HopPhase& phase, std::size_t t, Fn&& fn) {
  for (const std::vector<Hop>& chain : phase.chains) {
    if (t < chain.size()) {
      fn(chain[t]);
    }
  }
}

/// One member's side of `schedule` over its buffer `units`: copy hops land
/// in place, fold hops go to fold(hop, arriving, resident) with the
/// arriving units copied out of the frame.
template <typename Unit, typename Fold>
double run_member(Transport& transport, const HopSchedule& schedule,
                  std::size_t round, std::span<Unit> units, Fold&& fold) {
  MARSIT_CHECK(transport.world_size() == schedule.members)
      << "schedule over " << schedule.members << " members on a world of "
      << transport.world_size();
  MARSIT_CHECK(schedule.nodes == schedule.members)
      << "a parameter server on its own node is priced, not run";
  const std::size_t self = transport.rank();
  double sent_bytes = 0.0;
  std::vector<Unit> arriving;
  for (const HopPhase& phase : schedule.phases) {
    const std::uint32_t tag = frame_tag(round, phase.stream);
    for (std::size_t t = 0, steps = phase_steps(phase); t < steps; ++t) {
      for_step(phase, t, [&](const Hop& hop) {
        if (hop.src != self || hop.count == 0) {
          return;
        }
        const auto payload = std::as_bytes(units.subspan(hop.begin, hop.count));
        transport.send(hop.dst, tag,
                       {reinterpret_cast<const std::uint8_t*>(payload.data()),
                        payload.size()});
        sent_bytes += static_cast<double>(payload.size());
      });
      for_step(phase, t, [&](const Hop& hop) {
        if (hop.dst != self || hop.count == 0) {
          return;
        }
        const std::vector<std::uint8_t> payload = transport.recv(hop.src, tag);
        MARSIT_CHECK(payload.size() == hop.count * sizeof(Unit))
            << "hop payload " << payload.size() << " bytes, expected "
            << hop.count * sizeof(Unit);
        const auto resident = units.subspan(hop.begin, hop.count);
        if (phase.kind == HopKind::kFold) {
          arriving.resize(hop.count);
          std::memcpy(arriving.data(), payload.data(), payload.size());
          fold(hop, std::span<const Unit>(arriving), resident);
        } else {
          std::memcpy(resident.data(), payload.data(), payload.size());
        }
      });
    }
  }
  return sent_bytes;
}

}  // namespace

HopSchedule hop_schedule(RoundKind kind, MarParadigm paradigm,
                         std::size_t torus_cols, std::size_t members,
                         std::size_t units, PsServer server) {
  MARSIT_CHECK(members > 0) << "hop schedule over zero members";
  HopSchedule schedule;
  schedule.members = members;
  schedule.nodes = members;
  schedule.units = units;
  schedule.unit_elements = kind == RoundKind::kOneBit ? kernels::kWordBits : 1;
  if (members == 1) {
    return schedule;
  }
  // The returned reference lives until the next add_phase call.
  const auto add_phase = [&schedule](const char* name, HopKind phase_kind,
                                     std::uint32_t stream,
                                     bool server_nic = false) -> HopPhase& {
    HopPhase& phase = schedule.phases.emplace_back();
    phase.name = name;
    phase.kind = phase_kind;
    phase.stream = stream;
    phase.server_nic = server_nic;
    return phase;
  };
  const std::size_t cols = torus_cols;
  const std::size_t rows = paradigm == MarParadigm::kTorus2d
                               ? torus_rows_for(cols, members)
                               : 0;
  const Ring ring = ring_of(0, 1, members);

  // The parameter server and the tree fold and send the whole plane as one
  // chain per phase.
  std::vector<Hop> up;
  std::vector<Hop> down;
  switch (paradigm) {
    case MarParadigm::kParameterServer: {
      // A colocated server is member 0, which pushes nothing.
      const std::size_t hub = server == PsServer::kOwnNode ? members : 0;
      schedule.nodes = hub == 0 ? members : members + 1;
      for (std::size_t k = hub == 0 ? 1 : 0; k < members; ++k) {
        up.push_back({.src = k,
                      .dst = hub,
                      .count = units,
                      .op = up.size(),
                      .arriving_weight = 1,
                      .resident_weight = k});
        down.push_back({.src = hub, .dst = k, .count = units});
      }
      add_phase("push", HopKind::kFold, 0, true).chains.push_back(
          std::move(up));
      add_phase("broadcast", HopKind::kCopy, 1, true)
          .chains.push_back(std::move(down));
      return schedule;
    }
    case MarParadigm::kTree: {
      std::vector<std::size_t> weights(members, 1);
      for (std::size_t stride = 1; stride < members; stride *= 2) {
        for (std::size_t i = 0; i + stride < members; i += 2 * stride) {
          up.push_back({.src = i + stride,
                        .dst = i,
                        .count = units,
                        .op = up.size(),
                        .arriving_weight = weights[i + stride],
                        .resident_weight = weights[i]});
          weights[i] += weights[i + stride];
        }
      }
      for (std::size_t stride = std::bit_floor(members - 1); stride >= 1;
           stride >>= 1) {
        for (std::size_t i = 0; i + stride < members; i += 2 * stride) {
          down.push_back({.src = i, .dst = i + stride, .count = units});
        }
      }
      add_phase("tree reduce", HopKind::kFold, 0).chains.push_back(
          std::move(up));
      add_phase("tree broadcast", HopKind::kCopy, 1)
          .chains.push_back(std::move(down));
      return schedule;
    }
    case MarParadigm::kRing:
    case MarParadigm::kTorus2d:
      break;
  }
  if (rows == 0) {
    const std::vector<WordSegment> segments = partition(0, units, members);
    add_ring_chains(add_phase("reduce-scatter", HopKind::kFold, 0), ring,
                    segments, 0);
    add_ring_chains(add_phase("all-gather", HopKind::kCopy, 1), ring,
                    segments, members - 1);
    return schedule;
  }
  // Row reduce-scatter over `cols` segments; column c then owns segment
  // (c+1) mod cols of every row and reduce-scatters its `rows`
  // sub-segments, whose contributions each stand for a whole row.
  const std::vector<WordSegment> row_segments = partition(0, units, cols);
  std::vector<std::vector<WordSegment>> col_segments(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    const WordSegment owned = row_segments[(c + 1) % cols];
    col_segments[c] = partition(owned.begin, owned.count, rows);
  }
  HopPhase& row_rs = add_phase("row reduce-scatter", HopKind::kFold, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    add_ring_chains(row_rs, ring_of(r * cols, 1, cols), row_segments, 0,
                    r * cols);
  }
  HopPhase& col_rs = add_phase("column reduce-scatter", HopKind::kFold, 1);
  for (std::size_t c = 0; c < cols; ++c) {
    add_ring_chains(col_rs, ring_of(c, cols, rows), col_segments[c], 0,
                    members + c * rows, cols);
  }
  HopPhase& col_ag = add_phase("column all-gather", HopKind::kCopy, 2);
  for (std::size_t c = 0; c < cols; ++c) {
    add_ring_chains(col_ag, ring_of(c, cols, rows), col_segments[c],
                    rows - 1);
  }
  HopPhase& row_ag = add_phase("row all-gather", HopKind::kCopy, 3);
  for (std::size_t r = 0; r < rows; ++r) {
    add_ring_chains(row_ag, ring_of(r * cols, 1, cols), row_segments,
                    cols - 1);
  }
  return schedule;
}

void fold_hop(const Hop& hop, std::uint64_t round_seed,
              std::span<const std::uint64_t> arriving,
              std::span<std::uint64_t> resident) {
  Rng rng = segment_op_rng(segment_fold_seed(round_seed, hop.seed_id), hop.op);
  if (hop.arriving_first) {
    one_bit_combine_words(resident, arriving, hop.arriving_weight, resident,
                          hop.resident_weight, rng);
  } else {
    one_bit_combine_words(resident, resident, hop.resident_weight, arriving,
                          hop.arriving_weight, rng);
  }
}

void fold_hop(const Hop& hop, std::span<const float> arriving,
              std::span<float> resident) {
  if (hop.arriving_first) {
    add(arriving, resident, resident);
  } else {
    add(resident, arriving, resident);
  }
}

double execute_hop_schedule(Transport& transport, const HopSchedule& schedule,
                            std::size_t round, std::uint64_t round_seed,
                            std::span<std::uint64_t> words) {
  return run_member(transport, schedule, round, words,
                    [round_seed](const Hop& hop, auto arriving, auto resident) {
                      fold_hop(hop, round_seed, arriving, resident);
                    });
}

double execute_hop_schedule(Transport& transport, const HopSchedule& schedule,
                            std::size_t round, std::span<float> values) {
  return run_member(transport, schedule, round, values,
                    [](const Hop& hop, auto arriving, auto resident) {
                      fold_hop(hop, arriving, resident);
                    });
}

CollectiveTiming price_hop_schedule(const HopSchedule& schedule,
                                    const WireFormat& wire, NetworkSim& net) {
  MARSIT_CHECK(schedule.members >= 2)
      << "pricing a schedule over " << schedule.members << " members";
  MARSIT_CHECK(schedule.units >= 1) << "pricing an empty payload";
  MARSIT_CHECK(net.num_nodes() >= schedule.nodes)
      << "network of " << net.num_nodes() << " nodes under a schedule over "
      << schedule.nodes;
  const double payload =
      static_cast<double>(schedule.units * schedule.unit_elements);
  const auto elements = [&schedule](const Hop& hop) {
    return hop.count * schedule.unit_elements;
  };
  const double retransmitted_bytes = net.retransmitted_bytes();
  const std::size_t retransmissions = net.retransmissions();
  const std::size_t messages = net.total_messages();

  CollectiveTiming timing;
  std::vector<double> ready(schedule.nodes, 0.0);
  std::vector<bool> packed(schedule.nodes, false);
  // Member 0's first send, and the fold work on the hops it receives.
  double first_send = 0.0;
  double serial_folds = 0.0;
  double overlapped_folds = 0.0;
  std::vector<double> done;
  double phase_start = 0.0;
  for (const HopPhase& phase : schedule.phases) {
    const bool fold = phase.kind == HopKind::kFold;
    for (std::size_t t = 0, steps = phase_steps(phase); t < steps; ++t) {
      // Each hop of a step leaves once its sender is ready (the sender's
      // NIC is the network's to track).
      done.clear();
      for_step(phase, t, [&](const Hop& hop) {
        const double n = static_cast<double>(elements(hop));
        if (!packed[hop.src]) {
          // Packing starts at time 0; the first send waits for it.
          packed[hop.src] = true;
          ready[hop.src] = std::max(
              ready[hop.src], wire.initial_pack_seconds_per_element * n);
          if (hop.src == 0) {
            first_send = n;
          }
        }
        if (hop.count == 0) {
          done.push_back(ready[hop.src]);
          return;
        }
        const double bits = fold
                                ? wire.reduce_bits(elements(hop),
                                                   hop.arriving_weight)
                                : wire.gather_bits(elements(hop));
        timing.total_wire_bits += bits;
        done.push_back(net.transfer_bits(hop.src, hop.dst, bits,
                                         ready[hop.src], phase.server_nic));
      });
      // The receiver holds the units once they have landed; a fold then
      // keeps it busy once its earlier work is done too.
      std::size_t i = 0;
      for_step(phase, t, [&](const Hop& hop) {
        ready[hop.dst] = std::max(ready[hop.dst], done[i++]);
        if (fold) {
          const double n = static_cast<double>(elements(hop));
          ready[hop.dst] += wire.serial_seconds_per_element * n;
          if (hop.dst == 0) {
            serial_folds += wire.serial_seconds_per_element * n;
            overlapped_folds += wire.overlapped_seconds_per_element * n;
          }
        }
      });
    }
    const double phase_end = *std::max_element(ready.begin(), ready.end());
    if (obs::TraceSession* trace = obs::TraceSession::current()) {
      const double offset = trace->time_offset();
      trace->add_span(phase.name, "phase", offset + phase_start,
                      offset + phase_end, /*track=*/0);
    }
    phase_start = phase_end;
  }

  const double unpack = wire.final_unpack_seconds_per_element * payload;
  timing.completion_seconds =
      *std::max_element(ready.begin(), ready.end()) + unpack;
  timing.bits_per_worker =
      timing.total_wire_bits / static_cast<double>(schedule.members);
  timing.serial_compression_seconds_per_worker =
      wire.initial_pack_seconds_per_element * first_send + serial_folds +
      unpack;
  timing.overlapped_compression_seconds_per_worker =
      wire.initial_pack_seconds_per_element * (payload - first_send) +
      overlapped_folds;
  timing.retransmitted_wire_bits =
      (net.retransmitted_bytes() - retransmitted_bytes) * 8.0;
  timing.retransmissions = net.retransmissions() - retransmissions;
  // Under corruption faults every delivered message carries a CRC32 footer
  // (network_sim.cpp charges it per attempt).  The hops above sum payload
  // bits only, so the footer of each delivery is charged here, once per
  // message; retried attempts' footers already live in
  // retransmitted_wire_bits.
  const FaultPlan* plan = net.fault_plan();
  if (plan != nullptr && plan->corruption_rate > 0.0) {
    timing.total_wire_bits +=
        kCrcFooterBits * static_cast<double>(net.total_messages() - messages);
  }
  return timing;
}

}  // namespace marsit
