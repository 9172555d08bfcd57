// The hop schedule (core/hop_schedule.hpp) over every shape a round can
// take: ring, parameter server and tree at M ∈ {2, 3, 5, 8}; tori 2×2,
// 2×3, 3×2 and 2×4; and degraded tori (a 3×2 torus with 4 members
// re-forms as 2×2, a 2×3 torus with 4 members as a ring) — each at sign
// planes of W ∈ {1, M−1, M, 2M+1, 300} words, so empty segments (W < M)
// and odd M are covered.
//
//   * Operand order: at W = 1, every paradigm's fold equals its ⊙ chain
//     written out with the documented operand order, seed ids and ops.
//   * Structure: simulating the hops on contributor sets, every fold hop's
//     weights count its operands' contributors, no contribution is counted
//     twice, every unit finishes the last fold phase at weight M and every
//     member ends with the aggregate; every (seed id, op) pair is used
//     once; the payload totals 2(M−1)·W words, as the pricer counts it.
//   * Execution: one thread per rank over SimFabric endpoints, the
//     Transport interpreter leaves every rank memcmp-equal to the in-memory
//     fold (marsit_fold_signs_segmented).
//   * Float all-reduce: over SimFabric every rank ends with the bytes of the
//     in-memory float fold (fold_float_schedule), whole-range and one unit
//     window at a time; the parameter server's sum is the left fold in rank
//     order; the bytes sent are the priced bits.
#include "core/hop_schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "compress/bit_vector.hpp"
#include "core/one_bit.hpp"
#include "core/segmented_fold.hpp"
#include "net/sim_transport.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace marsit {
namespace {

struct Shape {
  MarParadigm paradigm = MarParadigm::kRing;
  /// The configured torus (0 × 0 off the torus).
  std::size_t torus_rows = 0;
  std::size_t torus_cols = 0;
  std::size_t members = 0;
};

std::vector<Shape> shapes() {
  std::vector<Shape> all;
  for (const MarParadigm paradigm :
       {MarParadigm::kRing, MarParadigm::kParameterServer,
        MarParadigm::kTree}) {
    for (const std::size_t m : {2u, 3u, 5u, 8u}) {
      all.push_back({paradigm, 0, 0, m});
    }
  }
  for (const auto& [rows, cols] : std::vector<std::pair<std::size_t,
                                                        std::size_t>>{
           {2, 2}, {2, 3}, {3, 2}, {2, 4}}) {
    all.push_back({MarParadigm::kTorus2d, rows, cols, rows * cols});
  }
  all.push_back({MarParadigm::kTorus2d, 3, 2, 4});  // re-forms as 2×2
  all.push_back({MarParadigm::kTorus2d, 2, 3, 4});  // re-forms as a ring
  return all;
}

std::vector<std::size_t> widths(std::size_t m) {
  return {1, m - 1, m, 2 * m + 1, 300};
}

std::string describe(const Shape& shape, std::size_t units) {
  return std::string(mar_paradigm_name(shape.paradigm)) + " " +
         std::to_string(shape.torus_rows) + "x" +
         std::to_string(shape.torus_cols) + " with " +
         std::to_string(shape.members) + " members, " +
         std::to_string(units) + " units";
}

HopSchedule schedule_of(RoundKind kind, const Shape& shape,
                        std::size_t units) {
  return hop_schedule(kind, shape.paradigm, shape.torus_cols, shape.members,
                      units);
}

/// Runs fn(rank, transport) on every rank of a `world`-rank SimFabric, one
/// thread per rank.
void on_fabric(std::size_t world,
               const std::function<void(std::size_t, Transport&)>& fn) {
  SimFabric fabric(world);
  std::vector<std::unique_ptr<SimTransport>> endpoints;
  for (std::size_t r = 0; r < world; ++r) {
    endpoints.push_back(fabric.endpoint(r));
  }
  std::vector<std::thread> ranks;
  for (std::size_t r = 0; r < world; ++r) {
    ranks.emplace_back([&fn, &endpoints, r] { fn(r, *endpoints[r]); });
  }
  for (std::thread& rank : ranks) {
    rank.join();
  }
}

TEST(HopScheduleTest, OneBitScheduleFoldsEveryContributionOnceToWeightM) {
  for (const Shape& shape : shapes()) {
    const std::size_t m = shape.members;
    const std::uint32_t everyone = (1u << m) - 1;
    for (const std::size_t w : widths(m)) {
      SCOPED_TRACE(describe(shape, w));
      const HopSchedule schedule = schedule_of(RoundKind::kOneBit, shape, w);
      ASSERT_EQ(schedule.members, m);
      // held[i][u]: the members whose signs member i's unit u stands for.
      std::vector<std::vector<std::uint32_t>> held(m);
      for (std::size_t i = 0; i < m; ++i) {
        held[i].assign(w, 1u << i);
      }
      std::set<std::pair<std::size_t, std::size_t>> ops;
      std::size_t payload = 0;
      const HopPhase* last_fold = nullptr;
      for (const HopPhase& phase : schedule.phases) {
        if (phase.kind == HopKind::kFold) {
          last_fold = &phase;
        }
      }
      ASSERT_NE(last_fold, nullptr);
      for (const HopPhase& phase : schedule.phases) {
        EXPECT_LT(phase.stream, 4u);
        // Chains of a phase touch disjoint (member, unit) cells — what lets
        // the in-memory fold run them as independent pool tasks.
        std::vector<std::vector<std::size_t>> toucher(
            m, std::vector<std::size_t>(w, phase.chains.size()));
        std::size_t steps = 0;
        for (std::size_t c = 0; c < phase.chains.size(); ++c) {
          steps = std::max(steps, phase.chains[c].size());
          for (const Hop& hop : phase.chains[c]) {
            ASSERT_LT(hop.src, m);
            ASSERT_LT(hop.dst, m);
            ASSERT_NE(hop.src, hop.dst);
            ASSERT_LE(hop.begin + hop.count, w);
            payload += hop.count;
            for (std::size_t u = hop.begin; u < hop.begin + hop.count; ++u) {
              for (const std::size_t member : {hop.src, hop.dst}) {
                std::size_t& owner = toucher[member][u];
                EXPECT_TRUE(owner == phase.chains.size() || owner == c)
                    << "chains " << owner << " and " << c << " share unit "
                    << u << " of member " << member;
                owner = c;
              }
            }
            if (phase.kind == HopKind::kFold) {
              EXPECT_TRUE(ops.insert({hop.seed_id, hop.op}).second)
                  << "seed id " << hop.seed_id << " op " << hop.op
                  << " used twice";
            }
          }
        }
        // Step t: every hop's payload leaves before any lands.
        for (std::size_t t = 0; t < steps; ++t) {
          std::vector<std::pair<const Hop*, std::vector<std::uint32_t>>>
              arrivals;
          for (const auto& chain : phase.chains) {
            if (t < chain.size()) {
              const Hop& hop = chain[t];
              arrivals.push_back(
                  {&hop,
                   {held[hop.src].begin() +
                        static_cast<std::ptrdiff_t>(hop.begin),
                    held[hop.src].begin() +
                        static_cast<std::ptrdiff_t>(hop.begin + hop.count)}});
            }
          }
          for (const auto& [hop, arriving] : arrivals) {
            for (std::size_t i = 0; i < hop->count; ++i) {
              std::uint32_t& resident = held[hop->dst][hop->begin + i];
              if (phase.kind == HopKind::kCopy) {
                resident = arriving[i];
                continue;
              }
              ASSERT_EQ(arriving[i] & resident, 0u)
                  << "a contribution folded twice";
              ASSERT_EQ(static_cast<std::size_t>(std::popcount(arriving[i])),
                        hop->arriving_weight);
              ASSERT_EQ(static_cast<std::size_t>(std::popcount(resident)),
                        hop->resident_weight);
              resident |= arriving[i];
            }
          }
        }
        if (&phase == last_fold) {
          for (const auto& chain : phase.chains) {
            ASSERT_FALSE(chain.empty());
            const Hop& last = chain.back();
            for (std::size_t u = last.begin; u < last.begin + last.count;
                 ++u) {
              EXPECT_EQ(held[last.dst][u], everyone)
                  << "unit " << u << " short of weight " << m;
            }
          }
        }
      }
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t u = 0; u < w; ++u) {
          ASSERT_EQ(held[i][u], everyone)
              << "member " << i << " unit " << u << " lacks the aggregate";
        }
      }
      EXPECT_EQ(payload, 2 * (m - 1) * w);
      NetworkSim net(m, CostModel{});
      EXPECT_EQ(
          price_hop_schedule(schedule, one_bit_wire(), net).total_wire_bits,
          static_cast<double>(64 * 2 * (m - 1) * w));
    }
  }
}

TEST(HopScheduleTest, FoldsEveryOperandPairInTheDocumentedOrder) {
  // ⊙ draws its mask for the first operand, so the operand order is part
  // of the result, yet a flipped order stays unbiased and both interpreters
  // would share it.  At W = 1 only segment 0 holds a word, and each
  // schedule's fold is a short chain written out here directly.
  const std::uint64_t round_seed = 0x0bde;
  for (const Shape& shape : shapes()) {
    const std::size_t m = shape.members;
    SCOPED_TRACE(describe(shape, 1));
    Rng init(derive_seed(round_seed, m));
    std::vector<std::uint64_t> word(m);
    for (std::uint64_t& w : word) {
      w = init.next_u64();
    }
    // a(wa) ⊙ b(wb), the mask drawn for a.
    const auto fold = [round_seed](std::uint64_t a, std::size_t wa,
                                   std::uint64_t b, std::size_t wb,
                                   std::size_t seed_id, std::size_t op) {
      Rng rng = segment_op_rng(segment_fold_seed(round_seed, seed_id), op);
      one_bit_combine_words(std::span(&a, 1), wa, std::span(&b, 1), wb, rng);
      return a;
    };
    // The aggregate of `count` members from `first` on, one ⊙ per member
    // in order, the running aggregate first.
    const auto chain = [&](std::size_t first, std::size_t count,
                           std::size_t seed_id) {
      std::uint64_t acc = word[first];
      for (std::size_t k = 0; k + 1 < count; ++k) {
        acc = fold(acc, k + 1, word[first + k + 1], 1, seed_id, k);
      }
      return acc;
    };
    std::uint64_t expected = 0;
    const std::size_t rows = shape.paradigm == MarParadigm::kTorus2d
                                 ? torus_rows_for(shape.torus_cols, m)
                                 : 0;
    if (shape.paradigm == MarParadigm::kTree) {
      std::vector<std::size_t> weight(m, 1);
      std::size_t op = 0;
      for (std::size_t stride = 1; stride < m; stride *= 2) {
        for (std::size_t i = 0; i + stride < m; i += 2 * stride) {
          word[i] = fold(word[i], weight[i], word[i + stride],
                         weight[i + stride], 0, op++);
          weight[i] += weight[i + stride];
        }
      }
      expected = word[0];
    } else if (rows > 0) {
      // Row r's chain of segment 0 (seed id r·cols), then column cols−1,
      // which owns segment 0, merges the rows (seed id M + (cols−1)·rows).
      const std::size_t cols = shape.torus_cols;
      expected = chain(0, cols, 0);
      for (std::size_t r = 1; r < rows; ++r) {
        expected = fold(expected, r * cols, chain(r * cols, cols, r * cols),
                        cols, m + (cols - 1) * rows, r - 1);
      }
    } else {
      expected = chain(0, m, 0);  // ring, and PS's server chain
    }

    std::vector<BitVector> signs(m, BitVector(64));
    for (std::size_t i = 0; i < m; ++i) {
      signs[i].words()[0] = word[i];
    }
    marsit_fold_signs_segmented(shape.paradigm, shape.torus_rows,
                                shape.torus_cols, signs, m, 1, round_seed);
    EXPECT_EQ(signs.front().words()[0], expected);
  }
}

TEST(HopScheduleTest, TransportExecutionMatchesTheInMemoryFold) {
  ThreadPool pool(3);
  std::uint64_t salt = 0;
  for (const Shape& shape : shapes()) {
    const std::size_t m = shape.members;
    for (const std::size_t w : widths(m)) {
      SCOPED_TRACE(describe(shape, w));
      const std::uint64_t round_seed = derive_seed(0x40b5, ++salt);
      Rng init(derive_seed(0x51a7, salt));
      std::vector<BitVector> signs(m, BitVector(64 * w));
      for (BitVector& plane : signs) {
        for (std::uint64_t& word : plane.words()) {
          word = init.next_u64();
        }
      }
      std::vector<BitVector> folded = signs;
      marsit_fold_signs_segmented(shape.paradigm, shape.torus_rows,
                                  shape.torus_cols, folded, m, w, round_seed,
                                  &pool);

      const HopSchedule schedule = schedule_of(RoundKind::kOneBit, shape, w);
      std::vector<double> sent(m, 0.0);
      on_fabric(m, [&](std::size_t rank, Transport& transport) {
        sent[rank] = execute_hop_schedule(transport, schedule, 3, round_seed,
                                          signs[rank].words());
      });
      double total = 0.0;
      for (std::size_t r = 0; r < m; ++r) {
        EXPECT_EQ(std::memcmp(signs[r].words().data(),
                              folded.front().words().data(),
                              w * sizeof(std::uint64_t)),
                  0)
            << "rank " << r << " differs from the in-memory fold";
        total += sent[r];
      }
      EXPECT_EQ(total, static_cast<double>(8 * 2 * (m - 1) * w));
    }
  }
}

TEST(HopScheduleTest, FloatAllReduceMatchesTheInMemoryFoldOnEveryRank) {
  std::uint64_t salt = 0;
  for (const Shape& shape : shapes()) {
    const std::size_t m = shape.members;
    for (const std::size_t d : widths(m)) {
      SCOPED_TRACE(describe(shape, d));
      // Magnitudes spread over 2^±12, so the sum depends on its association.
      Rng init(derive_seed(0xf10a7, ++salt));
      std::vector<std::vector<float>> values(m, std::vector<float>(d));
      for (std::vector<float>& row : values) {
        for (float& v : row) {
          v = std::ldexp(static_cast<float>(init.normal()),
                         static_cast<int>(init.next_u64() % 25) - 12);
        }
      }
      const HopSchedule schedule =
          schedule_of(RoundKind::kAllReduce, shape, d);
      // The in-memory fold, `window` units at a time.
      const auto fold_in_memory = [&](std::size_t window) {
        std::vector<std::vector<float>> rows = values;
        const std::vector<std::span<float>> spans(rows.begin(), rows.end());
        std::vector<float> sum(d, -1.0f);
        for (std::size_t begin = 0; begin < d; begin += window) {
          fold_float_schedule(schedule, spans,
                              {begin, std::min(window, d - begin)}, sum);
        }
        return sum;
      };
      const std::vector<float> whole = fold_in_memory(d);
      const auto same_bytes = [d](const std::vector<float>& a,
                                  const std::vector<float>& b) {
        return std::memcmp(a.data(), b.data(), d * sizeof(float)) == 0;
      };
      EXPECT_TRUE(same_bytes(fold_in_memory(1), whole))
          << "unit windows differ from the whole-range fold";
      if (shape.paradigm == MarParadigm::kParameterServer) {
        std::vector<float> left = values[0];
        for (std::size_t k = 1; k < m; ++k) {
          for (std::size_t i = 0; i < d; ++i) {
            left[i] = left[i] + values[k][i];
          }
        }
        EXPECT_TRUE(same_bytes(whole, left))
            << "the server's sum is not the left fold in rank order";
      }

      std::vector<std::vector<float>> ranks = values;
      std::vector<double> sent(m, 0.0);
      on_fabric(m, [&](std::size_t rank, Transport& transport) {
        sent[rank] = execute_hop_schedule(transport, schedule, 5,
                                          std::span<float>(ranks[rank]));
      });
      double total = 0.0;
      for (std::size_t r = 0; r < m; ++r) {
        EXPECT_TRUE(same_bytes(ranks[r], ranks[0]))
            << "rank " << r << " differs from rank 0";
        EXPECT_TRUE(same_bytes(ranks[r], whole))
            << "rank " << r << " differs from the in-memory fold";
        total += sent[r];
      }
      NetworkSim net(m, CostModel{});
      EXPECT_EQ(8.0 * total,
                price_hop_schedule(schedule, full_precision_wire(), net)
                    .total_wire_bits);
    }
  }
}

}  // namespace
}  // namespace marsit
