#include "net/network_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "net/crc32.hpp"
#include "util/rng.hpp"

namespace marsit {
namespace {

CostModel simple_model() {
  CostModel model;
  model.link_alpha = 1.0;          // 1 s latency
  model.link_bandwidth = 100.0;    // 100 B/s
  model.server_bandwidth = 100.0;
  return model;
}

TEST(NetworkSimTest, AlphaBetaTransferTime) {
  NetworkSim net(2, simple_model());
  // 200 bytes at 100 B/s + 1 s latency = 3 s.
  EXPECT_DOUBLE_EQ(net.transfer(0, 1, 200.0, 0.0), 3.0);
}

TEST(NetworkSimTest, TransferBitsConvertsToBytes) {
  NetworkSim net(2, simple_model());
  EXPECT_DOUBLE_EQ(net.transfer_bits(0, 1, 800.0, 0.0), 2.0);
}

TEST(NetworkSimTest, ReadyTimeDelaysStart) {
  NetworkSim net(2, simple_model());
  EXPECT_DOUBLE_EQ(net.transfer(0, 1, 100.0, 10.0), 12.0);
}

TEST(NetworkSimTest, EgressSerializesBackToBackSends) {
  NetworkSim net(3, simple_model());
  const double first = net.transfer(0, 1, 100.0, 0.0);   // 0 → 2
  const double second = net.transfer(0, 2, 100.0, 0.0);  // must wait
  EXPECT_DOUBLE_EQ(first, 2.0);
  EXPECT_DOUBLE_EQ(second, 4.0);
}

TEST(NetworkSimTest, IngressSerializesConcurrentReceives) {
  NetworkSim net(3, simple_model());
  const double first = net.transfer(0, 2, 100.0, 0.0);
  const double second = net.transfer(1, 2, 100.0, 0.0);
  EXPECT_DOUBLE_EQ(first, 2.0);
  EXPECT_DOUBLE_EQ(second, 4.0);
}

TEST(NetworkSimTest, DisjointPairsRunInParallel) {
  NetworkSim net(4, simple_model());
  const double a = net.transfer(0, 1, 100.0, 0.0);
  const double b = net.transfer(2, 3, 100.0, 0.0);
  EXPECT_DOUBLE_EQ(a, 2.0);
  EXPECT_DOUBLE_EQ(b, 2.0);  // different NICs: no serialization
}

TEST(NetworkSimTest, PsIngestCongestionScalesWithSenders) {
  // M workers pushing to one server: completion grows linearly in M — the
  // congestion Figure 1a attributes to PS.
  for (std::size_t m : {2u, 4u, 8u}) {
    NetworkSim net(m + 1, simple_model());
    double last = 0.0;
    for (std::size_t w = 0; w < m; ++w) {
      last = std::max(last, net.transfer(w, m, 100.0, 0.0, true));
    }
    EXPECT_DOUBLE_EQ(last, 2.0 * static_cast<double>(m));
  }
}

TEST(NetworkSimTest, ServerBandwidthUsedForServerEndpoint) {
  CostModel model = simple_model();
  model.server_bandwidth = 200.0;  // faster server NIC
  NetworkSim net(2, model);
  EXPECT_DOUBLE_EQ(net.transfer(0, 1, 200.0, 0.0, true), 2.0);
  net.reset();
  EXPECT_DOUBLE_EQ(net.transfer(0, 1, 200.0, 0.0, false), 3.0);
}

TEST(NetworkSimTest, StatisticsAccumulate) {
  NetworkSim net(2, simple_model());
  net.transfer(0, 1, 100.0, 0.0);
  net.transfer(1, 0, 50.0, 0.0);
  EXPECT_DOUBLE_EQ(net.total_bytes(), 150.0);
  EXPECT_EQ(net.total_messages(), 2u);
}

TEST(NetworkSimTest, ResetClearsState) {
  NetworkSim net(2, simple_model());
  net.transfer(0, 1, 100.0, 0.0);
  net.reset();
  EXPECT_DOUBLE_EQ(net.total_bytes(), 0.0);
  EXPECT_EQ(net.total_messages(), 0u);
  EXPECT_DOUBLE_EQ(net.egress_free(0), 0.0);
  EXPECT_DOUBLE_EQ(net.transfer(0, 1, 100.0, 0.0), 2.0);
}

TEST(NetworkSimTest, InvalidArgumentsThrow) {
  NetworkSim net(2, simple_model());
  EXPECT_THROW(net.transfer(0, 0, 10.0, 0.0), CheckError);   // self-send
  EXPECT_THROW(net.transfer(0, 5, 10.0, 0.0), CheckError);   // out of range
  EXPECT_THROW(net.transfer(0, 1, -1.0, 0.0), CheckError);   // negative size
  EXPECT_THROW(NetworkSim(1, simple_model()), CheckError);   // too small
}

TEST(NetworkSimTest, NicFreeTimesVisible) {
  NetworkSim net(2, simple_model());
  net.transfer(0, 1, 100.0, 0.0);
  EXPECT_DOUBLE_EQ(net.egress_free(0), 2.0);
  EXPECT_DOUBLE_EQ(net.ingress_free(1), 2.0);
  EXPECT_DOUBLE_EQ(net.ingress_free(0), 0.0);
}

// --- fault injection --------------------------------------------------------------

TEST(NetworkSimFaultTest, EmptyPlanTakesFaultFreePath) {
  // An attached but empty plan (and membership-only plans) must leave the
  // arithmetic bit-identical to no plan at all.
  FaultPlan empty;
  FaultPlan membership_only;
  membership_only.dropout_rate = 0.5;
  for (const FaultPlan* plan : {&empty, &membership_only}) {
    NetworkSim net(2, simple_model());
    net.set_fault_plan(plan);
    net.begin_round(3);
    EXPECT_DOUBLE_EQ(net.transfer(0, 1, 200.0, 0.0), 3.0);
    EXPECT_DOUBLE_EQ(net.retransmitted_bytes(), 0.0);
    EXPECT_EQ(net.retransmissions(), 0u);
  }
}

TEST(NetworkSimFaultTest, StragglerSlowsEitherEndpoint) {
  FaultPlan plan;
  plan.stragglers.push_back({1, 3.0});
  NetworkSim net(3, simple_model());
  net.set_fault_plan(&plan);
  net.begin_round(0);
  // 1 s alpha + 200 B · 3 / 100 B/s = 7 s whenever node 1 is an endpoint.
  EXPECT_DOUBLE_EQ(net.transfer(0, 1, 200.0, 0.0), 7.0);
  net.begin_round(1);
  EXPECT_DOUBLE_EQ(net.transfer(1, 0, 200.0, 0.0), 7.0);
  net.begin_round(2);
  EXPECT_DOUBLE_EQ(net.transfer(0, 2, 200.0, 0.0), 3.0);  // avoids node 1
}

TEST(NetworkSimFaultTest, OutageDefersAcrossAbuttingWindows) {
  FaultPlan plan;
  plan.outages.push_back({1, 0.0, 5.0});
  plan.outages.push_back({1, 5.0, 8.0});
  NetworkSim net(3, simple_model());
  net.set_fault_plan(&plan);
  net.begin_round(0);
  // Start slides past both windows: 8 s + (1 + 1) s transfer.
  EXPECT_DOUBLE_EQ(net.transfer(0, 1, 100.0, 0.0), 10.0);
  // A transfer avoiding node 1 is unaffected.
  EXPECT_DOUBLE_EQ(net.transfer(0, 2, 100.0, 0.0), 12.0);  // egress busy til 10
}

TEST(NetworkSimFaultTest, PacketLossRetriesWithBackoffAndCountsBits) {
  FaultPlan plan;
  plan.packet_loss = 0.999999;  // effectively always lost, still valid
  plan.max_retries = 3;
  plan.retry_timeout = 1.0;
  plan.retry_backoff = 2.0;
  NetworkSim net(2, simple_model());
  net.set_fault_plan(&plan);
  net.begin_round(0);
  // 3 losses burn timeouts 1 + 2 + 4 = 7 s, then the message lands:
  // 7 + 1 + 100/100 = 9 s.
  EXPECT_DOUBLE_EQ(net.transfer(0, 1, 100.0, 0.0), 9.0);
  EXPECT_DOUBLE_EQ(net.retransmitted_bytes(), 300.0);
  EXPECT_EQ(net.retransmissions(), 3u);
  // Retransmissions consume real bandwidth: 4 attempts on the wire.
  EXPECT_DOUBLE_EQ(net.total_bytes(), 400.0);
  // begin_round clears the counters with the rest of the statistics.
  net.begin_round(1);
  EXPECT_DOUBLE_EQ(net.retransmitted_bytes(), 0.0);
  EXPECT_EQ(net.retransmissions(), 0u);
}

TEST(NetworkSimFaultTest, JitterBoundedAndDeterministicPerRound) {
  FaultPlan plan;
  plan.seed = 17;
  plan.latency_jitter = 0.5;
  const auto run = [&plan](std::size_t round) {
    NetworkSim net(2, simple_model());
    net.set_fault_plan(&plan);
    net.begin_round(round);
    return net.transfer(0, 1, 100.0, 0.0);
  };
  const double first = run(4);
  EXPECT_GE(first, 2.0);
  EXPECT_LT(first, 2.5);
  EXPECT_DOUBLE_EQ(run(4), first);  // same (seed, round) => same draw
  EXPECT_NE(run(5), first);         // per-round streams are independent
}

TEST(NetworkSimFaultTest, InvalidPlansRejected) {
  const auto attach = [](const FaultPlan& plan) {
    NetworkSim net(2, simple_model());
    net.set_fault_plan(&plan);
  };
  FaultPlan loss;
  loss.packet_loss = 1.0;  // must stay below 1 (retry loop must terminate)
  EXPECT_THROW(attach(loss), CheckError);
  FaultPlan slow;
  slow.stragglers.push_back({0, 0.5});  // speedups are not faults
  EXPECT_THROW(attach(slow), CheckError);
  FaultPlan outage;
  outage.outages.push_back({0, 5.0, 2.0});  // inverted window
  EXPECT_THROW(attach(outage), CheckError);
  FaultPlan dropout;
  dropout.dropout_rate = -0.1;
  EXPECT_THROW(attach(dropout), CheckError);
}

TEST(FaultPlanTest, ExplicitDropoutWindows) {
  FaultPlan plan;
  plan.dropouts.push_back({2, 5, 8});
  EXPECT_FALSE(plan.worker_absent(2, 4));
  EXPECT_TRUE(plan.worker_absent(2, 5));
  EXPECT_TRUE(plan.worker_absent(2, 7));
  EXPECT_FALSE(plan.worker_absent(2, 8));  // [from, to) is half-open
  EXPECT_FALSE(plan.worker_absent(1, 6));  // other workers unaffected
}

TEST(FaultPlanTest, BernoulliDropoutDeterministicAndCalibrated) {
  FaultPlan plan;
  plan.seed = 99;
  plan.dropout_rate = 0.3;
  std::size_t absent = 0;
  const std::size_t draws = 4000;
  for (std::size_t round = 0; round < draws / 4; ++round) {
    for (std::size_t worker = 0; worker < 4; ++worker) {
      const bool a = plan.worker_absent(worker, round);
      EXPECT_EQ(a, plan.worker_absent(worker, round));  // pure function
      absent += a ? 1 : 0;
    }
  }
  const double rate = static_cast<double>(absent) / draws;
  EXPECT_NEAR(rate, 0.3, 0.03);
}

// --- wire integrity (corruption + CRC32) -------------------------------------------

TEST(Crc32Test, MatchesReferenceCheckValue) {
  // The standard CRC-32/IEEE check value: crc32("123456789").
  const char* digits = "123456789";
  EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
  EXPECT_TRUE(crc32_matches(digits, 9, 0xCBF43926u));
  EXPECT_FALSE(crc32_matches(digits, 9, 0xCBF43927u));
}

// Bit-at-a-time CRC-32/IEEE straight from the polynomial: the oracle the
// sliced implementation must match on every length and alignment.
std::uint32_t bitwise_crc32(const std::uint8_t* bytes, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  std::vector<std::uint8_t> bytes(3 * 1024 * 1024 + 37);
  Rng rng(2024);
  for (std::uint8_t& b : bytes) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t size = 0; size <= 256; ++size) {
      ASSERT_EQ(crc32(bytes.data() + offset, size),
                bitwise_crc32(bytes.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
  EXPECT_EQ(crc32(bytes.data(), bytes.size()),
            bitwise_crc32(bytes.data(), bytes.size()));
  EXPECT_EQ(crc32(bytes.data() + 5, bytes.size() - 5),
            bitwise_crc32(bytes.data() + 5, bytes.size() - 5));
  EXPECT_EQ(crc32(std::span<const std::uint8_t>(bytes)),
            bitwise_crc32(bytes.data(), bytes.size()));
}

TEST(Crc32Test, UpdateChainsAtEverySplitPoint) {
  // crc32_update(crc32(a), b) == crc32(a | b) wherever the buffer is cut —
  // the property SocketTransport relies on when it CRCs a frame piecewise.
  std::vector<std::uint8_t> bytes(300);
  Rng rng(77);
  for (std::uint8_t& b : bytes) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::uint32_t head = crc32_update(0, bytes.data(), cut);
    ASSERT_EQ(crc32_update(head, bytes.data() + cut, bytes.size() - cut),
              whole)
        << "split at " << cut;
  }
}

TEST(Crc32Test, UpdateChainsOverUnevenPieces) {
  std::vector<std::uint8_t> bytes(3 * 1024 * 1024 + 37);
  Rng rng(2024);
  for (std::uint8_t& b : bytes) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  // Piece lengths straddle the 16-byte step and the 64-byte block of the
  // folding kernel, and a piece longer than the socket's.
  const std::size_t pieces[] = {1,  15, 16,   17,     63,   64,
                                65, 0,  4093, 262144, 100003};
  std::uint32_t state = 0;
  std::size_t offset = 0;
  for (std::size_t i = 0; offset < bytes.size(); ++i) {
    const std::size_t n = std::min(pieces[i % std::size(pieces)],
                                   bytes.size() - offset);
    state = crc32_update(state, bytes.data() + offset, n);
    offset += n;
  }
  EXPECT_EQ(state, crc32(bytes.data(), bytes.size()));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> payload(64, 0xa5);
  const std::uint32_t footer = crc32(payload.data(), payload.size());
  payload[17] ^= 0x04;
  EXPECT_FALSE(crc32_matches(payload.data(), payload.size(), footer));
}

TEST(NetworkSimFaultTest, CorruptionAddsCrcFooterToEveryMessage) {
  FaultPlan plan;
  plan.corruption_rate = 1e-12;  // footer cost even when nothing corrupts
  plan.retry_timeout = 1.0;
  NetworkSim net(2, simple_model());
  net.set_fault_plan(&plan);
  net.begin_round(0);
  // 100 payload bytes + 4 CRC footer bytes at 100 B/s + 1 s latency.
  EXPECT_DOUBLE_EQ(net.transfer(0, 1, 100.0, 0.0), 2.04);
  EXPECT_DOUBLE_EQ(net.total_bytes(), 104.0);
  EXPECT_EQ(net.retransmissions(), 0u);
}

TEST(NetworkSimFaultTest, CorruptionRetriesWithBackoffAndCountsBits) {
  FaultPlan plan;
  plan.corruption_rate = 0.999999;  // effectively always corrupted
  plan.max_retries = 3;
  plan.retry_timeout = 1.0;
  plan.retry_backoff = 2.0;
  NetworkSim net(2, simple_model());
  net.set_fault_plan(&plan);
  net.begin_round(0);
  // 3 corrupted attempts burn timeouts 1 + 2 + 4 = 7 s, then the CRC
  // passes: 7 + 1 + 104/100 = 9.04 s.  Every burned attempt carries the
  // footer too.
  EXPECT_DOUBLE_EQ(net.transfer(0, 1, 100.0, 0.0), 9.04);
  EXPECT_DOUBLE_EQ(net.retransmitted_bytes(), 3.0 * 104.0);
  EXPECT_EQ(net.retransmissions(), 3u);
  EXPECT_DOUBLE_EQ(net.total_bytes(), 4.0 * 104.0);
}

TEST(NetworkSimFaultTest, LossAndCorruptionRetryPathsChargeIdentically) {
  // ISSUE satellite: both retry loops route through one engine, so an
  // identical (seed, attempts) draw must charge identical retransmitted
  // bytes and elapsed time — the only corruption-path difference is the
  // CRC footer riding on every attempt.
  FaultPlan loss;
  loss.seed = 99;
  loss.packet_loss = 0.6;
  loss.max_retries = 6;
  loss.retry_timeout = 1.0;
  loss.retry_backoff = 2.0;
  FaultPlan corruption = loss;
  corruption.packet_loss = 0.0;
  corruption.corruption_rate = 0.6;
  std::size_t rounds_with_retries = 0;
  for (std::size_t round = 0; round < 12; ++round) {
    NetworkSim a(2, simple_model());
    a.set_fault_plan(&loss);
    a.begin_round(round);
    NetworkSim b(2, simple_model());
    b.set_fault_plan(&corruption);
    b.begin_round(round);
    const double end_loss = a.transfer(0, 1, 100.0, 0.0);
    const double end_corruption = b.transfer(0, 1, 100.0, 0.0);
    // Same seed and rate => the same Bernoulli draws => the same attempts.
    ASSERT_EQ(a.retransmissions(), b.retransmissions());
    const double r = static_cast<double>(a.retransmissions());
    rounds_with_retries += a.retransmissions() > 0 ? 1 : 0;
    // Elapsed: equal timeouts, plus one footer serialization on delivery
    // (NEAR: the backoff sums are rounded differently before subtracting).
    EXPECT_NEAR(end_corruption - end_loss, kCrcFooterBytes / 100.0, 1e-9);
    // Retransmitted bytes: equal payload burn, plus a footer per attempt.
    EXPECT_DOUBLE_EQ(b.retransmitted_bytes() - a.retransmitted_bytes(),
                     r * kCrcFooterBytes);
    EXPECT_DOUBLE_EQ(b.total_bytes() - a.total_bytes(),
                     (r + 1.0) * kCrcFooterBytes);
  }
  EXPECT_GT(rounds_with_retries, 0u) << "the sweep never drew a retry";
}

TEST(NetworkSimFaultTest, CorruptionRateValidated) {
  const auto attach = [](const FaultPlan& plan) {
    NetworkSim net(2, simple_model());
    net.set_fault_plan(&plan);
  };
  FaultPlan saturated;
  saturated.corruption_rate = 1.0;  // retry loop must terminate
  EXPECT_THROW(attach(saturated), CheckError);
  FaultPlan no_timeout;
  no_timeout.corruption_rate = 0.5;
  no_timeout.retry_timeout = 0.0;
  EXPECT_THROW(attach(no_timeout), CheckError);
}

TEST(FaultPlanTest, CorruptionOnlyPlanReportsFaults) {
  // ISSUE satellite fix: a default-constructed plan with only the
  // corruption knob (or only a rejoin window) set must still trip the
  // fault-path predicates.
  FaultPlan corruption_only;
  corruption_only.corruption_rate = 0.25;
  EXPECT_TRUE(corruption_only.has_faults());
  EXPECT_TRUE(corruption_only.has_link_faults());
  EXPECT_FALSE(corruption_only.has_membership_faults());
  EXPECT_TRUE(corruption_only.affects_membership());

  FaultPlan rejoin_only;
  rejoin_only.dropouts.push_back({1, 3, 6, true});
  EXPECT_TRUE(rejoin_only.has_faults());
  EXPECT_TRUE(rejoin_only.has_membership_faults());
  EXPECT_TRUE(rejoin_only.affects_membership());

  FaultPlan empty;
  EXPECT_FALSE(empty.has_faults());
  EXPECT_FALSE(empty.affects_membership());
}

TEST(FaultPlanTest, SenderDemotionIsDeterministicAndRateBound) {
  FaultPlan plan;
  plan.seed = 5;
  plan.corruption_rate = 0.999999;
  plan.max_retries = 2;
  // Nearly-certain corruption exhausts the retry budget essentially always.
  std::size_t demoted = 0;
  for (std::size_t round = 0; round < 50; ++round) {
    const bool d = plan.sender_demoted(0, round);
    EXPECT_EQ(d, plan.sender_demoted(0, round));  // pure function
    demoted += d ? 1 : 0;
  }
  EXPECT_EQ(demoted, 50u);
  // A clean wire never demotes.
  plan.corruption_rate = 0.0;
  EXPECT_FALSE(plan.sender_demoted(0, 0));
  // Moderate corruption demotes at ~rate^(max_retries+1): p=0.5^3 = 0.125.
  plan.corruption_rate = 0.5;
  std::size_t rare = 0;
  const std::size_t draws = 4000;
  for (std::size_t round = 0; round < draws / 4; ++round) {
    for (std::size_t worker = 0; worker < 4; ++worker) {
      rare += plan.sender_demoted(worker, round) ? 1 : 0;
    }
  }
  EXPECT_NEAR(static_cast<double>(rare) / draws, 0.125, 0.02);
}

TEST(FaultPlanTest, RejoinAtFlushExtendsWindowToBoundary) {
  FaultPlan plan;
  plan.dropouts.push_back({2, 3, 6, true});
  // With flush period K = 4, the window [3, 6) stretches to the next
  // multiple of 4: [3, 8).
  EXPECT_FALSE(plan.worker_absent(2, 2, 4));
  EXPECT_TRUE(plan.worker_absent(2, 5, 4));
  EXPECT_TRUE(plan.worker_absent(2, 6, 4));   // would have returned at 6
  EXPECT_TRUE(plan.worker_absent(2, 7, 4));
  EXPECT_FALSE(plan.worker_absent(2, 8, 4));  // back at the flush
  EXPECT_TRUE(plan.flush_rejoin_at(2, 8, 4));
  EXPECT_FALSE(plan.flush_rejoin_at(2, 6, 4));
  EXPECT_FALSE(plan.flush_rejoin_at(1, 8, 4));
  // A window already ending on a boundary gains nothing.
  FaultPlan aligned;
  aligned.dropouts.push_back({1, 2, 8, true});
  EXPECT_TRUE(aligned.worker_absent(1, 7, 4));
  EXPECT_FALSE(aligned.worker_absent(1, 8, 4));
  EXPECT_TRUE(aligned.flush_rejoin_at(1, 8, 4));
  // No flush period (K = 0): plain [from, to) semantics, no flush rejoin.
  EXPECT_FALSE(plan.worker_absent(2, 6, 0));
  EXPECT_FALSE(plan.flush_rejoin_at(2, 8, 0));
}

}  // namespace
}  // namespace marsit
