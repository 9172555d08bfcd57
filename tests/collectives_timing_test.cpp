// Wire formats priced through price_hop_schedule (core/hop_schedule.hpp):
// the ring, torus and parameter-server closed forms, the fault accounting,
// and the argument checks.
#include "collectives/timing.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "core/hop_schedule.hpp"
#include "core/sync_strategy.hpp"
#include "net/crc32.hpp"
#include "net/fault_plan.hpp"
#include "util/check.hpp"

namespace marsit {
namespace {

using enum RoundKind;
using enum MarParadigm;

CostModel test_model() {
  CostModel model;
  model.link_alpha = 1.0;
  model.link_bandwidth = 100.0;  // bytes/s
  model.server_bandwidth = 100.0;
  // Make local processing negligible so closed-form checks are exact.
  model.sign_pack_rate = 1e18;
  model.sign_unpack_rate = 1e18;
  model.stochastic_sign_rate = 1e18;
  model.one_bit_combine_rate = 1e18;
  model.cascade_recompress_rate = 1e18;
  model.elias_code_rate = 1e18;
  return model;
}

TEST(RingTimingTest, FullPrecisionMatchesClosedForm) {
  const CostModel model = test_model();
  NetworkSim net(4, model);
  const std::size_t m = 4, d = 400;  // seg = 100 elements = 400 bytes
  const CollectiveTiming timing = price_hop_schedule(
      hop_schedule(kAllReduce, kRing, 0, m, d), full_precision_wire(), net);
  // 2(M−1) synchronous steps of (α + 400/β) each.
  EXPECT_NEAR(timing.completion_seconds, 6.0 * (1.0 + 4.0), 1e-9);
  // Total bits: 2(M−1) steps × M segments × 32·seg bits.
  EXPECT_NEAR(timing.total_wire_bits, 6.0 * 4.0 * 3200.0, 1e-9);
  EXPECT_NEAR(timing.bits_per_worker, timing.total_wire_bits / 4.0, 1e-9);
}

TEST(RingTimingTest, UnevenSegmentsCountExactBits) {
  // 4978 = 4·1244 + 2: the hops carry the segments the schedule sends,
  // 1245, 1245, 1244 and 1244 floats, not four padded ⌈D/M⌉ = 1245.
  const CostModel model = test_model();
  NetworkSim net(4, model);
  const CollectiveTiming timing =
      price_hop_schedule(hop_schedule(kAllReduce, kRing, 0, 4, 4978),
                         full_precision_wire(), net);
  EXPECT_EQ(timing.total_wire_bits, 2.0 * 3.0 * 4978.0 * 32.0);
  EXPECT_EQ(timing.total_wire_bits, 955776.0);
}

TEST(RingTimingTest, MarsitWireIs32xSmaller) {
  const CostModel model = test_model();
  const HopSchedule schedule = hop_schedule(kAllReduce, kRing, 0, 4, 3200);
  NetworkSim net(4, model);
  const auto full = price_hop_schedule(schedule, full_precision_wire(), net);
  net.reset();
  const auto one_bit = price_hop_schedule(schedule, marsit_wire(model), net);
  EXPECT_NEAR(full.total_wire_bits / one_bit.total_wire_bits, 32.0, 1e-9);
  EXPECT_LT(one_bit.completion_seconds, full.completion_seconds);
}

TEST(RingTimingTest, MarsitTotalBitsFormula) {
  // One-bit ring: 2(M−1)·D bits total when M | D.
  const CostModel model = test_model();
  NetworkSim net(8, model);
  const auto timing = price_hop_schedule(
      hop_schedule(kAllReduce, kRing, 0, 8, 800), marsit_wire(model), net);
  EXPECT_NEAR(timing.total_wire_bits, 2.0 * 7.0 * 800.0, 1e-9);
}

TEST(RingTimingTest, CascadingSlowerThanMarsitWithRealRates) {
  CostModel model = test_model();
  model.cascade_recompress_rate = 10.0;  // 10 elements/s: brutal hops
  const HopSchedule schedule = hop_schedule(kAllReduce, kRing, 0, 4, 400);
  NetworkSim net(4, model);
  const auto cascade =
      price_hop_schedule(schedule, cascading_wire(model), net);
  net.reset();
  const auto one_bit = price_hop_schedule(schedule, marsit_wire(model), net);
  EXPECT_GT(cascade.completion_seconds, one_bit.completion_seconds);
  EXPECT_GT(cascade.compression_seconds_per_worker(),
            one_bit.compression_seconds_per_worker());
}

TEST(RingTimingTest, SignSumBitsGrowWithContributions) {
  const CostModel model = test_model();
  const WireFormat wire = sign_sum_wire(model);
  EXPECT_LT(wire.reduce_bits(100, 1), wire.reduce_bits(100, 3));
  EXPECT_LT(wire.reduce_bits(100, 3), wire.reduce_bits(100, 8));
  // Gather carries the finalized one-bit decision.
  EXPECT_NEAR(wire.gather_bits(100), 100.0, 1e-12);
}

TEST(RingTimingTest, SignSumWireCostsMoreThanMarsit) {
  const CostModel model = test_model();
  const HopSchedule schedule = hop_schedule(kAllReduce, kRing, 0, 8, 6400);
  NetworkSim net(8, model);
  const auto sign_sum =
      price_hop_schedule(schedule, sign_sum_wire(model), net);
  net.reset();
  const auto one_bit = price_hop_schedule(schedule, marsit_wire(model), net);
  EXPECT_GT(sign_sum.total_wire_bits, one_bit.total_wire_bits);
  EXPECT_GT(sign_sum.completion_seconds, one_bit.completion_seconds);
}

TEST(RingTimingTest, RejectsDegenerateArguments) {
  const CostModel model = test_model();
  const WireFormat wire = marsit_wire(model);
  NetworkSim net(4, model);
  EXPECT_THROW(
      price_hop_schedule(hop_schedule(kAllReduce, kRing, 0, 1, 100), wire,
                         net),
      CheckError);
  EXPECT_THROW(
      price_hop_schedule(hop_schedule(kAllReduce, kRing, 0, 4, 0), wire, net),
      CheckError);
  EXPECT_THROW(
      price_hop_schedule(hop_schedule(kAllReduce, kRing, 0, 8, 100), wire,
                         net),
      CheckError);  // network smaller than worker count
}

TEST(PsTimingTest, ServerCongestionScalesWithWorkers) {
  const CostModel model = test_model();
  // Same per-worker payload; PS completion grows ~linearly with M while
  // ring grows only in step count with shrinking segments.
  NetworkSim net4(5, model);
  const auto ps4 = price_hop_schedule(
      hop_schedule(kAllReduce, kParameterServer, 0, 4, 400,
                   PsServer::kOwnNode),
      full_precision_wire(), net4);
  NetworkSim net8(9, model);
  const auto ps8 = price_hop_schedule(
      hop_schedule(kAllReduce, kParameterServer, 0, 8, 400,
                   PsServer::kOwnNode),
      full_precision_wire(), net8);
  EXPECT_GT(ps8.completion_seconds, 1.7 * ps4.completion_seconds);
}

TEST(PsTimingTest, ServerNodeSerializesEveryMessage) {
  // M pushes through the server's ingress, then M sends through its
  // egress, each α + 4D/β_server: 2M messages back to back.
  const CostModel model = test_model();
  const std::size_t m = 4, d = 100;
  NetworkSim net(m + 1, model);
  const CollectiveTiming timing = price_hop_schedule(
      hop_schedule(kAllReduce, kParameterServer, 0, m, d,
                   PsServer::kOwnNode),
      full_precision_wire(), net);
  EXPECT_EQ(net.total_messages(), 2 * m);
  EXPECT_DOUBLE_EQ(timing.completion_seconds,
                   2.0 * m *
                       (model.link_alpha + 4.0 * d / model.server_bandwidth));
}

TEST(PsTimingTest, PsSlowerThanRingForFullPrecision) {
  // The motivating comparison of §3.1 / Figure 1a.
  const CostModel model = test_model();
  const std::size_t m = 8, d = 8000;
  NetworkSim ps_net(m + 1, model);
  const auto ps = price_hop_schedule(
      hop_schedule(kAllReduce, kParameterServer, 0, m, d,
                   PsServer::kOwnNode),
      full_precision_wire(), ps_net);
  NetworkSim ring_net(m, model);
  const auto ring = price_hop_schedule(
      hop_schedule(kAllReduce, kRing, 0, m, d), full_precision_wire(),
      ring_net);
  EXPECT_GT(ps.completion_seconds, ring.completion_seconds);
}

TEST(PsTimingTest, RequiresServerNode) {
  const CostModel model = test_model();
  NetworkSim net(4, model);  // no room for a server
  EXPECT_THROW(price_hop_schedule(hop_schedule(kAllReduce, kParameterServer,
                                               0, 4, 100, PsServer::kOwnNode),
                                  full_precision_wire(), net),
               CheckError);
}

TEST(TorusTimingTest, CompletesAndCountsBits) {
  const CostModel model = test_model();
  NetworkSim net(16, model);
  const auto timing =
      price_hop_schedule(hop_schedule(kAllReduce, kTorus2d, 4, 16, 1600),
                         marsit_wire(model), net);
  EXPECT_GT(timing.completion_seconds, 0.0);
  EXPECT_GT(timing.total_wire_bits, 0.0);
  EXPECT_GT(timing.bits_per_worker, 0.0);
}

TEST(TorusTimingTest, FewerLatencyStepsThanRingWhenAlphaDominates) {
  // 2(√M−1)·2 torus steps vs 2(M−1) ring steps: with α ≫ size/β the torus
  // wins — the paper's "each baseline takes less time under TAR".
  CostModel model = test_model();
  model.link_alpha = 10.0;
  model.link_bandwidth = 1e12;  // latency-bound
  const std::size_t m = 16, d = 16000;
  NetworkSim ring_net(m, model);
  const auto ring = price_hop_schedule(
      hop_schedule(kAllReduce, kRing, 0, m, d), full_precision_wire(),
      ring_net);
  NetworkSim torus_net(m, model);
  const auto torus = price_hop_schedule(
      hop_schedule(kAllReduce, kTorus2d, 4, m, d), full_precision_wire(),
      torus_net);
  EXPECT_LT(torus.completion_seconds, ring.completion_seconds);
}

TEST(TorusTimingTest, RejectsDegenerateShapes) {
  // A strategy refuses a torus that is one row or does not tile its
  // workers; the generator itself would re-form a one-row membership as a
  // ring (torus_rows_for).
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{1, 4},
                                   std::pair<std::size_t, std::size_t>{3, 2}}) {
    SyncConfig config;
    config.num_workers = 4;
    config.paradigm = kTorus2d;
    config.torus_rows = rows;
    config.torus_cols = cols;
    EXPECT_THROW(PsgdSync{config}, CheckError) << rows << "x" << cols;
  }
  const CostModel model = test_model();
  NetworkSim net(16, model);
  EXPECT_THROW(
      price_hop_schedule(hop_schedule(kAllReduce, kTorus2d, 4, 32, 100),
                         marsit_wire(model), net),
      CheckError);  // 32 nodes > 16-node network
}

TEST(WireFormatTest, EliasWireUsesMeasuredSizes) {
  const CostModel model = test_model();
  const WireFormat wire = sign_sum_elias_wire(
      model, [](std::size_t contributions) {
        return 1.0 + static_cast<double>(contributions);
      });
  EXPECT_NEAR(wire.reduce_bits(10, 3), 40.0, 1e-12);
  EXPECT_NEAR(wire.gather_bits(10), 10.0, 1e-12);
}

TEST(WireFormatTest, CascadingCarriesNormScalar) {
  const CostModel model = test_model();
  const WireFormat wire = cascading_wire(model);
  EXPECT_NEAR(wire.reduce_bits(100, 5), 132.0, 1e-12);
  EXPECT_GT(wire.serial_seconds_per_element, 0.0);
}

TEST(RingTimingTest, CorruptionChargesFooterOncePerDeliveredMessage) {
  // ISSUE satellite: under a corruption plan every delivered message grows
  // by exactly one 32-bit CRC footer in total_wire_bits — added in one
  // place, never double-counted against retransmission accounting.
  const CostModel model = test_model();
  const HopSchedule schedule = hop_schedule(kAllReduce, kRing, 0, 4, 400);
  NetworkSim clean_net(4, model);
  const auto clean =
      price_hop_schedule(schedule, full_precision_wire(), clean_net);

  FaultPlan plan;
  plan.corruption_rate = 1e-12;  // footer cost without actual corruption
  plan.retry_timeout = 1.0;
  NetworkSim net(4, model);
  net.set_fault_plan(&plan);
  net.begin_round(0);
  const auto lossy = price_hop_schedule(schedule, full_precision_wire(), net);
  // The M=4 ring moves 2(M−1) steps × M segments = 24 messages.
  EXPECT_DOUBLE_EQ(lossy.total_wire_bits,
                   clean.total_wire_bits + kCrcFooterBits * 24.0);
  EXPECT_DOUBLE_EQ(lossy.retransmitted_wire_bits, 0.0);
  // Payload accounting stays footer-free.
  EXPECT_DOUBLE_EQ(lossy.bits_per_worker, clean.bits_per_worker);
}

TEST(WireFormatTest, MarsitCombineIsOverlapped) {
  CostModel model = test_model();
  model.one_bit_combine_rate = 100.0;
  const WireFormat wire = marsit_wire(model);
  EXPECT_DOUBLE_EQ(wire.serial_seconds_per_element, 0.0);
  EXPECT_GT(wire.overlapped_seconds_per_element, 0.0);
}

}  // namespace
}  // namespace marsit
