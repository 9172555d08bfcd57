// Tree all-reduce schedule priced through price_hop_schedule + the tree
// one-bit fold — the paper's claimed extension fabric ("can be easily
// extended to ... tree all-reduce").
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "collectives/timing.hpp"
#include "core/hop_schedule.hpp"
#include "core/sync_strategy.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace marsit {
namespace {

using enum RoundKind;
using enum MarParadigm;

CostModel test_model() {
  CostModel model;
  model.link_alpha = 1.0;
  model.link_bandwidth = 100.0;
  model.server_bandwidth = 100.0;
  model.sign_pack_rate = 1e18;
  model.sign_unpack_rate = 1e18;
  model.stochastic_sign_rate = 1e18;
  model.one_bit_combine_rate = 1e18;
  model.cascade_recompress_rate = 1e18;
  model.elias_code_rate = 1e18;
  return model;
}

TEST(TreeTimingTest, TwoWorkersIsOneRoundTrip) {
  const CostModel model = test_model();
  NetworkSim net(2, model);
  const auto timing = price_hop_schedule(
      hop_schedule(kAllReduce, kTree, 0, 2, 100), full_precision_wire(), net);
  // One 400-byte reduce transfer + one broadcast transfer: 2·(1 + 4).
  EXPECT_NEAR(timing.completion_seconds, 2.0 * (1.0 + 4.0), 1e-9);
  EXPECT_NEAR(timing.total_wire_bits, 2.0 * 3200.0, 1e-9);
}

TEST(TreeTimingTest, LogDepthScaling) {
  // Latency-bound: completion grows ~2·⌈log2 M⌉·α, far below the ring's
  // 2(M−1)·α.
  CostModel model = test_model();
  model.link_bandwidth = 1e12;
  const std::size_t d = 1000;
  NetworkSim tree_net(16, model);
  const auto tree = price_hop_schedule(
      hop_schedule(kAllReduce, kTree, 0, 16, d), full_precision_wire(),
      tree_net);
  NetworkSim ring_net(16, model);
  const auto ring = price_hop_schedule(
      hop_schedule(kAllReduce, kRing, 0, 16, d), full_precision_wire(),
      ring_net);
  EXPECT_LT(tree.completion_seconds, ring.completion_seconds / 2.0);
}

TEST(TreeTimingTest, BandwidthBoundRingWins) {
  // The tree moves whole-vector messages; the ring moves 1/M segments in
  // parallel.  With α = 0 the ring's completion is ~2D/β versus the tree's
  // ~2·log2(M)·D/β.
  CostModel model = test_model();
  model.link_alpha = 0.0;
  const std::size_t d = 100000;
  NetworkSim tree_net(16, model);
  const auto tree = price_hop_schedule(
      hop_schedule(kAllReduce, kTree, 0, 16, d), full_precision_wire(),
      tree_net);
  NetworkSim ring_net(16, model);
  const auto ring = price_hop_schedule(
      hop_schedule(kAllReduce, kRing, 0, 16, d), full_precision_wire(),
      ring_net);
  EXPECT_GT(tree.completion_seconds, ring.completion_seconds);
}

TEST(TreeTimingTest, NonPowerOfTwoWorkerCounts) {
  const CostModel model = test_model();
  for (std::size_t m : {3u, 5u, 6u, 7u, 12u}) {
    NetworkSim net(m, model);
    const auto timing = price_hop_schedule(
        hop_schedule(kAllReduce, kTree, 0, m, 64), marsit_wire(model), net);
    EXPECT_GT(timing.completion_seconds, 0.0) << "M=" << m;
    // Reduce needs M−1 merges, broadcast M−1 sends: 2(M−1) messages total.
    EXPECT_EQ(net.total_messages(), 2 * (m - 1)) << "M=" << m;
  }
}

TEST(TreeTimingTest, SignSumPayloadsGrowUpTheTree) {
  const CostModel model = test_model();
  NetworkSim fixed_net(8, model);
  const auto fixed = price_hop_schedule(
      hop_schedule(kAllReduce, kTree, 0, 8, 6400), sign_sum_wire(model),
      fixed_net);
  NetworkSim one_bit_net(8, model);
  const auto one_bit = price_hop_schedule(
      hop_schedule(kAllReduce, kTree, 0, 8, 6400), marsit_wire(model),
      one_bit_net);
  EXPECT_GT(fixed.total_wire_bits, one_bit.total_wire_bits);
}

TEST(TreeTimingTest, RejectsDegenerateArguments) {
  const CostModel model = test_model();
  NetworkSim net(4, model);
  const WireFormat wire = marsit_wire(model);
  EXPECT_THROW(
      price_hop_schedule(hop_schedule(kAllReduce, kTree, 0, 1, 10), wire, net),
      CheckError);
  EXPECT_THROW(
      price_hop_schedule(hop_schedule(kAllReduce, kTree, 0, 8, 10), wire, net),
      CheckError);
  EXPECT_THROW(
      price_hop_schedule(hop_schedule(kAllReduce, kTree, 0, 4, 0), wire, net),
      CheckError);
}

// --- tree schedule under an active FaultPlan --------------------------------

TEST(TreeFaultTest, PacketLossBurnsRetransmittedBitsNotPayload) {
  const CostModel model = test_model();
  FaultPlan plan;
  plan.seed = 77;
  plan.packet_loss = 0.4;
  plan.validate();

  NetworkSim clean_net(8, model);
  clean_net.begin_round(0);
  const HopSchedule schedule = hop_schedule(kAllReduce, kTree, 0, 8, 256);
  const auto clean =
      price_hop_schedule(schedule, full_precision_wire(), clean_net);
  EXPECT_EQ(clean.retransmissions, 0u);
  EXPECT_DOUBLE_EQ(clean.retransmitted_wire_bits, 0.0);

  NetworkSim lossy_net(8, model);
  lossy_net.set_fault_plan(&plan);
  lossy_net.begin_round(0);
  const auto lossy =
      price_hop_schedule(schedule, full_precision_wire(), lossy_net);

  // Payload accounting counts each message once; lost attempts land on the
  // retransmitted side channel and stretch completion via retry timeouts.
  EXPECT_DOUBLE_EQ(lossy.total_wire_bits, clean.total_wire_bits);
  EXPECT_GT(lossy.retransmissions, 0u);
  EXPECT_GT(lossy.completion_seconds, clean.completion_seconds);
  // Every tree message here is a whole 256-float vector, so each lost
  // attempt burns exactly 32·256 bits.
  EXPECT_DOUBLE_EQ(lossy.retransmitted_wire_bits,
                   static_cast<double>(lossy.retransmissions) * 32.0 * 256.0);
}

TEST(TreeFaultTest, FaultStreamIsDeterministicPerRound) {
  // The link-level fault stream is a pure function of (plan seed, round,
  // transfer order) — not of simulator history.
  const CostModel model = test_model();
  FaultPlan plan;
  plan.seed = 123;
  plan.packet_loss = 0.3;
  plan.latency_jitter = 1e-3;

  auto run = [&model, &plan](NetworkSim& net, std::size_t round) {
    net.set_fault_plan(&plan);
    net.begin_round(round);
    return price_hop_schedule(hop_schedule(kAllReduce, kTree, 0, 8, 64),
                              marsit_wire(model), net);
  };
  NetworkSim net_a(8, model), net_b(8, model), net_c(8, model);
  const auto a = run(net_a, 5);
  const auto b = run(net_b, 5);
  EXPECT_DOUBLE_EQ(a.completion_seconds, b.completion_seconds);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_DOUBLE_EQ(a.retransmitted_wire_bits, b.retransmitted_wire_bits);

  // Replaying round 5 after a different round on the same simulator matches
  // a fresh simulator: begin_round() fully reseeds the stream.
  (void)run(net_c, 4);
  const auto c = run(net_c, 5);
  EXPECT_DOUBLE_EQ(c.completion_seconds, a.completion_seconds);
  EXPECT_EQ(c.retransmissions, a.retransmissions);
}

TEST(TreeFaultTest, RootStragglerStretchesCompletion) {
  // Node 0 is the binomial-tree root: it terminates every reduce level and
  // originates the broadcast, so slowing its NICs stretches the whole
  // collective without losing a single payload.
  const CostModel model = test_model();
  FaultPlan plan;
  plan.stragglers.push_back(FaultPlan::Straggler{.node = 0, .slowdown = 8.0});
  plan.validate();

  const HopSchedule schedule = hop_schedule(kAllReduce, kTree, 0, 8, 1000);
  NetworkSim clean_net(8, model);
  const auto clean =
      price_hop_schedule(schedule, full_precision_wire(), clean_net);
  NetworkSim slow_net(8, model);
  slow_net.set_fault_plan(&plan);
  slow_net.begin_round(0);
  const auto slow =
      price_hop_schedule(schedule, full_precision_wire(), slow_net);
  EXPECT_GT(slow.completion_seconds, clean.completion_seconds);
  EXPECT_EQ(slow.retransmissions, 0u);
  EXPECT_DOUBLE_EQ(slow.total_wire_bits, clean.total_wire_bits);
}

TEST(TreeFaultTest, RootOutageDefersTheWholeReduce) {
  const CostModel model = test_model();
  FaultPlan plan;
  plan.outages.push_back(
      FaultPlan::Outage{.node = 0, .start = 0.0, .end = 50.0});
  plan.validate();

  const HopSchedule schedule = hop_schedule(kAllReduce, kTree, 0, 8, 100);
  NetworkSim net(8, model);
  net.set_fault_plan(&plan);
  net.begin_round(0);
  const auto timing =
      price_hop_schedule(schedule, full_precision_wire(), net);
  // Nothing can land on the root before its NICs come back up.
  EXPECT_GT(timing.completion_seconds, 50.0);
  NetworkSim clean_net(8, model);
  const auto clean =
      price_hop_schedule(schedule, full_precision_wire(), clean_net);
  EXPECT_GT(timing.completion_seconds, clean.completion_seconds);
}

TEST(TreeFaultTest, StrategyReportsRetransmissionAccounting) {
  // The lossy timing flows through SyncStrategy::synchronize into
  // SyncStepResult, where the trainer picks it up for TrainResult.
  SyncConfig config;
  config.num_workers = 8;
  config.paradigm = kTree;
  config.seed = 31;
  config.fault_plan.seed = 9;
  config.fault_plan.packet_loss = 0.4;
  PsgdSync sync(config);

  const std::size_t d = 64;
  std::vector<Tensor> inputs(8, Tensor(d));
  Rng rng(32);
  WorkerSpans spans;
  for (auto& t : inputs) {
    fill_normal(t.span(), rng, 0.0f, 1.0f);
    spans.push_back(t.span());
  }
  Tensor out(d), expected(d);
  const auto step = sync.synchronize(spans, out.span());
  EXPECT_GT(step.timing.retransmissions, 0u);
  // PSGD tree messages are whole 32·d-bit vectors.
  EXPECT_DOUBLE_EQ(
      step.timing.retransmitted_wire_bits,
      static_cast<double>(step.timing.retransmissions) * 32.0 * d);
  EXPECT_DOUBLE_EQ(step.timing.total_wire_bits, 2.0 * 7.0 * 32.0 * d);
  // Link faults delay delivery but never corrupt it: values stay exact.
  aggregate_mean(spans, expected.span());
  for (std::size_t i = 0; i < d; ++i) {
    ASSERT_FLOAT_EQ(out[i], expected[i]);
  }
}

TEST(TreeFaultTest, DegradedMembershipShrinksTheTree) {
  // Two workers sit out round 0: the reduction re-forms as a 6-node
  // binomial tree over the survivors — 2·(6−1) whole-vector messages
  // instead of 2·(8−1) — and the absentees' updates must not leak into the
  // aggregate.
  SyncConfig config;
  config.num_workers = 8;
  config.paradigm = kTree;
  config.seed = 31;
  config.fault_plan.dropouts.push_back(
      FaultPlan::DropOut{.worker = 3, .from_round = 0, .to_round = 1});
  config.fault_plan.dropouts.push_back(
      FaultPlan::DropOut{.worker = 5, .from_round = 0, .to_round = 1});
  MarsitOptions options;
  options.eta_s = 0.5f;
  MarsitSync sync(config, options);

  const std::size_t d = 64;
  std::vector<Tensor> inputs(8, Tensor(d));
  WorkerSpans spans;
  for (std::size_t w = 0; w < 8; ++w) {
    const float value = (w == 3 || w == 5) ? -1.0f : 1.0f;
    std::fill(inputs[w].span().begin(), inputs[w].span().end(), value);
    spans.push_back(inputs[w].span());
  }
  Tensor out(d);
  const auto degraded = sync.synchronize(spans, out.span());
  EXPECT_EQ(degraded.active_workers, 6u);
  // Marsit's constant one-bit payloads: 2·(m−1)·d bits on a tree of m.
  EXPECT_DOUBLE_EQ(degraded.timing.total_wire_bits, 2.0 * 5.0 * d);
  // All six survivors agree on +1, so the stochastic fold is deterministic;
  // the dissenting absentees (−1) would flip bits if they leaked in.
  for (std::size_t i = 0; i < d; ++i) {
    ASSERT_FLOAT_EQ(out[i], 0.5f);
  }

  // Round 1: everyone is back and the full 8-node tree re-forms.
  const auto healthy = sync.synchronize(spans, out.span());
  EXPECT_EQ(healthy.active_workers, 8u);
  EXPECT_DOUBLE_EQ(healthy.timing.total_wire_bits, 2.0 * 7.0 * d);
}

TEST(TreeMarsitTest, TreeParadigmNameAndTiming) {
  SyncConfig config;
  config.num_workers = 8;
  config.paradigm = kTree;
  config.seed = 21;
  MarsitOptions options;
  options.eta_s = 0.5f;
  MarsitSync sync(config, options);
  EXPECT_EQ(sync.name(), "Marsit-TREE");

  std::vector<Tensor> inputs(8, Tensor(32));
  Rng rng(22);
  WorkerSpans spans;
  for (auto& t : inputs) {
    fill_normal(t.span(), rng, 0.0f, 1.0f);
    spans.push_back(t.span());
  }
  Tensor out(32);
  const auto step = sync.synchronize(spans, out.span());
  EXPECT_GT(step.timing.completion_seconds, 0.0);
  for (std::size_t i = 0; i < 32; ++i) {
    ASSERT_FLOAT_EQ(std::fabs(out[i]), 0.5f);
  }
}

TEST(TreeMarsitTest, TreeFoldIsUnbiased) {
  // 3 of 5 workers positive on element 0, 1 of 5 on element 1: the binomial
  // fold's weighted merges must keep P(bit=1) = k/M exactly.
  SyncConfig config;
  config.num_workers = 5;
  config.paradigm = kTree;
  MarsitOptions options;
  options.eta_s = 1.0f;

  std::vector<Tensor> inputs;
  inputs.push_back(Tensor{1.0f, 1.0f});
  inputs.push_back(Tensor{1.0f, -1.0f});
  inputs.push_back(Tensor{1.0f, -1.0f});
  inputs.push_back(Tensor{-1.0f, -1.0f});
  inputs.push_back(Tensor{-1.0f, -1.0f});
  WorkerSpans spans;
  for (const auto& t : inputs) {
    spans.push_back(t.span());
  }

  double mean0 = 0.0, mean1 = 0.0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    SyncConfig cfg = config;
    cfg.seed = 3000 + t;
    MarsitSync fresh(cfg, options);
    Tensor out(2);
    fresh.synchronize(spans, out.span());
    mean0 += out[0];
    mean1 += out[1];
  }
  // E[±1] = (2k − M)/M: (6−5)/5 = 0.2 and (2−5)/5 = −0.6.
  EXPECT_NEAR(mean0 / trials, 0.2, 5.0 / std::sqrt(trials));
  EXPECT_NEAR(mean1 / trials, -0.6, 5.0 / std::sqrt(trials));
}

TEST(TreePsgdTest, ExactMeanOnTree) {
  SyncConfig config;
  config.num_workers = 6;
  config.paradigm = kTree;
  config.seed = 23;
  PsgdSync sync(config);
  EXPECT_EQ(sync.name(), "PSGD-TREE");

  std::vector<Tensor> inputs(6, Tensor(16));
  Rng rng(24);
  WorkerSpans spans;
  for (auto& t : inputs) {
    fill_normal(t.span(), rng, 0.0f, 1.0f);
    spans.push_back(t.span());
  }
  Tensor out(16), expected(16);
  sync.synchronize(spans, out.span());
  aggregate_mean(spans, expected.span());
  for (std::size_t i = 0; i < 16; ++i) {
    ASSERT_FLOAT_EQ(out[i], expected[i]);
  }
}

}  // namespace
}  // namespace marsit
