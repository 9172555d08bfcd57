#include "core/sync_strategy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "compress/sign_codec.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit {
namespace {

SyncConfig ring_config(std::size_t workers, std::uint64_t seed = 11) {
  SyncConfig config;
  config.num_workers = workers;
  config.paradigm = MarParadigm::kRing;
  config.seed = seed;
  return config;
}

std::vector<Tensor> random_inputs(std::size_t m, std::size_t d,
                                  std::uint64_t seed) {
  std::vector<Tensor> inputs;
  Rng rng(seed);
  for (std::size_t w = 0; w < m; ++w) {
    Tensor t(d);
    fill_normal(t.span(), rng, 0.0f, 1.0f);
    inputs.push_back(std::move(t));
  }
  return inputs;
}

WorkerSpans spans_of(const std::vector<Tensor>& inputs) {
  WorkerSpans spans;
  for (const auto& t : inputs) {
    spans.push_back(t.span());
  }
  return spans;
}

/// A strategy-state blob as save_state lays it out: the round counter, then
/// one zero vector per entry of `lengths` (Marsit's compensation, EF's
/// memory).
std::vector<std::uint8_t> worker_vectors_blob(
    const std::vector<std::size_t>& lengths) {
  ckpt::SnapshotWriter writer;
  writer.u64(0);
  writer.u64(lengths.size());
  for (const std::size_t length : lengths) {
    writer.f32_span(Tensor(length).span());
  }
  return writer.bytes();
}

TEST(SyncStrategyTest, ValidatesInputs) {
  PsgdSync psgd(ring_config(3));
  Tensor out(4);
  auto inputs = random_inputs(2, 4, 1);  // wrong worker count
  EXPECT_THROW(psgd.synchronize(spans_of(inputs), out.span()), CheckError);
  auto inputs3 = random_inputs(3, 5, 1);  // extent mismatch with out
  EXPECT_THROW(psgd.synchronize(spans_of(inputs3), out.span()), CheckError);
}

TEST(SyncStrategyTest, RoundCounterAdvances) {
  PsgdSync psgd(ring_config(2));
  auto inputs = random_inputs(2, 8, 2);
  Tensor out(8);
  EXPECT_EQ(psgd.round(), 0u);
  psgd.synchronize(spans_of(inputs), out.span());
  psgd.synchronize(spans_of(inputs), out.span());
  EXPECT_EQ(psgd.round(), 2u);
}

TEST(PsgdSyncTest, ProducesExactMean) {
  PsgdSync psgd(ring_config(4));
  auto inputs = random_inputs(4, 64, 3);
  Tensor out(64);
  const auto step = psgd.synchronize(spans_of(inputs), out.span());
  Tensor expected(64);
  aggregate_mean(spans_of(inputs), expected.span());
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_FLOAT_EQ(out[i], expected[i]);
  }
  EXPECT_TRUE(step.full_precision);
  EXPECT_DOUBLE_EQ(step.bits_per_element, 32.0);
}

TEST(PsgdSyncTest, WorksOnTorusAndPs) {
  SyncConfig torus = ring_config(4);
  torus.paradigm = MarParadigm::kTorus2d;
  torus.torus_rows = 2;
  torus.torus_cols = 2;
  PsgdSync torus_sync(torus);
  EXPECT_EQ(torus_sync.name(), "PSGD-TAR");

  SyncConfig ps = ring_config(4);
  ps.paradigm = MarParadigm::kParameterServer;
  PsgdSync ps_sync(ps);
  EXPECT_EQ(ps_sync.name(), "PSGD-PS");

  auto inputs = random_inputs(4, 32, 4);
  Tensor out(32);
  EXPECT_GT(torus_sync.synchronize(spans_of(inputs), out.span())
                .timing.completion_seconds,
            0.0);
  EXPECT_GT(ps_sync.synchronize(spans_of(inputs), out.span())
                .timing.completion_seconds,
            0.0);
}

TEST(SignSgdMvSyncTest, OutputIsScaledMajoritySign) {
  const float eta_s = 0.25f;
  SignSgdMvSync sync(ring_config(3), eta_s);
  std::vector<Tensor> inputs;
  inputs.push_back(Tensor{1.0f, -1.0f, 1.0f});
  inputs.push_back(Tensor{1.0f, -1.0f, -1.0f});
  inputs.push_back(Tensor{-1.0f, -1.0f, 1.0f});
  Tensor out(3);
  const auto step = sync.synchronize(spans_of(inputs), out.span());
  EXPECT_FLOAT_EQ(out[0], eta_s);
  EXPECT_FLOAT_EQ(out[1], -eta_s);
  EXPECT_FLOAT_EQ(out[2], eta_s);
  EXPECT_FALSE(step.full_precision);
  // Fixed-width sign-sum for 3 workers: ⌈log2 4⌉+1 = 3 bits.
  EXPECT_DOUBLE_EQ(step.bits_per_element, 3.0);
}

TEST(SignSgdMvSyncTest, RejectsNonPositiveStepsize) {
  EXPECT_THROW(SignSgdMvSync(ring_config(2), 0.0f), CheckError);
}

TEST(EfSignSgdSyncTest, ErrorFeedbackIdentityHolds) {
  // After one round, each worker's error memory must equal p − decode(C(p)),
  // with p = input (+ zero initial error).
  EfSignSgdSync sync(ring_config(2));
  std::vector<Tensor> inputs;
  inputs.push_back(Tensor{0.9f, -0.1f, 0.4f, -0.6f});
  inputs.push_back(Tensor{0.2f, 0.2f, -0.2f, -0.2f});
  Tensor out(4);
  sync.synchronize(spans_of(inputs), out.span());

  // Output = (mean scale)·(mean sign).  Worker scales: ‖p‖₁/4.
  const float s0 = 0.5f;   // (0.9+0.1+0.4+0.6)/4
  const float s1 = 0.2f;
  const float mean_scale = (s0 + s1) / 2.0f;
  // Element 0: both positive → mean sign +1.
  EXPECT_NEAR(out[0], mean_scale, 1e-6f);
  // Element 1: signs −,+ → mean sign 0.
  EXPECT_NEAR(out[1], 0.0f, 1e-6f);
}

TEST(EfSignSgdSyncTest, ErrorAccumulatesAcrossRounds) {
  EfSignSgdSync sync(ring_config(2));
  auto inputs = random_inputs(2, 128, 5);
  Tensor out(128);
  sync.synchronize(spans_of(inputs), out.span());
  Tensor first = out;
  // Feeding zero gradients next round still flushes stored error: output
  // should be nonzero.
  std::vector<Tensor> zeros(2, Tensor(128));
  sync.synchronize(spans_of(zeros), out.span());
  EXPECT_GT(l2_norm(out.span()), 0.0f);
  (void)first;
}

TEST(EfSignSgdSyncTest, LoadStateRejectsUnequalErrorLengths) {
  const std::vector<std::uint8_t> blob = worker_vectors_blob({4096, 8});
  ckpt::SnapshotReader reader({blob.data(), blob.size()});
  EfSignSgdSync sync(ring_config(2));
  EXPECT_THROW(sync.load_state(reader), CheckError);
}

TEST(SsdmMarSyncTest, OutputIsSignDescentStep) {
  const float eta_s = 0.125f;
  SsdmMarSync sync(ring_config(2), eta_s);
  auto inputs = random_inputs(2, 256, 6);
  Tensor out(256);
  const auto step = sync.synchronize(spans_of(inputs), out.span());
  // SSDM descends on the aggregated sign: every element is ±eta_s.
  for (std::size_t i = 0; i < 256; ++i) {
    ASSERT_FLOAT_EQ(std::fabs(out[i]), eta_s) << "element " << i;
  }
  EXPECT_FALSE(step.full_precision);
}

TEST(SsdmMarSyncTest, StochasticSignFollowsGradientOnDominantElements) {
  // A strongly positive element must come out +eta_s almost always.
  SsdmMarSync sync(ring_config(2), 1.0f);
  std::vector<Tensor> inputs;
  inputs.push_back(Tensor{10.0f, 0.1f});
  inputs.push_back(Tensor{10.0f, -0.1f});
  Tensor out(2);
  int positive = 0;
  for (int t = 0; t < 50; ++t) {
    sync.synchronize(spans_of(inputs), out.span());
    positive += out[0] > 0.0f;
  }
  EXPECT_GE(positive, 48);  // p(+) per worker ≈ 0.5 + 10/(2·10.0005)
}

TEST(SsdmPsSyncTest, RequiresPsParadigm) {
  EXPECT_THROW(SsdmPsSync(ring_config(2), 0.1f), CheckError);
  SyncConfig ps = ring_config(3);
  ps.paradigm = MarParadigm::kParameterServer;
  SsdmPsSync sync(ps, 0.1f);
  EXPECT_EQ(sync.name(), "SSDM-PS");
  auto inputs = random_inputs(3, 64, 7);
  Tensor out(64);
  const auto step = sync.synchronize(spans_of(inputs), out.span());
  EXPECT_DOUBLE_EQ(step.bits_per_element, 1.0);
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_FLOAT_EQ(std::fabs(out[i]), 0.1f);
  }
}

TEST(CascadingSyncTest, RingOnlyAndFinite) {
  SyncConfig torus = ring_config(4);
  torus.paradigm = MarParadigm::kTorus2d;
  torus.torus_rows = 2;
  torus.torus_cols = 2;
  EXPECT_THROW(CascadingSync{torus}, CheckError);

  CascadingSync sync(ring_config(4));
  auto inputs = random_inputs(4, 128, 8);
  Tensor out(128);
  const auto step = sync.synchronize(spans_of(inputs), out.span());
  EXPECT_TRUE(all_finite(out.span()));
  EXPECT_GT(l2_norm(out.span()), 0.0f);
  EXPECT_DOUBLE_EQ(step.bits_per_element, 1.0);
}

TEST(MarsitSyncTest, AcceptsPsParadigm) {
  // Once ring-or-torus only; the parameter server (server colocated at
  // rank 0) is now a supported comparison baseline with the same ⊙ fold
  // semantics, so the cross-backend conformance matrix can cover it.
  SyncConfig ps = ring_config(4);
  ps.paradigm = MarParadigm::kParameterServer;
  MarsitOptions options;
  MarsitSync sync(ps, options);
  auto inputs = random_inputs(4, 128, 8);
  Tensor out(128);
  const auto step = sync.synchronize(spans_of(inputs), out.span());
  EXPECT_FALSE(step.full_precision);
  EXPECT_DOUBLE_EQ(step.bits_per_element, 1.0);
  EXPECT_TRUE(all_finite(out.span()));
  EXPECT_GT(l2_norm(out.span()), 0.0f);
}

TEST(MarsitSyncTest, OneBitRoundOutputsScaledSigns) {
  MarsitOptions options;
  options.eta_s = 0.01f;
  options.full_precision_period = 0;  // never full precision
  MarsitSync sync(ring_config(3), options);
  auto inputs = random_inputs(3, 200, 9);
  Tensor out(200);
  const auto step = sync.synchronize(spans_of(inputs), out.span());
  EXPECT_FALSE(step.full_precision);
  EXPECT_DOUBLE_EQ(step.bits_per_element, 1.0);
  for (std::size_t i = 0; i < 200; ++i) {
    ASSERT_FLOAT_EQ(std::fabs(out[i]), options.eta_s) << "element " << i;
  }
}

TEST(MarsitSyncTest, CompensationIdentityHolds) {
  // After a one-bit round: c_{t+1}^{(m)} = (u_m + c_t^{(m)}) − g_t.  With
  // c_0 = 0 the mean compensation norm equals ‖mean(u) − g‖-ish; check the
  // exact per-worker identity via a second round with zero inputs: the
  // strategy must now aggregate signs of c_1 alone.
  MarsitOptions options;
  options.eta_s = 0.5f;
  MarsitSync sync(ring_config(2), options);
  std::vector<Tensor> inputs;
  inputs.push_back(Tensor{2.0f, -2.0f});
  inputs.push_back(Tensor{2.0f, -2.0f});
  Tensor out(2);
  sync.synchronize(spans_of(inputs), out.span());
  // Unanimous signs: g = (+0.5, −0.5); c_m = (2−0.5, −2+0.5) = (1.5, −1.5).
  EXPECT_FLOAT_EQ(out[0], 0.5f);
  EXPECT_FLOAT_EQ(out[1], -0.5f);
  EXPECT_NEAR(sync.mean_compensation_norm(),
              std::sqrt(1.5 * 1.5 * 2.0), 1e-6);

  // Round 2 with zero inputs: updates come purely from compensation, whose
  // signs are (+, −) on both workers → deterministic output again.
  std::vector<Tensor> zeros(2, Tensor(2));
  sync.synchronize(spans_of(zeros), out.span());
  EXPECT_FLOAT_EQ(out[0], 0.5f);
  EXPECT_FLOAT_EQ(out[1], -0.5f);
}

TEST(MarsitSyncTest, CompensationOffKeepsCompensationZero) {
  // The same unanimous workers with compensation off.  A one-bit round
  // leaves u + c in c until its end stage, which must then reset c to zero.
  MarsitOptions options;
  options.eta_s = 0.5f;
  options.use_compensation = false;
  MarsitSync sync(ring_config(2), options);
  std::vector<Tensor> inputs;
  inputs.push_back(Tensor{2.0f, -2.0f});
  inputs.push_back(Tensor{2.0f, -2.0f});
  Tensor out(2);
  sync.synchronize(spans_of(inputs), out.span());
  EXPECT_FLOAT_EQ(out[0], 0.5f);
  EXPECT_FLOAT_EQ(out[1], -0.5f);
  EXPECT_DOUBLE_EQ(sync.mean_compensation_norm(), 0.0);

  // Round 2 with zero inputs packs zeros, and zero packs as +.  A c still
  // holding (2, −2) would give (+0.5, −0.5) instead.
  std::vector<Tensor> zeros(2, Tensor(2));
  sync.synchronize(spans_of(zeros), out.span());
  EXPECT_FLOAT_EQ(out[0], 0.5f);
  EXPECT_FLOAT_EQ(out[1], 0.5f);
  EXPECT_DOUBLE_EQ(sync.mean_compensation_norm(), 0.0);
}

TEST(MarsitSyncTest, LoadStateRejectsUnequalCompensationLengths) {
  // A round slices every worker's compensation on one chunk grid, so a
  // checkpoint with lengths {4096, 8} must fail to load, not overrun the
  // short vector in the next one-bit round.
  const std::vector<std::uint8_t> blob = worker_vectors_blob({4096, 8});
  ckpt::SnapshotReader reader({blob.data(), blob.size()});
  MarsitSync sync(ring_config(2), MarsitOptions{});
  EXPECT_THROW(sync.load_state(reader), CheckError);

  // Equal lengths load; the round then rejects them against its dimension.
  const std::vector<std::uint8_t> short_blob = worker_vectors_blob({8, 8});
  ckpt::SnapshotReader short_reader({short_blob.data(), short_blob.size()});
  MarsitSync resumed(ring_config(2), MarsitOptions{});
  resumed.load_state(short_reader);
  auto inputs = random_inputs(2, 4096, 12);
  Tensor out(4096);
  EXPECT_THROW(resumed.synchronize(spans_of(inputs), out.span()), CheckError);
}

TEST(MarsitSyncTest, FullPrecisionRoundResetsCompensation) {
  MarsitOptions options;
  options.eta_s = 0.5f;
  options.full_precision_period = 2;  // rounds 0, 2, 4... full precision
  MarsitSync sync(ring_config(2), options);
  auto inputs = random_inputs(2, 16, 10);
  Tensor out(16);

  // Round 0: full precision → exact mean, c = 0.
  auto step = sync.synchronize(spans_of(inputs), out.span());
  EXPECT_TRUE(step.full_precision);
  Tensor expected(16);
  aggregate_mean(spans_of(inputs), expected.span());
  for (std::size_t i = 0; i < 16; ++i) {
    ASSERT_FLOAT_EQ(out[i], expected[i]);
  }
  EXPECT_DOUBLE_EQ(sync.mean_compensation_norm(), 0.0);

  // Round 1: one-bit → compensation accumulates.
  step = sync.synchronize(spans_of(inputs), out.span());
  EXPECT_FALSE(step.full_precision);
  EXPECT_GT(sync.mean_compensation_norm(), 0.0);

  // Round 2: full precision again → compensation folded in, then reset.
  step = sync.synchronize(spans_of(inputs), out.span());
  EXPECT_TRUE(step.full_precision);
  EXPECT_DOUBLE_EQ(sync.mean_compensation_norm(), 0.0);
}

TEST(MarsitSyncTest, NamesEncodeKAndParadigm) {
  MarsitOptions options;
  options.full_precision_period = 100;
  MarsitSync with_k(ring_config(2), options);
  EXPECT_EQ(with_k.name(), "Marsit-100-RAR");
  options.full_precision_period = 0;
  MarsitSync plain(ring_config(2), options);
  EXPECT_EQ(plain.name(), "Marsit-RAR");
}

TEST(MarsitSyncTest, TorusFoldIsUnbiasedInTraining) {
  SyncConfig torus = ring_config(4, 12);
  torus.paradigm = MarParadigm::kTorus2d;
  torus.torus_rows = 2;
  torus.torus_cols = 2;
  MarsitOptions options;
  options.eta_s = 1.0f;
  MarsitSync sync(torus, options);

  // 3 of 4 workers positive on element 0, 1 of 4 on element 1.  Average the
  // global update over fresh strategies (new rng per round inside).
  std::vector<Tensor> inputs;
  inputs.push_back(Tensor{1.0f, 1.0f});
  inputs.push_back(Tensor{1.0f, -1.0f});
  inputs.push_back(Tensor{1.0f, -1.0f});
  inputs.push_back(Tensor{-1.0f, -1.0f});
  // Compensation must not leak between trials: disable by resetting with a
  // full-precision period of 1?  No — use per-trial fresh strategies.
  double mean0 = 0.0, mean1 = 0.0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    SyncConfig cfg = torus;
    cfg.seed = 1000 + t;
    MarsitSync fresh(cfg, options);
    Tensor out(2);
    fresh.synchronize(spans_of(inputs), out.span());
    mean0 += out[0];
    mean1 += out[1];
  }
  // E[g_0] = (3−1)/4 = 0.5, E[g_1] = (1−3)/4 = −0.5; sd per trial = √(1−p²).
  EXPECT_NEAR(mean0 / trials, 0.5, 5.0 / std::sqrt(trials));
  EXPECT_NEAR(mean1 / trials, -0.5, 5.0 / std::sqrt(trials));
}

// ---- MarsitRank on slices at any offset -------------------------------------

/// A rank over d elements with a nonzero c and a plane of arbitrary words,
/// tail bits past d included; `owed` leaves line 10 owed against the plane.
MarsitRank rank_with_state(const MarsitOptions& options, std::size_t d,
                           bool owed, Rng& rng) {
  Tensor c(d);
  fill_normal(c.span(), rng, 0.0f, 0.01f);
  MarsitRank rank(options, std::move(c));
  for (std::uint64_t& word : rank.signs()) {
    word = rng.next_u64();
  }
  rank.finish(/*full_precision=*/!owed);
  return rank;
}

/// Feeds one u to a copy of `start` whole and to another copy in the slices
/// [cuts[i], cuts[i+1]) in a shuffled order, through pack() or, for a
/// flush, contribute(); c and every plane word must come out equal.
void expect_slices_match_whole(const MarsitRank& start,
                               std::vector<std::size_t> cuts, bool flush,
                               Rng& rng) {
  const std::size_t d = cuts.back();
  std::vector<float> u(d);
  fill_normal(u, rng, 0.0f, 0.01f);
  const std::span<const float> all(u);
  MarsitRank whole = start;
  MarsitRank sliced = start;
  if (flush) {
    whole.contribute(all, 0);
  } else {
    whole.pack(all, 0);
  }
  std::vector<std::size_t> order(cuts.size() - 1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  for (const std::size_t i : order) {
    const std::span<const float> slice =
        all.subspan(cuts[i], cuts[i + 1] - cuts[i]);
    if (flush) {
      sliced.contribute(slice, cuts[i]);
    } else {
      sliced.pack(slice, cuts[i]);
    }
  }
  EXPECT_EQ(std::memcmp(whole.compensation().data(),
                        sliced.compensation().data(), d * sizeof(float)),
            0)
      << "c differs";
  ASSERT_EQ(whole.signs().size(), sliced.signs().size());
  for (std::size_t w = 0; w < whole.signs().size(); ++w) {
    EXPECT_EQ(whole.signs()[w], sliced.signs()[w]) << "plane word " << w;
  }
}

TEST(MarsitRankTest, SlicesAtAnyOffsetMatchOneWholeCall) {
  // D = 7·64 + 37.  Width-1 slices, slices inside one word, unaligned heads
  // and tails, whole words, and an unaligned slice that ends the plane.
  const std::vector<std::size_t> fixed = {0,   1,   2,   30,  64,  100, 128,
                                          129, 250, 300, 384, 448, 460, 485};
  Rng rng(2204);
  for (const bool use_compensation : {true, false}) {
    MarsitOptions options;
    options.eta_s = 0.01f;
    options.use_compensation = use_compensation;
    for (const bool owed : {true, false}) {
      for (const bool flush : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "compensation " << use_compensation << ", owed "
                     << owed << ", flush " << flush);
        expect_slices_match_whole(rank_with_state(options, 485, owed, rng),
                                  fixed, flush, rng);
        // Random partitions, D a multiple of 64 or not.
        for (int trial = 0; trial < 20; ++trial) {
          const std::size_t d = 1 + rng.next_below(700);
          std::vector<std::size_t> cuts = {0, d};
          for (std::uint64_t n = rng.next_below(12); n > 0; --n) {
            cuts.push_back(rng.next_below(d));
          }
          std::sort(cuts.begin(), cuts.end());
          cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
          expect_slices_match_whole(rank_with_state(options, d, owed, rng),
                                    cuts, flush, rng);
        }
      }
    }
  }
}

TEST(FactoryTest, BuildsEveryMethod) {
  SyncConfig config = ring_config(4);
  MethodOptions options;
  options.eta_s = 0.1f;
  options.full_precision_period = 10;
  for (SyncMethod method :
       {SyncMethod::kPsgd, SyncMethod::kSignSgdMv, SyncMethod::kEfSignSgd,
        SyncMethod::kSsdm, SyncMethod::kCascading, SyncMethod::kMarsit}) {
    auto strategy = make_sync_strategy(method, config, options);
    ASSERT_NE(strategy, nullptr) << sync_method_name(method);
    EXPECT_FALSE(strategy->name().empty());
  }
  SyncConfig ps = config;
  ps.paradigm = MarParadigm::kParameterServer;
  EXPECT_NE(make_sync_strategy(SyncMethod::kSsdmPs, ps, options), nullptr);
}

TEST(FactoryTest, MethodNames) {
  EXPECT_STREQ(sync_method_name(SyncMethod::kPsgd), "PSGD");
  EXPECT_STREQ(sync_method_name(SyncMethod::kMarsit), "Marsit");
  EXPECT_STREQ(sync_method_name(SyncMethod::kCascading), "Cascading");
}

TEST(SyncConfigTest, TorusShapeValidated) {
  SyncConfig bad = ring_config(6);
  bad.paradigm = MarParadigm::kTorus2d;
  bad.torus_rows = 2;
  bad.torus_cols = 2;  // 4 != 6
  EXPECT_THROW(PsgdSync{bad}, CheckError);
}

TEST(TimingConsistencyTest, MarsitRoundCheaperThanPsgdRound) {
  auto inputs = random_inputs(4, 4096, 13);
  Tensor out(4096);

  PsgdSync psgd(ring_config(4));
  const auto psgd_step = psgd.synchronize(spans_of(inputs), out.span());

  MarsitOptions options;
  MarsitSync mar(ring_config(4), options);
  const auto mar_step = mar.synchronize(spans_of(inputs), out.span());

  EXPECT_LT(mar_step.timing.completion_seconds,
            psgd_step.timing.completion_seconds);
  EXPECT_LT(mar_step.timing.total_wire_bits,
            psgd_step.timing.total_wire_bits / 20.0);
}

}  // namespace
}  // namespace marsit
