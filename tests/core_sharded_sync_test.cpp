// Determinism tests for the sharded synchronization rounds (DESIGN.md §12):
// the chunk grid and per-chunk rng streams depend only on (seed, round,
// payload geometry), so every strategy must produce bit-identical outputs
// for any thread-pool size at every chunk size — and Marsit, whose ⊙ draws
// are keyed by fabric segment rather than chunk, across chunk sizes too.
// Marsit's pool-invariance cases run K = 2, so rounds 0 and 2 are
// full-precision flushes, each chunk folding its own units of the
// all-reduce schedule.
// Also pins signSGD-MV's sharded output to the serial scalar reference
// (pack → sign-sum → majority → unpack), and the per-thread scratch arenas'
// allocation discipline.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "compress/sign_codec.hpp"
#include "compress/sign_sum.hpp"
#include "core/sync_strategy.hpp"
#include "parallel/scratch_arena.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace marsit {
namespace {

// Ragged dimension spanning many chunks at the test chunk size below.
constexpr std::size_t kDim = 5000;
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kChunk = 256;  // → 20 chunks at kDim
constexpr std::size_t kRounds = 3;

std::vector<std::vector<float>> make_inputs(std::size_t round) {
  std::vector<std::vector<float>> inputs(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    inputs[w].resize(kDim);
    Rng rng(derive_seed(1000 + round, w));
    fill_normal({inputs[w].data(), kDim}, rng, 0.0f, 1.0f);
  }
  return inputs;
}

SyncConfig base_config(MarParadigm paradigm, ThreadPool* pool,
                       std::size_t chunk = kChunk) {
  SyncConfig config;
  config.num_workers = kWorkers;
  config.paradigm = paradigm;
  if (paradigm == MarParadigm::kTorus2d) {
    config.torus_rows = 2;
    config.torus_cols = 2;
  }
  config.seed = 77;
  config.pool = pool;
  config.shard_chunk_elements = chunk;
  return config;
}

/// Runs kRounds synchronize() calls and returns the concatenated outputs.
/// `marsit_k` is Marsit's flush period.
std::vector<float> run_rounds(SyncMethod method, MarParadigm paradigm,
                              ThreadPool* pool, std::size_t chunk = kChunk,
                              std::size_t marsit_k = 0) {
  MethodOptions options;
  options.full_precision_period = marsit_k;
  auto strategy = make_sync_strategy(
      method, base_config(paradigm, pool, chunk), options);
  std::vector<float> all;
  std::vector<float> out(kDim);
  for (std::size_t t = 0; t < kRounds; ++t) {
    const auto inputs = make_inputs(t);
    WorkerSpans spans;
    for (const auto& in : inputs) {
      spans.emplace_back(in.data(), in.size());
    }
    strategy->synchronize(spans, {out.data(), out.size()});
    all.insert(all.end(), out.begin(), out.end());
  }
  return all;
}

void expect_bit_identical(const std::vector<float>& a,
                          const std::vector<float>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << label << ": outputs differ across pool sizes";
}

void check_pool_invariance(SyncMethod method, MarParadigm paradigm,
                           const char* label, std::size_t marsit_k = 0) {
  ThreadPool pool1(1), pool4(4), pool_hw(0);
  // Chunk grids: many ragged chunks, a handful, and one covering the
  // payload.
  for (const std::size_t chunk : {kChunk, std::size_t{4096}, kDim}) {
    SCOPED_TRACE(testing::Message() << "chunk " << chunk);
    const std::vector<float> ref =
        run_rounds(method, paradigm, &pool1, chunk, marsit_k);
    expect_bit_identical(
        run_rounds(method, paradigm, &pool4, chunk, marsit_k), ref, label);
    expect_bit_identical(
        run_rounds(method, paradigm, &pool_hw, chunk, marsit_k), ref, label);
  }
}

TEST(ShardedSyncTest, MarsitRingPoolInvariant) {
  check_pool_invariance(SyncMethod::kMarsit, MarParadigm::kRing,
                        "Marsit-2-RAR", 2);
}

TEST(ShardedSyncTest, MarsitTorusPoolInvariant) {
  check_pool_invariance(SyncMethod::kMarsit, MarParadigm::kTorus2d,
                        "Marsit-2-TAR", 2);
}

TEST(ShardedSyncTest, MarsitPsPoolInvariant) {
  check_pool_invariance(SyncMethod::kMarsit, MarParadigm::kParameterServer,
                        "Marsit-2-PS", 2);
}

TEST(ShardedSyncTest, MarsitTreePoolInvariant) {
  check_pool_invariance(SyncMethod::kMarsit, MarParadigm::kTree,
                        "Marsit-2-TREE", 2);
}

TEST(ShardedSyncTest, SignSgdPoolInvariant) {
  check_pool_invariance(SyncMethod::kSignSgdMv, MarParadigm::kRing,
                        "signSGD-MV");
}

TEST(ShardedSyncTest, SsdmPoolInvariant) {
  check_pool_invariance(SyncMethod::kSsdm, MarParadigm::kRing, "SSDM-RAR");
}

TEST(ShardedSyncTest, SsdmPsPoolInvariant) {
  check_pool_invariance(SyncMethod::kSsdmPs, MarParadigm::kParameterServer,
                        "SSDM-PS");
}

TEST(ShardedSyncTest, EfSignSgdPoolInvariant) {
  check_pool_invariance(SyncMethod::kEfSignSgd, MarParadigm::kRing,
                        "EF-signSGD");
}

TEST(ShardedSyncTest, SignSgdMatchesScalarReference) {
  // The whole sharded round, pinned against the serial scalar path:
  // per-worker pack_signs_scalar → SignSum::accumulate_scalar →
  // majority_scalar → unpack_signs_scalar.
  ThreadPool pool(3);
  const float eta_s = 1e-3f;  // MethodOptions default
  const auto inputs = make_inputs(0);
  WorkerSpans spans;
  for (const auto& in : inputs) {
    spans.emplace_back(in.data(), in.size());
  }

  SignSum sum(kDim);
  for (const auto& in : inputs) {
    sum.accumulate_scalar(pack_signs_scalar({in.data(), in.size()}));
  }
  std::vector<float> expected(kDim);
  unpack_signs_scalar(sum.majority_scalar(), eta_s,
                      {expected.data(), expected.size()});

  auto strategy = make_sync_strategy(SyncMethod::kSignSgdMv,
                                     base_config(MarParadigm::kRing, &pool));
  std::vector<float> out(kDim);
  strategy->synchronize(spans, {out.data(), out.size()});
  EXPECT_EQ(
      std::memcmp(out.data(), expected.data(), kDim * sizeof(float)), 0)
      << "sharded signSGD-MV diverges from the scalar reference";
}

TEST(ShardedSyncTest, MarsitShardChunkIsAPurePerformanceKnob) {
  // Marsit's ⊙ draws are keyed by (segment, op) of the paradigm's
  // reduce-scatter schedule, never by shard chunk, so every chunk size and
  // pool size must produce the same bytes.
  ThreadPool pool1(1), pool4(4);
  for (const MarParadigm paradigm :
       {MarParadigm::kRing, MarParadigm::kTorus2d,
        MarParadigm::kParameterServer, MarParadigm::kTree}) {
    const std::vector<float> ref =
        run_rounds(SyncMethod::kMarsit, paradigm, &pool1, kChunk);
    for (const std::size_t chunk :
         {std::size_t{64}, std::size_t{256}, std::size_t{4096},
          std::size_t{1} << 20}) {
      for (ThreadPool* pool : {&pool1, &pool4}) {
        SCOPED_TRACE(testing::Message() << "chunk " << chunk << ", "
                                        << pool->num_threads()
                                        << "-thread pool");
        expect_bit_identical(
            run_rounds(SyncMethod::kMarsit, paradigm, pool, chunk),
            ref, mar_paradigm_name(paradigm));
      }
    }
  }
}

/// The five strategies whose rounds run sharded on the pool, each on its
/// home paradigm.
struct StrategyCase {
  SyncMethod method;
  MarParadigm paradigm;
  const char* label;
};

const StrategyCase kShardedCases[] = {
    {SyncMethod::kMarsit, MarParadigm::kRing, "Marsit-RAR"},
    {SyncMethod::kSignSgdMv, MarParadigm::kRing, "signSGD-MV"},
    {SyncMethod::kEfSignSgd, MarParadigm::kRing, "EF-signSGD"},
    {SyncMethod::kSsdm, MarParadigm::kRing, "SSDM-RAR"},
    {SyncMethod::kSsdmPs, MarParadigm::kParameterServer, "SSDM-PS"},
};

TEST(ShardedSyncTest, HotLoopIsAllocationFreeAfterWarmup) {
  // Single-thread pool: parallel_for runs every chunk inline on this
  // thread's arena, so the steady state is deterministic — after one warm
  // round the grow counter must stay exactly flat.
  ThreadPool pool(1);
  const auto inputs = make_inputs(0);
  WorkerSpans spans;
  for (const auto& in : inputs) {
    spans.emplace_back(in.data(), in.size());
  }
  for (const StrategyCase& c : kShardedCases) {
    auto strategy =
        make_sync_strategy(c.method, base_config(c.paradigm, &pool));
    std::vector<float> out(kDim);
    strategy->synchronize(spans, {out.data(), out.size()});  // warmup
    const std::uint64_t grows = ScratchArena::total_grows();
    for (std::size_t t = 1; t < 4; ++t) {
      strategy->synchronize(spans, {out.data(), out.size()});
    }
    EXPECT_EQ(ScratchArena::total_grows(), grows)
        << c.label << ": sync hot loop allocated arena blocks per round";
  }
}

TEST(ShardedSyncTest, MultiThreadArenaGrowthIsBoundedNotPerRound) {
  // With a real pool the chunk→thread assignment is nondeterministic, so
  // per-thread warm sets can still fill in lazily — but growth must be a
  // small constant (bounded by threads × blocks per task), never
  // proportional to rounds × chunks the way a per-chunk vector would be.
  ThreadPool pool(4);
  auto strategy = make_sync_strategy(SyncMethod::kSignSgdMv,
                                     base_config(MarParadigm::kRing, &pool));
  std::vector<float> out(kDim);
  const auto inputs = make_inputs(0);
  WorkerSpans spans;
  for (const auto& in : inputs) {
    spans.emplace_back(in.data(), in.size());
  }
  for (std::size_t t = 0; t < 3; ++t) {  // warmup
    strategy->synchronize(spans, {out.data(), out.size()});
  }
  const std::uint64_t grows = ScratchArena::total_grows();
  constexpr std::size_t kMoreRounds = 10;
  for (std::size_t t = 0; t < kMoreRounds; ++t) {
    strategy->synchronize(spans, {out.data(), out.size()});
  }
  // 10 rounds × 20 chunks would be ≥ 200 grows with per-chunk allocation.
  EXPECT_LE(ScratchArena::total_grows() - grows, 8u)
      << "arena growth scales with rounds — per-chunk allocation is back";
}

}  // namespace
}  // namespace marsit
