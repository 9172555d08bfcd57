// Kernel benchmark harness: scalar vs word-parallel vs sharded timings for
// the hot bit-plane kernels (sign packing/unpacking, sign-sum accumulation,
// majority vote, the ⊙ combine), written as JSON for regression tracking.
//
//   micro_kernels [--out BENCH_kernels.json] [--sizes 1048576,16777216,...]
//                 [--reps 5] [--threads N]
//
// Per kernel and size the harness reports the best-of-reps seconds for
//   * scalar   — the original element-at-a-time loops (*_scalar),
//   * word     — the 64-elements-per-word kernels (compress/kernels.hpp),
//   * sharded  — the word kernels fanned over the thread pool in
//                ShardPlan chunks (the synchronization path's shape),
// plus the speedup ratios scalar/word and scalar/sharded.  The word kernels
// are bit-identical to the scalar references (tests/compress_kernels_test),
// so this file measures pure throughput, not accuracy trade-offs.
//
// Marsit's ⊙ reduction gets its own rows per size: the ring's
// marsit_fold_signs_segmented at M ∈ {4, 32} workers, "word" on a 1-thread
// pool and "sharded" with its segment chains on the bench pool.  The two
// aggregates are memcmp-compared, and a mismatch exits non-zero.
//
// The settle_add_pack_signs rows time Algorithm 1's line 1 with the
// previous round's line 10 settled first: "scalar" is the three-pass form
// (accumulate_signs_words, `add`, then pack_signs_words), "word" the fused
// settle_add_pack_signs_words, "sharded" the fused kernel over the chunk
// grid.  Before timing, one fused call that settles in place must match
// the three passes byte for byte, or the harness exits non-zero.
//
// Two fixed-shape sections ride along, independent of --sizes.  The GEMM
// rows time the three products of a Linear layer at batch 16 on the Linear
// shapes of the benchmark MLPs (seconds and GFLOP/s): forward matmul_a_bt,
// the input gradient matmul and the weight gradient matmul_at_b (β = 0).
// Each row also computes its product in the other two layouts, and
// matmul_at_b at the output scale SGD's backward uses (η_l = 0.05), which
// must equal the unscaled product scaled afterwards; a byte that differs
// exits non-zero.  CRC32 runs at the two frame sizes of a ring-large round,
// each one hop of hop_schedule (GB/s).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "compress/kernels.hpp"
#include "compress/sign_codec.hpp"
#include "compress/sign_sum.hpp"
#include "core/hop_schedule.hpp"
#include "core/one_bit.hpp"
#include "core/segmented_fold.hpp"
#include "net/crc32.hpp"
#include "parallel/shard.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace marsit {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-reps wall time of fn(), with one untimed warmup call.
template <typename Fn>
double time_best(std::size_t reps, Fn&& fn) {
  fn();  // warmup: page in buffers, settle the pool
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    const double t1 = now_seconds();
    best = std::min(best, t1 - t0);
  }
  return best;
}

struct KernelResult {
  std::string kernel;
  std::size_t elements = 0;
  double scalar_seconds = 0.0;
  double word_seconds = 0.0;
  double sharded_seconds = 0.0;
};

struct Options {
  std::string out = "BENCH_kernels.json";
  std::vector<std::size_t> sizes = {1u << 20, 1u << 24, 1u << 26};
  std::size_t reps = 5;
  std::size_t threads = 0;  // 0 = hardware concurrency
};

std::size_t parse_count(const std::string& text, const char* flag) {
  try {
    std::size_t consumed = 0;
    const std::size_t value = std::stoull(text, &consumed);
    if (consumed != text.size()) {
      throw std::invalid_argument(text);
    }
    return value;
  } catch (const std::exception&) {
    std::fprintf(stderr, "invalid value '%s' for %s\n", text.c_str(), flag);
    std::exit(2);
  }
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--sizes") {
      opt.sizes.clear();
      const std::string list = value();
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t next = list.find(',', pos);
        if (next == std::string::npos) {
          next = list.size();
        }
        opt.sizes.push_back(
            parse_count(list.substr(pos, next - pos), "--sizes"));
        pos = next + 1;
      }
    } else if (arg == "--reps") {
      opt.reps = parse_count(value(), "--reps");
    } else if (arg == "--threads") {
      opt.threads = parse_count(value(), "--threads");
    } else {
      std::fprintf(stderr,
                   "usage: micro_kernels [--out FILE] [--sizes N,N,...] "
                   "[--reps R] [--threads T]\n");
      std::exit(2);
    }
  }
  return opt;
}

/// The shared chunk geometry used by the sharded timings (matches
/// SyncConfig::shard_chunk_elements' default).
constexpr std::size_t kChunk = 1 << 16;

/// The owed scale of settle_add_pack_signs_words: −η_s.
constexpr float kSettleScale = -0.5f;

/// One settle_add_pack_signs_words call with `owed` aliasing its output
/// words, against accumulate_signs_words, `add` and pack_signs_words.
/// Exits 1 if a byte of c or of the words differs.
void check_settle_add_pack(std::span<const float> u, const BitVector& owed,
                           std::span<const float> c) {
  const std::size_t d = u.size();
  std::vector<float> expected(c.begin(), c.end());
  std::vector<float> fused(c.begin(), c.end());
  BitVector expected_signs(d);
  BitVector fused_signs = owed;
  kernels::accumulate_signs_words(owed.words(), kSettleScale,
                                  {expected.data(), d});
  add(u, {expected.data(), d}, {expected.data(), d});
  kernels::pack_signs_words({expected.data(), d}, expected_signs.words());
  kernels::settle_add_pack_signs_words(fused_signs.words(), kSettleScale, u,
                                       {fused.data(), d},
                                       fused_signs.words());
  if (std::memcmp(expected.data(), fused.data(), d * sizeof(float)) != 0 ||
      fused_signs != expected_signs) {
    std::fprintf(stderr,
                 "settle_add_pack_signs: fused kernel differs from its "
                 "three passes at %zu elements\n",
                 d);
    std::exit(1);
  }
}

std::vector<KernelResult> run_size(std::size_t d, std::size_t reps,
                                   ThreadPool& pool) {
  std::vector<KernelResult> results;
  Rng rng(42);
  std::vector<float> g(d);
  fill_normal({g.data(), d}, rng, 0.0f, 1.0f);
  const std::span<const float> gs{g.data(), d};

  BitVector bits = pack_signs(gs);
  std::vector<float> out(d);
  const std::span<float> outs{out.data(), d};
  SignSum sum(d);
  const ShardPlan plan(d, kChunk);
  const auto sharded = [&](auto&& chunk_fn) {
    parallel_for(pool, plan.num_chunks(), [&](std::size_t c) {
      chunk_fn(plan.chunk(c));
    });
  };

  {
    KernelResult r;
    r.kernel = "pack_signs";
    r.elements = d;
    BitVector scratch(d);
    r.scalar_seconds =
        time_best(reps, [&] { scratch = pack_signs_scalar(gs); });
    r.word_seconds = time_best(
        reps, [&] { kernels::pack_signs_words(gs, scratch.words()); });
    r.sharded_seconds = time_best(reps, [&] {
      sharded([&](const Shard& s) {
        kernels::pack_signs_words(
            gs.subspan(s.begin, s.size()),
            scratch.words().subspan(s.word_begin(), s.num_words()));
      });
    });
    results.push_back(r);
  }

  {
    KernelResult r;
    r.kernel = "settle_add_pack_signs";
    r.elements = d;
    std::vector<float> comp(g.rbegin(), g.rend());
    const std::span<float> comps{comp.data(), d};
    check_settle_add_pack(gs, bits, comps);
    // Each call settles the words the previous one packed, in place.
    BitVector owed = bits;
    r.scalar_seconds = time_best(reps, [&] {
      kernels::accumulate_signs_words(owed.words(), kSettleScale, comps);
      add(gs, comps, comps);
      kernels::pack_signs_words(comps, owed.words());
    });
    r.word_seconds = time_best(reps, [&] {
      kernels::settle_add_pack_signs_words(owed.words(), kSettleScale, gs,
                                           comps, owed.words());
    });
    r.sharded_seconds = time_best(reps, [&] {
      sharded([&](const Shard& s) {
        const auto words =
            owed.words().subspan(s.word_begin(), s.num_words());
        kernels::settle_add_pack_signs_words(
            words, kSettleScale, gs.subspan(s.begin, s.size()),
            comps.subspan(s.begin, s.size()), words);
      });
    });
    results.push_back(r);
  }

  {
    KernelResult r;
    r.kernel = "unpack_signs";
    r.elements = d;
    r.scalar_seconds =
        time_best(reps, [&] { unpack_signs_scalar(bits, 0.5f, outs); });
    r.word_seconds = time_best(
        reps, [&] { kernels::unpack_signs_words(bits.words(), 0.5f, outs); });
    r.sharded_seconds = time_best(reps, [&] {
      sharded([&](const Shard& s) {
        kernels::unpack_signs_words(
            bits.words().subspan(s.word_begin(), s.num_words()), 0.5f,
            outs.subspan(s.begin, s.size()));
      });
    });
    results.push_back(r);
  }

  {
    KernelResult r;
    r.kernel = "accumulate_signs";
    r.elements = d;
    r.scalar_seconds =
        time_best(reps, [&] { accumulate_signs_scalar(bits, 0.5f, outs); });
    r.word_seconds = time_best(reps, [&] {
      kernels::accumulate_signs_words(bits.words(), 0.5f, outs);
    });
    r.sharded_seconds = time_best(reps, [&] {
      sharded([&](const Shard& s) {
        kernels::accumulate_signs_words(
            bits.words().subspan(s.word_begin(), s.num_words()), 0.5f,
            outs.subspan(s.begin, s.size()));
      });
    });
    results.push_back(r);
  }

  {
    KernelResult r;
    r.kernel = "signsum_accumulate";
    r.elements = d;
    r.scalar_seconds = time_best(reps, [&] { sum.accumulate_scalar(bits); });
    r.word_seconds = time_best(reps, [&] { sum.accumulate(bits); });
    std::vector<std::int32_t> counts(d, 0);
    r.sharded_seconds = time_best(reps, [&] {
      sharded([&](const Shard& s) {
        kernels::accumulate_counts_words(
            bits.words().subspan(s.word_begin(), s.num_words()),
            std::span<std::int32_t>(counts).subspan(s.begin, s.size()));
      });
    });
    results.push_back(r);
  }

  {
    KernelResult r;
    r.kernel = "signsum_majority";
    r.elements = d;
    BitVector scratch(d);
    r.scalar_seconds = time_best(reps, [&] { scratch = sum.majority_scalar(); });
    r.word_seconds = time_best(reps, [&] { scratch = sum.majority(); });
    r.sharded_seconds = time_best(reps, [&] {
      sharded([&](const Shard& s) {
        kernels::majority_words(
            sum.values().subspan(s.begin, s.size()),
            scratch.words().subspan(s.word_begin(), s.num_words()));
      });
    });
    results.push_back(r);
  }

  {
    // ⊙ has no scalar/word split (it is word-parallel by construction);
    // "scalar" is the allocating per-hop form the reduction chains used
    // before the in-place variants, "word" the in-place combine.
    KernelResult r;
    r.kernel = "one_bit_combine";
    r.elements = d;
    Rng combine_rng(7);
    BitVector other = pack_signs(gs);
    r.scalar_seconds = time_best(reps, [&] {
      BitVector fresh = one_bit_combine(bits, 3, other, 1, combine_rng);
      (void)fresh;
    });
    r.word_seconds = time_best(
        reps, [&] { one_bit_combine_into(bits, 3, other, 1, combine_rng); });
    r.sharded_seconds = time_best(reps, [&] {
      sharded([&](const Shard& s) {
        Rng chunk_rng(derive_seed(11, s.index));
        one_bit_combine_words(
            bits.words().subspan(s.word_begin(), s.num_words()), 3,
            other.words().subspan(s.word_begin(), s.num_words()), 1,
            chunk_rng);
      });
    });
    results.push_back(r);
  }

  return results;
}

struct FoldResult {
  std::size_t elements = 0;
  std::size_t workers = 0;
  double word_seconds = 0.0;
  double sharded_seconds = 0.0;
};

/// Best-of-reps seconds of the ring's segmented fold of `workers` random
/// sign vectors of d elements, once on a 1-thread pool and once on `pool`.
/// Each call folds a fresh copy of the same inputs (the copy is untimed).
FoldResult run_fold(std::size_t d, std::size_t workers, std::size_t reps,
                    ThreadPool& pool) {
  constexpr std::uint64_t kRoundSeed = 46;
  Rng rng(45);
  std::vector<BitVector> pristine(workers, BitVector(d));
  for (BitVector& signs : pristine) {
    for (std::uint64_t& word : signs.words()) {
      word = rng.next_u64();
    }
    // Tail bits past d stay zero, as the fold's operands require.
    if (d % 64 != 0) {
      signs.words().back() &= (std::uint64_t{1} << (d % 64)) - 1;
    }
  }
  const std::size_t num_words = kernels::words_for(d);
  std::vector<BitVector> signs;
  const auto time_fold = [&](ThreadPool& fold_pool) {
    double best = 1e300;
    for (std::size_t r = 0; r <= reps; ++r) {  // r == 0: untimed warmup
      signs = pristine;
      const double t0 = now_seconds();
      marsit_fold_signs_segmented(MarParadigm::kRing, 0, 0, signs, workers,
                                  num_words, kRoundSeed, &fold_pool);
      if (r > 0) {
        best = std::min(best, now_seconds() - t0);
      }
    }
    return best;
  };
  ThreadPool serial(1);
  FoldResult result{d, workers, 0.0, 0.0};
  result.word_seconds = time_fold(serial);
  const BitVector expected = signs.front();
  result.sharded_seconds = time_fold(pool);
  if (std::memcmp(signs.front().words().data(), expected.words().data(),
                  num_words * sizeof(std::uint64_t)) != 0) {
    std::fprintf(stderr,
                 "segmented_fold: %zu-thread aggregate differs from the "
                 "1-thread one at %zu elements, %zu workers\n",
                 pool.num_threads(), d, workers);
    std::exit(1);
  }
  return result;
}

struct GemmResult {
  const char* kernel = "";
  std::size_t m = 0;
  std::size_t k = 0;
  std::size_t n = 0;
  double seconds = 0.0;

  double gflops() const {
    return 2.0 * static_cast<double>(m * k * n) / seconds / 1e9;
  }
};

std::vector<float> transposed(const std::vector<float>& x, std::size_t rows,
                              std::size_t cols) {
  std::vector<float> t(x.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      t[c * rows + r] = x[r * cols + c];
    }
  }
  return t;
}

/// a(m×k)·b(k×n) in all three layouts — matmul(a, b), matmul_a_bt(a, bᵀ),
/// matmul_at_b(aᵀ, b) — which tensor/ops.hpp defines to agree byte for byte,
/// and matmul_at_b at output scale 0.05, defined as the product scaled
/// afterwards.  Exits 1 if a byte differs.
void check_layouts(const char* row, const std::vector<float>& a,
                   const std::vector<float>& b, std::size_t m, std::size_t k,
                   std::size_t n) {
  constexpr float kGradScale = 0.05f;
  const std::vector<float> at = transposed(a, m, k);
  const std::vector<float> bt = transposed(b, k, n);
  std::vector<float> plain(m * n), a_bt(m * n), at_b(m * n),
      at_b_scaled(m * n);
  matmul({a.data(), a.size()}, {b.data(), b.size()},
         {plain.data(), plain.size()}, m, k, n);
  matmul_a_bt({a.data(), a.size()}, {bt.data(), bt.size()},
              {a_bt.data(), a_bt.size()}, m, k, n);
  matmul_at_b({at.data(), at.size()}, {b.data(), b.size()},
              {at_b.data(), at_b.size()}, m, k, n);
  matmul_at_b({at.data(), at.size()}, {b.data(), b.size()},
              {at_b_scaled.data(), at_b_scaled.size()}, m, k, n, 0.0f,
              kGradScale);
  const std::size_t bytes = plain.size() * sizeof(float);
  if (std::memcmp(plain.data(), a_bt.data(), bytes) != 0 ||
      std::memcmp(plain.data(), at_b.data(), bytes) != 0) {
    std::fprintf(stderr,
                 "%s %zux%zux%zu: matmul, matmul_a_bt and matmul_at_b "
                 "differ\n",
                 row, m, k, n);
    std::exit(1);
  }
  scale({plain.data(), plain.size()}, kGradScale);
  if (std::memcmp(plain.data(), at_b_scaled.data(), bytes) != 0) {
    std::fprintf(stderr,
                 "%s %zux%zux%zu: matmul_at_b at output scale %g differs "
                 "from the product scaled afterwards\n",
                 row, m, k, n, static_cast<double>(kGradScale));
    std::exit(1);
  }
}

/// One Linear layer's three products at batch 16, for the 196→2048 input
/// layer and the 2048→2048 hidden layer of ring-large's MLP and the
/// 1024→1024 hidden layer of sim-fold's: y = x·Wᵀ (matmul_a_bt), dx = dy·W
/// (matmul) and dW = dyᵀ·x (matmul_at_b, written with β = 0).  dy is as
/// sparse as a gradient behind a ReLU (half +0.0), so the backward rows skip
/// half their terms; gflops counts every term.
std::vector<GemmResult> run_gemm(std::size_t reps) {
  constexpr std::size_t kBatch = 16;
  const std::size_t layers[][2] = {{196, 2048}, {2048, 2048}, {1024, 1024}};
  std::vector<GemmResult> forward, input_grad, weight_grad;
  Rng rng(43);
  for (const auto& [in, out] : layers) {
    std::vector<float> x(kBatch * in), w(out * in), y(kBatch * out);
    fill_normal({x.data(), x.size()}, rng, 0.0f, 1.0f);
    fill_normal({w.data(), w.size()}, rng, 0.0f, 1.0f);
    std::vector<float> dy(kBatch * out), dx(kBatch * in), dw(out * in);
    fill_normal({dy.data(), dy.size()}, rng, 0.0f, 1.0f);
    for (float& v : dy) {
      v = std::max(v, 0.0f);
    }

    GemmResult r{"matmul_a_bt", kBatch, in, out, 0.0};
    r.seconds = time_best(reps, [&] {
      matmul_a_bt({x.data(), x.size()}, {w.data(), w.size()},
                  {y.data(), y.size()}, kBatch, in, out);
    });
    check_layouts(r.kernel, x, transposed(w, out, in), kBatch, in, out);
    forward.push_back(r);

    r = {"matmul", kBatch, out, in, 0.0};
    r.seconds = time_best(reps, [&] {
      matmul({dy.data(), dy.size()}, {w.data(), w.size()},
             {dx.data(), dx.size()}, kBatch, out, in);
    });
    check_layouts(r.kernel, dy, w, kBatch, out, in);
    input_grad.push_back(r);

    r = {"matmul_at_b", out, kBatch, in, 0.0};
    r.seconds = time_best(reps, [&] {
      matmul_at_b({dy.data(), dy.size()}, {x.data(), x.size()},
                  {dw.data(), dw.size()}, out, kBatch, in);
    });
    check_layouts(r.kernel, transposed(dy, kBatch, out), x, out, kBatch, in);
    weight_grad.push_back(r);
  }
  forward.insert(forward.end(), input_grad.begin(), input_grad.end());
  forward.insert(forward.end(), weight_grad.begin(), weight_grad.end());
  return forward;
}

struct CrcResult {
  std::size_t bytes = 0;
  double seconds = 0.0;

  double gb_per_s() const { return static_cast<double>(bytes) / seconds / 1e9; }
};

/// crc32 over ring-large's two frame payloads (D = 4,620,298, the
/// parameters of make_mlp(196, {2048, 2048}, 10), on a 4-rank ring): the
/// first hop of a one-bit round (a segment of sign words) and of the flush
/// (a reduce-scatter segment of floats).
std::vector<CrcResult> run_crc(std::size_t reps) {
  constexpr std::size_t kRingLargeParams = 4620298;
  const auto first_hop = [](RoundKind kind, std::size_t units) {
    return hop_schedule(kind, MarParadigm::kRing, 0, 4, units)
        .phases.front()
        .chains.front()
        .front()
        .count;
  };
  const std::size_t sizes[] = {
      first_hop(RoundKind::kOneBit, kernels::words_for(kRingLargeParams)) *
          sizeof(std::uint64_t),
      first_hop(RoundKind::kAllReduce, kRingLargeParams) * sizeof(float)};
  std::vector<CrcResult> results;
  Rng rng(44);
  for (const std::size_t bytes : sizes) {
    std::vector<std::uint8_t> payload(bytes);
    for (std::uint8_t& b : payload) {
      b = static_cast<std::uint8_t>(rng.next_u64());
    }
    volatile std::uint32_t sink = 0;
    CrcResult r{bytes, 0.0};
    r.seconds = time_best(reps, [&] { sink = crc32(payload.data(), bytes); });
    (void)sink;
    results.push_back(r);
  }
  return results;
}

/// "model name" from /proc/cpuinfo, so a committed file names its machine.
std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

void write_json(const Options& opt, const std::string& command,
                const std::vector<KernelResult>& results,
                const std::vector<FoldResult>& folds,
                const std::vector<GemmResult>& gemm,
                const std::vector<CrcResult>& crc, std::size_t threads) {
  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", opt.out.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_kernels\",\n");
  std::fprintf(f, "  \"command\": \"%s\",\n", command.c_str());
  std::fprintf(f, "  \"cpu\": \"%s\",\n", cpu_model().c_str());
  std::fprintf(f, "  \"nproc\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"pool_threads\": %zu,\n", threads);
  std::fprintf(f, "  \"chunk_elements\": %zu,\n",
               static_cast<std::size_t>(kChunk));
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"elements\": %zu, "
                 "\"scalar_seconds\": %.9f, \"word_seconds\": %.9f, "
                 "\"sharded_seconds\": %.9f, \"word_speedup\": %.3f, "
                 "\"sharded_speedup\": %.3f}%s\n",
                 r.kernel.c_str(), r.elements, r.scalar_seconds,
                 r.word_seconds, r.sharded_seconds,
                 r.scalar_seconds / r.word_seconds,
                 r.scalar_seconds / r.sharded_seconds,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"segmented_fold\": [\n");
  for (std::size_t i = 0; i < folds.size(); ++i) {
    const FoldResult& r = folds[i];
    std::fprintf(f,
                 "    {\"kernel\": \"segmented_fold\", \"elements\": %zu, "
                 "\"workers\": %zu, \"word_seconds\": %.9f, "
                 "\"sharded_seconds\": %.9f, \"sharded_speedup\": %.3f}%s\n",
                 r.elements, r.workers, r.word_seconds, r.sharded_seconds,
                 r.word_seconds / r.sharded_seconds,
                 i + 1 < folds.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"gemm\": [\n");
  for (std::size_t i = 0; i < gemm.size(); ++i) {
    const GemmResult& r = gemm[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"m\": %zu, \"k\": %zu, "
                 "\"n\": %zu, \"seconds\": %.9f, \"gflops\": %.2f}%s\n",
                 r.kernel, r.m, r.k, r.n, r.seconds, r.gflops(),
                 i + 1 < gemm.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"crc32\": [\n");
  for (std::size_t i = 0; i < crc.size(); ++i) {
    const CrcResult& r = crc[i];
    std::fprintf(f,
                 "    {\"kernel\": \"crc32\", \"bytes\": %zu, "
                 "\"seconds\": %.9f, \"gb_per_s\": %.3f}%s\n",
                 r.bytes, r.seconds, r.gb_per_s(),
                 i + 1 < crc.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace marsit

int main(int argc, char** argv) {
  using namespace marsit;
  const Options opt = parse_options(argc, argv);
  std::string command = "micro_kernels";
  for (int i = 1; i < argc; ++i) {
    command += std::string(" ") + argv[i];
  }
  ThreadPool pool(opt.threads);
  std::vector<KernelResult> all;
  for (const std::size_t d : opt.sizes) {
    std::fprintf(stderr, "timing %zu elements...\n", d);
    const std::vector<KernelResult> batch = run_size(d, opt.reps, pool);
    for (const KernelResult& r : batch) {
      std::fprintf(stderr, "  %-18s scalar %.4fs  word %.4fs (%.1fx)  "
                   "sharded %.4fs (%.1fx)\n",
                   r.kernel.c_str(), r.scalar_seconds, r.word_seconds,
                   r.scalar_seconds / r.word_seconds, r.sharded_seconds,
                   r.scalar_seconds / r.sharded_seconds);
      all.push_back(r);
    }
  }
  std::vector<FoldResult> folds;
  for (const std::size_t d : opt.sizes) {
    for (const std::size_t workers : {std::size_t{4}, std::size_t{32}}) {
      std::fprintf(stderr, "timing segmented fold, %zu elements x %zu...\n",
                   d, workers);
      folds.push_back(run_fold(d, workers, opt.reps, pool));
      const FoldResult& r = folds.back();
      std::fprintf(stderr, "  segmented_fold     word %.4fs  sharded %.4fs "
                   "(%.1fx)\n", r.word_seconds, r.sharded_seconds,
                   r.word_seconds / r.sharded_seconds);
    }
  }
  std::fprintf(stderr, "timing GEMMs and CRC32...\n");
  const std::vector<GemmResult> gemm = run_gemm(opt.reps);
  for (const GemmResult& r : gemm) {
    std::fprintf(stderr, "  %-11s %zux%zux%zu  %.6fs  %.1f GFLOP/s\n",
                 r.kernel, r.m, r.k, r.n, r.seconds, r.gflops());
  }
  const std::vector<CrcResult> crc = run_crc(opt.reps);
  for (const CrcResult& r : crc) {
    std::fprintf(stderr, "  crc32 %zu bytes  %.6fs  %.2f GB/s\n", r.bytes,
                 r.seconds, r.gb_per_s());
  }
  write_json(opt, command, all, folds, gemm, crc, pool.num_threads());
  std::fprintf(stderr, "wrote %s\n", opt.out.c_str());
  return 0;
}
