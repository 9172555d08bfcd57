#include "tensor/ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/check.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace marsit {

namespace {

void check_same_size(std::span<const float> a, std::span<const float> b,
                     const char* what) {
  MARSIT_CHECK(a.size() == b.size())
      << what << ": extents " << a.size() << " vs " << b.size();
}

// Register block of matmul_a_bt: one vector of kLanes floats holds an output
// column's running sums for kLanes consecutive rows of `a`, and kColumns such
// vectors are live at once — independent chains that hide the add latency.
#if defined(__AVX512F__)
constexpr std::size_t kLanes = 16;
#elif defined(__AVX__)
constexpr std::size_t kLanes = 8;
#else
constexpr std::size_t kLanes = 4;
#endif
constexpr std::size_t kColumns = 8;

using Lanes = float __attribute__((vector_size(kLanes * sizeof(float))));

/// c[l][j0 + q] += Σ_p a[l][p]·b[j0 + q][p] for l < rows, q < Cols, with
/// `panel[p]` holding a[0..kLanes)[p] (zero past `rows`) and c, b row-major
/// with row strides n and k.  Each sum walks p upward and skips the terms
/// where a[l][p] == 0 — the order, skips and rounding of the axpy loop
/// c[l][·] += a[l][p]·bᵀ[p][·], so results are bit-identical to it.
template <std::size_t Cols>
void a_bt_block(const Lanes* panel, const float* b, float* c, std::size_t k,
                std::size_t n, std::size_t rows, std::size_t j0) {
  Lanes acc[Cols] = {};
  for (std::size_t q = 0; q < Cols; ++q) {
    for (std::size_t l = 0; l < rows; ++l) {
      acc[q][l] = c[l * n + j0 + q];
    }
  }
  const float* w = b + j0 * k;
  const Lanes zeros = {};
  for (std::size_t p = 0; p < k; ++p) {
    const Lanes x = panel[p];
    // Select rather than add a zero term: −0.0 + 0 would turn a −0.0 sum
    // into +0.0, and 0·inf would make a NaN.
#if defined(__AVX512F__)
    // The select as one masked FMA per column (GCC compiles the select to
    // an FMA and a masked move).  _CMP_NEQ_UQ is `!=`: NaN is live.
    const __mmask16 live = _mm512_cmp_ps_mask(x, zeros, _CMP_NEQ_UQ);
    for (std::size_t q = 0; q < Cols; ++q) {
      acc[q] = _mm512_mask3_fmadd_ps(x, _mm512_set1_ps(w[q * k + p]), acc[q],
                                     live);
    }
#else
    const auto live = x != zeros;
    for (std::size_t q = 0; q < Cols; ++q) {
      acc[q] = live ? acc[q] + x * w[q * k + p] : acc[q];
    }
#endif
  }
  for (std::size_t q = 0; q < Cols; ++q) {
    for (std::size_t l = 0; l < rows; ++l) {
      c[l * n + j0 + q] = acc[q][l];
    }
  }
}

// The backward GEMMs build every output row of c as a sum of terms
// x·b_row(p) over p ascending, x = a(i, p), skipping the terms with x == 0.
// They take p in blocks of kDepth: a block's live terms are gathered once per
// output row and then swept across the row kSweep vectors (kSweep·kLanes
// columns) at a time, the sums held in registers.
constexpr std::size_t kDepth = 8;
constexpr std::size_t kSweep = 4;

struct Terms {
  const float* rows[kDepth] = {};  // b_row(p) of each live term, p ascending
  float xs[kDepth] = {};           // its a(i, p)
  std::size_t count = 0;
};

/// The live terms of p in [p0, p1): x_p = a[p·stride], row b + p·n.
Terms gather_terms(const float* a, std::size_t stride, const float* b,
                   std::size_t n, std::size_t p0, std::size_t p1) {
  Terms terms;
  for (std::size_t p = p0; p < p1; ++p) {
    const float x = a[p * stride];
    if (x != 0.0f) {
      terms.rows[terms.count] = b + p * n;
      terms.xs[terms.count] = x;
      ++terms.count;
    }
  }
  return terms;
}

/// c_row[j] ← (fresh ? +0.0 : c_row[j]) + x_t·row_t[j] for each live term t
/// in order, j < n, then ×alpha when alpha ≠ 1.  Each step is
/// `acc + x * w`, which contracts to an FMA exactly where the axpy loop's
/// `c[j] += x * w[j]` does, and a stored float reloads exactly, so
/// splitting p into blocks changes no bit.  alpha multiplies the finished
/// sum, one rounding after the last add, as `scale` would after the store.
/// The column tail runs the axpy statement itself.
void sweep_row(const Terms& terms, float* c_row, std::size_t n, bool fresh,
               float alpha) {
  const bool scaled = alpha != 1.0f;
  constexpr std::size_t kCols = kSweep * kLanes;
  const auto load = [](const float* from) {
    Lanes lanes;
    std::memcpy(&lanes, from, sizeof(lanes));
    return lanes;
  };
  std::size_t j0 = 0;
  for (; j0 + kCols <= n; j0 += kCols) {
    float* out = c_row + j0;
    Lanes acc[kSweep];
    for (std::size_t v = 0; v < kSweep; ++v) {
      acc[v] = fresh ? Lanes{} : load(out + v * kLanes);
    }
    for (std::size_t t = 0; t < terms.count; ++t) {
      const float x = terms.xs[t];
      const float* w = terms.rows[t] + j0;
      for (std::size_t v = 0; v < kSweep; ++v) {
        acc[v] = acc[v] + x * load(w + v * kLanes);
      }
    }
    for (std::size_t v = 0; v < kSweep; ++v) {
      const Lanes sum = scaled ? acc[v] * alpha : acc[v];
      std::memcpy(out + v * kLanes, &sum, sizeof(Lanes));
    }
  }
  if (j0 == n) {
    return;
  }
  if (fresh) {
    std::fill(c_row + j0, c_row + n, 0.0f);
  }
  for (std::size_t t = 0; t < terms.count; ++t) {
    const float x = terms.xs[t];
    const float* w = terms.rows[t];
    for (std::size_t j = j0; j < n; ++j) {
      c_row[j] += x * w[j];
    }
  }
  if (scaled) {
    scale({c_row + j0, n - j0}, alpha);
  }
}

}  // namespace

void copy_into(std::span<const float> src, std::span<float> dst) {
  check_same_size(src, dst, "copy_into");
  std::copy(src.begin(), src.end(), dst.begin());
}

void fill(std::span<float> x, float value) {
  std::fill(x.begin(), x.end(), value);
}

void fill_normal(std::span<float> x, Rng& rng, float mean, float stddev) {
  for (float& v : x) {
    v = static_cast<float>(rng.normal(mean, stddev));
  }
}

void fill_uniform(std::span<float> x, Rng& rng, float lo, float hi) {
  for (float& v : x) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  check_same_size(x, y, "axpy");
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void scale(std::span<float> x, float alpha) {
  for (float& v : x) {
    v *= alpha;
  }
}

void scale(std::span<const float> x, float alpha, std::span<float> out) {
  check_same_size(x, out, "scale");
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = x[i] * alpha;
  }
}

void add(std::span<const float> a, std::span<const float> b,
         std::span<float> out) {
  check_same_size(a, b, "add");
  check_same_size(a, out, "add");
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] + b[i];
  }
}

void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> out) {
  check_same_size(a, b, "sub");
  check_same_size(a, out, "sub");
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] - b[i];
  }
}

void hadamard(std::span<const float> a, std::span<const float> b,
              std::span<float> out) {
  check_same_size(a, b, "hadamard");
  check_same_size(a, out, "hadamard");
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

float dot(std::span<const float> a, std::span<const float> b) {
  check_same_size(a, b, "dot");
  // Accumulate in double: gradient vectors reach 10^6 elements and float
  // accumulation would lose the small tail contributions the compressors
  // depend on.
  double acc = 0.0;
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return static_cast<float>(acc);
}

float l1_norm(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) {
    acc += std::fabs(static_cast<double>(v));
  }
  return static_cast<float>(acc);
}

float squared_l2_norm(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) {
    acc += static_cast<double>(v) * static_cast<double>(v);
  }
  return static_cast<float>(acc);
}

float l2_norm(std::span<const float> x) {
  return std::sqrt(squared_l2_norm(x));
}

float sum(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) {
    acc += static_cast<double>(v);
  }
  return static_cast<float>(acc);
}

float mean(std::span<const float> x) {
  MARSIT_CHECK(!x.empty()) << "mean of empty span";
  return sum(x) / static_cast<float>(x.size());
}

float max_abs(std::span<const float> x) {
  float best = 0.0f;
  for (float v : x) {
    best = std::max(best, std::fabs(v));
  }
  return best;
}

std::size_t argmax(std::span<const float> x) {
  MARSIT_CHECK(!x.empty()) << "argmax of empty span";
  std::size_t best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > x[best]) {
      best = i;
    }
  }
  return best;
}

bool all_finite(std::span<const float> x) {
  // Branch-free within each 1024-element block, so the scan vectorizes: a
  // float is inf or NaN iff its exponent bits are all ones.
  constexpr std::size_t kBlock = 1024;
  constexpr std::uint32_t kExponent = 0x7f800000u;
  for (std::size_t begin = 0; begin < x.size(); begin += kBlock) {
    const std::span<const float> block =
        x.subspan(begin, std::min(kBlock, x.size() - begin));
    std::uint32_t bad = 0;
    for (const float v : block) {
      bad |= (std::bit_cast<std::uint32_t>(v) & kExponent) == kExponent;
    }
    if (bad != 0) {
      return false;
    }
  }
  return true;
}

void matmul(std::span<const float> a, std::span<const float> b,
            std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
            float beta) {
  MARSIT_CHECK(a.size() == m * k) << "matmul: a extent";
  MARSIT_CHECK(b.size() == k * n) << "matmul: b extent";
  MARSIT_CHECK(c.size() == m * n) << "matmul: c extent";
  if (beta != 0.0f && beta != 1.0f) {
    scale(c, beta);
  }
  // Row i of c sums a[i][p]·b[p][·].  Each block of kDepth rows of b is
  // swept for every row of a in turn, so it stays in cache and b streams
  // from memory once per call.  Walking a column block down all k rows of
  // b instead strides n floats per step and is slower than the axpy loop.
  bool fresh = beta == 0.0f;
  std::size_t p0 = 0;
  do {
    const std::size_t p1 = std::min(k, p0 + kDepth);
    for (std::size_t i = 0; i < m; ++i) {
      const Terms terms =
          gather_terms(a.data() + i * k, 1, b.data(), n, p0, p1);
      if (fresh || terms.count > 0) {
        sweep_row(terms, c.data() + i * n, n, fresh, 1.0f);
      }
    }
    fresh = false;
    p0 = p1;
  } while (p0 < k);
}

void matmul_at_b(std::span<const float> a, std::span<const float> b,
                 std::span<float> c, std::size_t m, std::size_t k,
                 std::size_t n, float beta, float alpha) {
  MARSIT_CHECK(a.size() == k * m) << "matmul_at_b: a extent";
  MARSIT_CHECK(b.size() == k * n) << "matmul_at_b: b extent";
  MARSIT_CHECK(c.size() == m * n) << "matmul_at_b: c extent";
  MARSIT_CHECK(alpha == 1.0f || beta == 0.0f)
      << "matmul_at_b: an output scale needs beta = 0";
  if (beta != 0.0f && beta != 1.0f) {
    scale(c, beta);
  }
  // c(m×n) = aᵀ·b with a stored (k×m): row i of c sums a[p][i]·b[p][·].
  // Rows of c are finished one at a time, so each is written from registers
  // once per block of kDepth p while all k rows of b stay in cache; at
  // β = 0 the first block never reads c.  The last block applies alpha as
  // it stores; a last block without a live term scales the stored row.
  for (std::size_t i = 0; i < m; ++i) {
    float* c_row = c.data() + i * n;
    bool fresh = beta == 0.0f;
    std::size_t p0 = 0;
    do {
      const std::size_t p1 = std::min(k, p0 + kDepth);
      const float block_alpha = p1 == k ? alpha : 1.0f;
      const Terms terms = gather_terms(a.data() + i, m, b.data(), n, p0, p1);
      if (fresh || terms.count > 0) {
        sweep_row(terms, c_row, n, fresh, block_alpha);
      } else if (block_alpha != 1.0f) {
        scale({c_row, n}, block_alpha);
      }
      fresh = false;
      p0 = p1;
    } while (p0 < k);
  }
}

void matmul_a_bt(std::span<const float> a, std::span<const float> b,
                 std::span<float> c, std::size_t m, std::size_t k,
                 std::size_t n, float beta) {
  MARSIT_CHECK(a.size() == m * k) << "matmul_a_bt: a extent";
  MARSIT_CHECK(b.size() == n * k) << "matmul_a_bt: b extent";
  MARSIT_CHECK(c.size() == m * n) << "matmul_a_bt: c extent";
  if (beta == 0.0f) {
    std::fill(c.begin(), c.end(), 0.0f);
  } else if (beta != 1.0f) {
    scale(c, beta);
  }
  // c(m×n) = a·bᵀ with b stored (n×k).  Each block of kLanes rows of `a`
  // is packed k×kLanes, so one vector load serves every row at step p; each
  // row of b (one output column) then streams through once per block.
  thread_local std::vector<Lanes> panel;
  panel.resize(k);
  for (std::size_t i0 = 0; i0 < m; i0 += kLanes) {
    const std::size_t rows = std::min(kLanes, m - i0);
    for (std::size_t p = 0; p < k; ++p) {
      Lanes lanes = {};
      for (std::size_t l = 0; l < rows; ++l) {
        lanes[l] = a[(i0 + l) * k + p];
      }
      panel[p] = lanes;
    }
    float* c_rows = c.data() + i0 * n;
    std::size_t j0 = 0;
    for (; j0 + kColumns <= n; j0 += kColumns) {
      a_bt_block<kColumns>(panel.data(), b.data(), c_rows, k, n, rows, j0);
    }
    for (; j0 < n; ++j0) {
      a_bt_block<1>(panel.data(), b.data(), c_rows, k, n, rows, j0);
    }
  }
}

}  // namespace marsit
