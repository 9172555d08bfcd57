#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace marsit {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(TensorTest, SizeConstructorZeroFills) {
  Tensor t(5);
  EXPECT_EQ(t.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(t[i], 0.0f);
  }
}

TEST(TensorTest, InitializerList) {
  Tensor t{1.0f, 2.0f, 3.0f};
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1], 2.0f);
}

TEST(TensorTest, FromVectorMovesData) {
  Tensor t = Tensor::from_vector({9.0f, 8.0f});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0], 9.0f);
}

TEST(OpsTest, AxpyAndScale) {
  Tensor x{1, 2, 3};
  Tensor y{10, 20, 30};
  axpy(2.0f, x.span(), y.span());
  EXPECT_EQ(y[0], 12.0f);
  EXPECT_EQ(y[2], 36.0f);
  scale(y.span(), 0.5f);
  EXPECT_EQ(y[0], 6.0f);
}

TEST(OpsTest, AddSubHadamardSupportAliasing) {
  Tensor a{1, 2, 3};
  Tensor b{4, 5, 6};
  add(a.span(), b.span(), a.span());
  EXPECT_EQ(a[2], 9.0f);
  sub(a.span(), b.span(), a.span());
  EXPECT_EQ(a[2], 3.0f);
  hadamard(a.span(), b.span(), a.span());
  EXPECT_EQ(a[2], 18.0f);
}

TEST(OpsTest, ExtentMismatchThrows) {
  Tensor a(3), b(4);
  EXPECT_THROW(add(a.span(), b.span(), a.span()), CheckError);
  EXPECT_THROW(dot(a.span(), b.span()), CheckError);
}

TEST(OpsTest, Reductions) {
  Tensor x{3, -4, 0};
  EXPECT_FLOAT_EQ(dot(x.span(), x.span()), 25.0f);
  EXPECT_FLOAT_EQ(l1_norm(x.span()), 7.0f);
  EXPECT_FLOAT_EQ(l2_norm(x.span()), 5.0f);
  EXPECT_FLOAT_EQ(squared_l2_norm(x.span()), 25.0f);
  EXPECT_FLOAT_EQ(sum(x.span()), -1.0f);
  EXPECT_FLOAT_EQ(mean(x.span()), -1.0f / 3.0f);
  EXPECT_FLOAT_EQ(max_abs(x.span()), 4.0f);
  EXPECT_EQ(argmax(x.span()), 0u);
}

TEST(OpsTest, ArgmaxFirstOnTies) {
  Tensor x{1, 3, 3, 2};
  EXPECT_EQ(argmax(x.span()), 1u);
}

TEST(OpsTest, AllFiniteDetectsNanAndInf) {
  Tensor x{1, 2, 3};
  EXPECT_TRUE(all_finite(x.span()));
  x[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(all_finite(x.span()));
  x[1] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(all_finite(x.span()));
}

// all_finite scans 1024-element blocks: a non-finite value is found first,
// either side of a block boundary and in the partial last block, and −0.0,
// subnormals and the largest floats count as finite.
TEST(OpsTest, AllFiniteFindsNonFiniteValuesAcrossBlocks) {
  using Limits = std::numeric_limits<float>;
  constexpr std::size_t kSize = 3 * 1024 + 37;
  std::vector<float> x(kSize, 1.0f);
  x[5] = -0.0f;
  x[6] = Limits::denorm_min();
  x[7] = -Limits::denorm_min();
  x[1500] = Limits::max();
  x[kSize - 2] = Limits::lowest();
  EXPECT_TRUE(all_finite(x));
  EXPECT_TRUE(all_finite(std::span<const float>{}));
  for (const float bad : {Limits::infinity(), -Limits::infinity(),
                          Limits::quiet_NaN(), -Limits::quiet_NaN()}) {
    for (const std::size_t at : {std::size_t{0}, std::size_t{1023},
                                 std::size_t{1024}, std::size_t{3071},
                                 std::size_t{3072}, kSize - 1}) {
      std::vector<float> y = x;
      y[at] = bad;
      EXPECT_FALSE(all_finite(y)) << "value " << bad << " at " << at;
    }
  }
}

TEST(OpsTest, FillNormalMoments) {
  Tensor x(50000);
  Rng rng(3);
  fill_normal(x.span(), rng, 2.0f, 0.5f);
  EXPECT_NEAR(mean(x.span()), 2.0f, 0.02f);
}

TEST(OpsTest, FillUniformRange) {
  Tensor x(10000);
  Rng rng(4);
  fill_uniform(x.span(), rng, -1.0f, 1.0f);
  for (float v : x.span()) {
    ASSERT_GE(v, -1.0f);
    ASSERT_LT(v, 1.0f);
  }
  EXPECT_NEAR(mean(x.span()), 0.0f, 0.05f);
}

// Reference (i,j,k) triple-loop GEMM to validate the optimized kernels.
void naive_matmul(const std::vector<float>& a, const std::vector<float>& b,
                  std::vector<float>& c, std::size_t m, std::size_t k,
                  std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) *
               static_cast<double>(b[p * n + j]);
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class MatmulTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(MatmulTest, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(42);
  std::vector<float> a(m * k), b(k * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());

  std::vector<float> expected(m * n);
  naive_matmul(a, b, expected, m, k, n);

  std::vector<float> c(m * n, 99.0f);
  matmul({a.data(), a.size()}, {b.data(), b.size()}, {c.data(), c.size()},
         m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], expected[i], 1e-3f) << "index " << i;
  }

  // aᵀ·b variant: store a transposed (k×m) and expect the same product.
  std::vector<float> at(k * m);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      at[p * m + i] = a[i * k + p];
    }
  }
  std::vector<float> c2(m * n, 0.0f);
  matmul_at_b({at.data(), at.size()}, {b.data(), b.size()},
              {c2.data(), c2.size()}, m, k, n);
  for (std::size_t i = 0; i < c2.size(); ++i) {
    ASSERT_NEAR(c2[i], expected[i], 1e-3f);
  }

  // a·bᵀ variant: store b transposed (n×k).
  std::vector<float> bt(n * k);
  for (int p = 0; p < k; ++p) {
    for (int j = 0; j < n; ++j) {
      bt[j * k + p] = b[p * n + j];
    }
  }
  std::vector<float> c3(m * n, 0.0f);
  matmul_a_bt({a.data(), a.size()}, {bt.data(), bt.size()},
              {c3.data(), c3.size()}, m, k, n);
  for (std::size_t i = 0; i < c3.size(); ++i) {
    ASSERT_NEAR(c3[i], expected[i], 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(1, 32, 8), std::make_tuple(33, 17, 9)));

// matmul_a_bt as it was before the register-blocked kernel: transpose b,
// then run the axpy-form product against the transpose.  The kernel must
// reproduce it bit for bit — same terms, same order, same rounding.
void transpose_axpy_a_bt(const std::vector<float>& a,
                         const std::vector<float>& b, std::vector<float>& c,
                         std::size_t m, std::size_t k, std::size_t n,
                         float beta) {
  if (beta == 0.0f) {
    std::fill(c.begin(), c.end(), 0.0f);
  } else if (beta != 1.0f) {
    scale({c.data(), c.size()}, beta);
  }
  std::vector<float> transposed(k * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = 0; p < k; ++p) {
      transposed[p * n + j] = b[j * k + p];
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a.data() + i * k;
    float* c_row = c.data() + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      if (a_ip == 0.0f) {
        continue;
      }
      const float* t_row = transposed.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        c_row[j] += a_ip * t_row[j];
      }
    }
  }
}

TEST(OpsTest, MatmulABtBitIdenticalToTransposeAxpyLoop) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Rng rng(11);
  std::size_t cases = 0;
  for (const std::size_t m : {1, 3, 15, 16, 17, 33}) {
    for (const std::size_t k : {1, 7, 196}) {
      for (const std::size_t n : {1, 7, 8, 9, 64}) {
        for (const float beta : {0.0f, 1.0f, 0.5f}) {
          // a is as sparse as a ReLU output: about 45 % +0.0, 10 % −0.0.
          std::vector<float> a(m * k);
          for (float& v : a) {
            const double u = rng.uniform(0.0, 1.0);
            v = u < 0.45   ? 0.0f
                : u < 0.55 ? -0.0f
                           : static_cast<float>(rng.normal());
          }
          std::vector<float> b(n * k);
          for (float& v : b) {
            v = static_cast<float>(rng.normal());
          }
          std::vector<float> c(m * n);
          for (float& v : c) {
            v = rng.uniform(0.0, 1.0) < 0.2 ? -0.0f
                                            : static_cast<float>(rng.normal());
          }
          // Row 0 is a single term that underflows: (−1e−30)·(1e−30) rounds
          // to −0.0f, so from a +0.0f or −0.0f start the sum is a signed
          // zero whose sign depends on the rounding being reproduced.
          std::fill(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(k),
                    0.0f);
          a[0] = -1e-30f;
          for (std::size_t j = 0; j < n; ++j) {
            b[j * k] = 1e-30f;
          }
          // An infinite weight meets only zero inputs (the skip must hold:
          // 0·inf would be NaN).
          if (k > 1) {
            b[(n - 1) * k + (k - 1)] = kInf;
            for (std::size_t i = 0; i < m; ++i) {
              a[i * k + (k - 1)] = i % 2 == 0 ? 0.0f : -0.0f;
            }
          }

          std::vector<float> expected = c;
          transpose_axpy_a_bt(a, b, expected, m, k, n, beta);
          matmul_a_bt({a.data(), a.size()}, {b.data(), b.size()},
                      {c.data(), c.size()}, m, k, n, beta);
          ASSERT_EQ(std::memcmp(c.data(), expected.data(),
                                c.size() * sizeof(float)),
                    0)
              << "m=" << m << " k=" << k << " n=" << n << " beta=" << beta;
          ASSERT_TRUE(all_finite({c.data(), c.size()}));
          if (beta == 0.0f) {
            EXPECT_EQ(c[0], 0.0f);  // the underflowed row-0 sum is a zero
          }
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 6u * 3u * 5u * 3u);
}

// matmul as it was before the blocked kernel: the axpy loop
// c[i][·] += a[i][p]·b[p][·], skipping a[i][p] == 0.
void axpy_matmul(const std::vector<float>& a, const std::vector<float>& b,
                 std::vector<float>& c, std::size_t m, std::size_t k,
                 std::size_t n, float beta) {
  if (beta == 0.0f) {
    std::fill(c.begin(), c.end(), 0.0f);
  } else if (beta != 1.0f) {
    scale({c.data(), c.size()}, beta);
  }
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a.data() + i * k;
    float* c_row = c.data() + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      if (a_ip == 0.0f) {
        continue;
      }
      const float* b_row = b.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        c_row[j] += a_ip * b_row[j];
      }
    }
  }
}

// matmul_at_b as it was before the blocked kernel: the same axpy loop with
// a stored transposed (k×m) and p outermost.
void axpy_matmul_at_b(const std::vector<float>& a, const std::vector<float>& b,
                      std::vector<float>& c, std::size_t m, std::size_t k,
                      std::size_t n, float beta) {
  if (beta == 0.0f) {
    std::fill(c.begin(), c.end(), 0.0f);
  } else if (beta != 1.0f) {
    scale({c.data(), c.size()}, beta);
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* a_row = a.data() + p * m;
    const float* b_row = b.data() + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float a_pi = a_row[i];
      if (a_pi == 0.0f) {
        continue;
      }
      float* c_row = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        c_row[j] += a_pi * b_row[j];
      }
    }
  }
}

std::vector<float> transposed(const std::vector<float>& x, std::size_t rows,
                              std::size_t cols) {
  std::vector<float> t(x.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t q = 0; q < cols; ++q) {
      t[q * rows + r] = x[r * cols + q];
    }
  }
  return t;
}

/// Operands of c(m×n) = a(m×k)·b(k×n) + β·c with the edge cases of the
/// bit-exactness contract.
struct GemmOperands {
  std::vector<float> a;
  std::vector<float> b;
  std::vector<float> c;
};

GemmOperands gemm_operands(Rng& rng, std::size_t m, std::size_t k,
                           std::size_t n, float beta) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  GemmOperands ops{std::vector<float>(m * k), std::vector<float>(k * n),
                   std::vector<float>(m * n)};
  // a is as sparse as a ReLU output: about 45 % +0.0, 10 % −0.0.
  for (float& v : ops.a) {
    const double u = rng.uniform(0.0, 1.0);
    v = u < 0.45   ? 0.0f
        : u < 0.55 ? -0.0f
                   : static_cast<float>(rng.normal());
  }
  for (float& v : ops.b) {
    v = static_cast<float>(rng.normal());
  }
  // At β = 0 the kernels must not read c: NaN there would show.
  for (float& v : ops.c) {
    v = beta == 0.0f ? std::numeric_limits<float>::quiet_NaN()
        : rng.uniform(0.0, 1.0) < 0.2 ? -0.0f
                                      : static_cast<float>(rng.normal());
  }
  // Row 0 is a single term that underflows: (−1e−30)·(1e−30) rounds to
  // −0.0f, so from a +0.0f or −0.0f start the sum is a signed zero whose
  // sign depends on the FMA contraction being reproduced.
  std::fill(ops.a.begin(), ops.a.begin() + static_cast<std::ptrdiff_t>(k),
            0.0f);
  ops.a[0] = -1e-30f;
  std::fill(ops.b.begin(), ops.b.begin() + static_cast<std::ptrdiff_t>(n),
            1e-30f);
  // An infinite b meets only zero inputs (the skip must hold: 0·inf would
  // be NaN).
  if (k > 1) {
    ops.b[(k - 1) * n + (n - 1)] = kInf;
    for (std::size_t i = 0; i < m; ++i) {
      ops.a[i * k + (k - 1)] = i % 2 == 0 ? 0.0f : -0.0f;
    }
  }
  return ops;
}

bool same_bytes(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// Widths cover n mod 32 and n mod 64 ∈ {0, 1, 4, 16, 31} (the column blocks
// at every vector width) and depths cover k around the 8-deep p blocks.
constexpr std::size_t kGemmRows[] = {1, 3, 16, 17};
constexpr std::size_t kGemmDepths[] = {1, 7, 8, 9, 16, 17};
constexpr std::size_t kGemmWidths[] = {1,  4,  16, 31, 32, 33,  36,
                                       48, 63, 64, 65, 68, 80, 95,
                                       96, 97, 100, 112, 127, 196};
constexpr float kGemmBetas[] = {0.0f, 1.0f, 0.5f};

TEST(OpsTest, MatmulBitIdenticalToAxpyLoop) {
  Rng rng(12);
  for (const std::size_t m : kGemmRows) {
    for (const std::size_t k : kGemmDepths) {
      for (const std::size_t n : kGemmWidths) {
        for (const float beta : kGemmBetas) {
          const GemmOperands ops = gemm_operands(rng, m, k, n, beta);
          std::vector<float> expected = ops.c;
          axpy_matmul(ops.a, ops.b, expected, m, k, n, beta);
          std::vector<float> c = ops.c;
          matmul({ops.a.data(), ops.a.size()}, {ops.b.data(), ops.b.size()},
                 {c.data(), c.size()}, m, k, n, beta);
          ASSERT_TRUE(same_bytes(c, expected))
              << "m=" << m << " k=" << k << " n=" << n << " beta=" << beta;
          ASSERT_TRUE(all_finite({c.data(), c.size()}));
          if (beta == 0.0f) {
            EXPECT_EQ(c[0], 0.0f);  // the underflowed row-0 sum is a zero
          }
        }
      }
    }
  }
}

TEST(OpsTest, MatmulAtBBitIdenticalToAxpyLoop) {
  Rng rng(13);
  for (const std::size_t m : kGemmRows) {
    for (const std::size_t k : kGemmDepths) {
      for (const std::size_t n : kGemmWidths) {
        for (const float beta : kGemmBetas) {
          const GemmOperands ops = gemm_operands(rng, m, k, n, beta);
          const std::vector<float> at = transposed(ops.a, m, k);
          std::vector<float> expected = ops.c;
          axpy_matmul_at_b(at, ops.b, expected, m, k, n, beta);
          std::vector<float> c = ops.c;
          matmul_at_b({at.data(), at.size()}, {ops.b.data(), ops.b.size()},
                      {c.data(), c.size()}, m, k, n, beta);
          ASSERT_TRUE(same_bytes(c, expected))
              << "m=" << m << " k=" << k << " n=" << n << " beta=" << beta;
          ASSERT_TRUE(all_finite({c.data(), c.size()}));
          if (beta == 0.0f) {
            EXPECT_EQ(c[0], 0.0f);
          }
        }
      }
    }
  }
}

// One contract defines all three GEMMs, so each layout of the same product
// gives the same bytes: matmul(a, b) ≡ matmul_a_bt(a, bᵀ) ≡ matmul_at_b(aᵀ, b).
TEST(OpsTest, GemmLayoutsAgreeByteForByte) {
  Rng rng(14);
  std::size_t cases = 0;
  for (const std::size_t m : kGemmRows) {
    for (const std::size_t k : kGemmDepths) {
      for (const std::size_t n : kGemmWidths) {
        for (const float beta : kGemmBetas) {
          const GemmOperands ops = gemm_operands(rng, m, k, n, beta);
          const std::vector<float> at = transposed(ops.a, m, k);
          const std::vector<float> bt = transposed(ops.b, k, n);
          std::vector<float> plain = ops.c;
          std::vector<float> a_bt = ops.c;
          std::vector<float> at_b = ops.c;
          matmul({ops.a.data(), ops.a.size()}, {ops.b.data(), ops.b.size()},
                 {plain.data(), plain.size()}, m, k, n, beta);
          matmul_a_bt({ops.a.data(), ops.a.size()}, {bt.data(), bt.size()},
                      {a_bt.data(), a_bt.size()}, m, k, n, beta);
          matmul_at_b({at.data(), at.size()}, {ops.b.data(), ops.b.size()},
                      {at_b.data(), at_b.size()}, m, k, n, beta);
          ASSERT_TRUE(same_bytes(plain, a_bt))
              << "m=" << m << " k=" << k << " n=" << n << " beta=" << beta;
          ASSERT_TRUE(same_bytes(plain, at_b))
              << "m=" << m << " k=" << k << " n=" << n << " beta=" << beta;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, std::size(kGemmRows) * std::size(kGemmDepths) *
                       std::size(kGemmWidths) * std::size(kGemmBetas));
}

// The output scale multiplies each finished sum once, so matmul_at_b at
// scale s is scale(matmul_at_b(…), s) byte for byte: signed zeros, NaN and
// infinities included, and on rows whose last 8-deep block (the kernel's)
// has no live term, where the stored row is scaled instead.
TEST(OpsTest, MatmulAtBOutputScaleEqualsScaleAfter) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  const auto special = [&](Rng& rng, double zeros) {
    const double u = rng.uniform(0.0, 1.0);
    return u < zeros          ? 0.0f
           : u < zeros + 0.1  ? -0.0f
           : u < zeros + 0.12 ? kNaN
           : u < zeros + 0.14 ? kInf
           : u < zeros + 0.16 ? -kInf
                              : static_cast<float>(rng.normal());
  };
  constexpr std::size_t kDepths[] = {1, 8, 16, 17, 33};
  constexpr std::size_t kWidths[] = {1, 4, 16, 31, 64, 65, 97, 196};
  constexpr float kScales[] = {0.05f, -3.0f};
  Rng rng(15);
  std::size_t cases = 0;
  for (const std::size_t m : kGemmRows) {
    for (const std::size_t k : kDepths) {
      for (const std::size_t n : kWidths) {
        std::vector<float> at(k * m);  // a stored transposed: (k×m)
        std::vector<float> b(k * n);
        for (float& v : at) {
          v = special(rng, 0.4);
        }
        for (float& v : b) {
          v = special(rng, 0.0);
        }
        // Odd rows get no live term in their last block, row 2 none at all.
        const std::size_t last_block = (k - 1) / 8 * 8;
        for (std::size_t i = 0; i < m; ++i) {
          const std::size_t dead_from =
              i == 2 ? 0 : i % 2 == 1 ? last_block : k;
          for (std::size_t p = dead_from; p < k; ++p) {
            at[p * m + i] = p % 2 == 0 ? 0.0f : -0.0f;
          }
        }
        for (const float s : kScales) {
          // At β = 0 the kernel must not read c: NaN there would show.
          std::vector<float> expected(m * n, kNaN);
          matmul_at_b(at, b, expected, m, k, n);
          scale(expected, s);
          std::vector<float> c(m * n, kNaN);
          matmul_at_b(at, b, c, m, k, n, 0.0f, s);
          ASSERT_TRUE(same_bytes(c, expected))
              << "m=" << m << " k=" << k << " n=" << n << " s=" << s;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, std::size(kGemmRows) * std::size(kDepths) *
                       std::size(kWidths) * std::size(kScales));
}

TEST(OpsTest, MatmulAtBRejectsScaleWithBeta) {
  std::vector<float> a(6), b(6), c(4);
  EXPECT_THROW(matmul_at_b(a, b, c, 2, 3, 2, 1.0f, 0.5f), CheckError);
  EXPECT_THROW(matmul_at_b(a, b, c, 2, 3, 2, 0.5f, 0.5f), CheckError);
  EXPECT_NO_THROW(matmul_at_b(a, b, c, 2, 3, 2, 1.0f, 1.0f));
}

TEST(OpsTest, MatmulBetaAccumulates) {
  std::vector<float> a{1, 0, 0, 1};  // identity 2x2
  std::vector<float> b{1, 2, 3, 4};
  std::vector<float> c{10, 10, 10, 10};
  matmul({a.data(), 4}, {b.data(), 4}, {c.data(), 4}, 2, 2, 2, /*beta=*/1.0f);
  EXPECT_FLOAT_EQ(c[0], 11.0f);
  EXPECT_FLOAT_EQ(c[3], 14.0f);
}

TEST(OpsTest, MatmulExtentChecks) {
  std::vector<float> a(6), b(6), c(5);
  EXPECT_THROW(matmul({a.data(), 6}, {b.data(), 6}, {c.data(), 5}, 2, 3, 2),
               CheckError);
}

TEST(OpsTest, CopyInto) {
  Tensor src{1, 2, 3};
  Tensor dst(3);
  copy_into(src.span(), dst.span());
  EXPECT_EQ(dst[2], 3.0f);
}

TEST(OpsTest, MeanOfEmptyThrows) {
  EXPECT_THROW(mean({}), CheckError);
  EXPECT_THROW(argmax({}), CheckError);
}

}  // namespace
}  // namespace marsit
