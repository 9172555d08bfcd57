// Numeric kernels over flat float spans: BLAS-1 style vector ops plus three
// GEMM forms.  These are the only places in the project that touch raw
// float loops; everything above (optimizers, compressors, layers) composes
// them.
//
// All binary ops require equal extents (checked); outputs may alias inputs
// where noted.
#pragma once

#include <cstddef>
#include <span>

#include "util/rng.hpp"

namespace marsit {

// ---- fills / copies -------------------------------------------------------

void copy_into(std::span<const float> src, std::span<float> dst);
void fill(std::span<float> x, float value);
inline void zero(std::span<float> x) { fill(x, 0.0f); }

/// Fills x with i.i.d. N(mean, stddev) draws from rng.
void fill_normal(std::span<float> x, Rng& rng, float mean, float stddev);

/// Fills x with i.i.d. U[lo, hi) draws from rng.
void fill_uniform(std::span<float> x, Rng& rng, float lo, float hi);

// ---- elementwise ----------------------------------------------------------

/// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha
void scale(std::span<float> x, float alpha);

/// out = a + b  (out may alias a or b)
void add(std::span<const float> a, std::span<const float> b,
         std::span<float> out);

/// out = a - b  (out may alias a or b)
void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> out);

/// out = a * b elementwise  (out may alias a or b)
void hadamard(std::span<const float> a, std::span<const float> b,
              std::span<float> out);

// ---- reductions -----------------------------------------------------------

float dot(std::span<const float> a, std::span<const float> b);
float l1_norm(std::span<const float> x);
float l2_norm(std::span<const float> x);
float squared_l2_norm(std::span<const float> x);
float sum(std::span<const float> x);
float mean(std::span<const float> x);
float max_abs(std::span<const float> x);

/// Index of the maximum element (first on ties).  x must be non-empty.
std::size_t argmax(std::span<const float> x);

/// true iff every element is finite (no NaN/Inf) — the trainer's divergence
/// detector.
bool all_finite(std::span<const float> x);

// ---- GEMM -----------------------------------------------------------------

/// c = a(m×k) · b(k×n) + beta·c, all row-major.  Plain i-k-j loop order so
/// the inner loop is a contiguous axpy; good enough to train the mini models
/// at interactive speed without an external BLAS.
void matmul(std::span<const float> a, std::span<const float> b,
            std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
            float beta = 0.0f);

/// c = aᵀ(m×k, stored k×m) · b(k×n) + beta·c — the backward-weights product.
void matmul_at_b(std::span<const float> a, std::span<const float> b,
                 std::span<float> c, std::size_t m, std::size_t k,
                 std::size_t n, float beta = 0.0f);

/// c = a(m×k) · bᵀ(k×n, stored n×k) + beta·c — Linear's forward product and
/// Conv2d's weight gradient.  Register-blocked: each row of b is read once
/// per block of 16, 8 or 4 rows of a (AVX-512, AVX, baseline).  Each c[i][j]
/// adds a[i][p]·b[j][p] for p ascending and skips the terms with
/// a[i][p] == 0, so it is bit-identical to the axpy loop over an explicit bᵀ
/// (DESIGN.md §7).
void matmul_a_bt(std::span<const float> a, std::span<const float> b,
                 std::span<float> c, std::size_t m, std::size_t k,
                 std::size_t n, float beta = 0.0f);

}  // namespace marsit
