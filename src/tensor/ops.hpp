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

/// out = x * alpha  (out may alias x)
void scale(std::span<const float> x, float alpha, std::span<float> out);

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
//
// One bit-exactness contract covers all three products (DESIGN.md §7): each
// c[i][j] starts from β·c[i][j] (β = 0 starts from +0.0 whatever c held,
// β = 1 from c as it is), then adds its terms a(i, p)·b(p, j) one at a time
// for p ascending, each as `acc + x * w`, skipping the terms with
// a(i, p) == 0 (+0.0 or −0.0).  That is the sequence of the axpy loop
// `c[i][·] += a(i, p)·b[p][·]`, so matmul(a, b) ≡ matmul_a_bt(a, bᵀ) ≡
// matmul_at_b(aᵀ, b) byte for byte, at every -march.  matmul_at_b also
// takes an output scale α (β = 0 only): each finished sum is stored as
// fl(α·sum), one multiply after its last add, so the result equals
// scale(matmul_at_b(…), α) byte for byte — the gradient a layer writes at
// gradient scale α (nn/layer.hpp).

/// c = a(m×k) · b(k×n) + beta·c, all row-major — the backward-input product
/// (Linear's dX, Conv2d's forward).  Each block of 8 rows of b is swept for
/// every row of a while it is in cache, so b streams from memory once.
void matmul(std::span<const float> a, std::span<const float> b,
            std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
            float beta = 0.0f);

/// c = alpha·(aᵀ(m×k, stored k×m) · b(k×n)) + beta·c — the backward-weights
/// product (Linear's dW, Conv2d's input gradient).  Finishes one row of c at
/// a time from registers, so at beta = 0 it writes c without reading it.
/// alpha ≠ 1 requires beta = 0 (checked).
void matmul_at_b(std::span<const float> a, std::span<const float> b,
                 std::span<float> c, std::size_t m, std::size_t k,
                 std::size_t n, float beta = 0.0f, float alpha = 1.0f);

/// c = a(m×k) · bᵀ(k×n, stored n×k) + beta·c — Linear's forward product and
/// Conv2d's weight gradient.  Register-blocked: each row of b is read once
/// per block of 16, 8 or 4 rows of a (AVX-512, AVX, baseline).
void matmul_a_bt(std::span<const float> a, std::span<const float> b,
                 std::span<float> c, std::size_t m, std::size_t k,
                 std::size_t n, float beta = 0.0f);

}  // namespace marsit
