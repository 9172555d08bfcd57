#include "nn/conv.hpp"

#include <cmath>
#include <limits>

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit {

namespace {

std::size_t conv_extent(std::size_t in, std::size_t kernel,
                        std::size_t stride, std::size_t padding) {
  MARSIT_CHECK(in + 2 * padding >= kernel)
      << "kernel " << kernel << " larger than padded input "
      << in + 2 * padding;
  return (in + 2 * padding - kernel) / stride + 1;
}

}  // namespace

Conv2d::Conv2d(ImageDims in, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t padding)
    : in_(in),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_count_(out_channels * in.channels * kernel * kernel) {
  MARSIT_CHECK(in.channels > 0 && in.height > 0 && in.width > 0)
      << "degenerate conv input";
  MARSIT_CHECK(out_channels > 0 && kernel > 0 && stride > 0)
      << "degenerate conv geometry";
  (void)out_dims();  // validates kernel vs padded extent
}

ImageDims Conv2d::out_dims() const {
  return {out_channels_, conv_extent(in_.height, kernel_, stride_, padding_),
          conv_extent(in_.width, kernel_, stride_, padding_)};
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(in_.channels) + "->" +
         std::to_string(out_channels_) + ",k" + std::to_string(kernel_) +
         ",s" + std::to_string(stride_) + ",p" + std::to_string(padding_) +
         ")";
}

void Conv2d::im2col(const float* x_n, float* cols) const {
  // cols is (Cin·k²) × (out.h·out.w): one ROW per patch component, one
  // COLUMN per output pixel, so the convolution is
  //   y(Cout × plane) = W(Cout × patch) · cols(patch × plane)
  // — a single GEMM per sample with the long `plane` axis innermost and the
  // result already in NCHW layout (no transposes anywhere).
  const ImageDims out = out_dims();
  const std::size_t in_plane = in_.height * in_.width;
  const std::size_t out_plane = out.height * out.width;
  std::size_t c = 0;
  for (std::size_t ic = 0; ic < in_.channels; ++ic) {
    const float* x_plane = x_n + ic * in_plane;
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      for (std::size_t kx = 0; kx < kernel_; ++kx, ++c) {
        float* row = cols + c * out_plane;
        for (std::size_t oy = 0; oy < out.height; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
              static_cast<std::ptrdiff_t>(padding_);
          float* out_row = row + oy * out.width;
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_.height)) {
            for (std::size_t ox = 0; ox < out.width; ++ox) {
              out_row[ox] = 0.0f;
            }
            continue;
          }
          const float* in_row =
              x_plane + static_cast<std::size_t>(iy) * in_.width;
          for (std::size_t ox = 0; ox < out.width; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                static_cast<std::ptrdiff_t>(padding_);
            out_row[ox] =
                (ix >= 0 && ix < static_cast<std::ptrdiff_t>(in_.width))
                    ? in_row[static_cast<std::size_t>(ix)]
                    : 0.0f;
          }
        }
      }
    }
  }
}

void Conv2d::col2im(const float* cols, float* dx_n) const {
  // Scatter-add the inverse of im2col (overlapping patches accumulate).
  const ImageDims out = out_dims();
  const std::size_t in_plane = in_.height * in_.width;
  const std::size_t out_plane = out.height * out.width;
  std::size_t c = 0;
  for (std::size_t ic = 0; ic < in_.channels; ++ic) {
    float* dx_plane = dx_n + ic * in_plane;
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      for (std::size_t kx = 0; kx < kernel_; ++kx, ++c) {
        const float* row = cols + c * out_plane;
        for (std::size_t oy = 0; oy < out.height; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
              static_cast<std::ptrdiff_t>(padding_);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_.height)) {
            continue;
          }
          float* dx_row = dx_plane + static_cast<std::size_t>(iy) * in_.width;
          const float* g_row = row + oy * out.width;
          for (std::size_t ox = 0; ox < out.width; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                static_cast<std::ptrdiff_t>(padding_);
            if (ix >= 0 && ix < static_cast<std::ptrdiff_t>(in_.width)) {
              dx_row[static_cast<std::size_t>(ix)] += g_row[ox];
            }
          }
        }
      }
    }
  }
}

void Conv2d::forward(std::span<const float> x, std::size_t batch,
                     std::span<float> y) {
  MARSIT_CHECK(x.size() == batch * in_size()) << "conv forward: x extent";
  MARSIT_CHECK(y.size() == batch * out_size()) << "conv forward: y extent";
  check_bound();

  const ImageDims out = out_dims();
  const std::size_t out_plane = out.height * out.width;
  const std::size_t patch = in_.channels * kernel_ * kernel_;

  // Cache the im2col image: backward reuses it for the weight gradient.
  if (cached_cols_.size() != batch * out_plane * patch) {
    cached_cols_ = Tensor(batch * out_plane * patch);
  }
  cached_batch_ = batch;

  const auto w = weights();
  const auto b = bias();
  for (std::size_t n = 0; n < batch; ++n) {
    float* cols = cached_cols_.data() + n * out_plane * patch;
    im2col(x.data() + n * in_size(), cols);
    float* y_n = y.data() + n * out_size();
    // y(Cout × plane) = W(Cout × patch) · cols(patch × plane).
    matmul(w, {cols, patch * out_plane}, {y_n, out_size()}, out_channels_,
           patch, out_plane);
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      float* y_plane = y_n + oc * out_plane;
      const float bias_oc = b[oc];
      for (std::size_t p = 0; p < out_plane; ++p) {
        y_plane[p] += bias_oc;
      }
    }
  }
}

void Conv2d::backward(std::span<const float> dy, std::size_t batch,
                      std::span<float> dx, float grad_scale) {
  MARSIT_CHECK(dy.size() == batch * out_size()) << "conv backward: dy extent";
  MARSIT_CHECK(dx.empty() || dx.size() == batch * in_size())
      << "conv backward: dx extent";
  MARSIT_CHECK(cached_batch_ == batch && !cached_cols_.empty())
      << "conv backward without matching forward";

  const ImageDims out = out_dims();
  const std::size_t out_plane = out.height * out.width;
  const std::size_t patch = in_.channels * kernel_ * kernel_;

  const auto w = weights();
  auto dw = grads().first(weight_count_);
  auto db = grads().subspan(weight_count_);

  // matmul_at_b at β = 0 writes all of dcols, so the buffer is reused as
  // it stands.
  if (!dx.empty() && dcols_.size() != patch * out_plane) {
    dcols_ = Tensor(patch * out_plane);
  }
  zero(dx);
  for (std::size_t n = 0; n < batch; ++n) {
    const float* dy_n = dy.data() + n * out_size();
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      const float* dy_plane = dy_n + oc * out_plane;
      double bias_acc = 0.0;
      for (std::size_t p = 0; p < out_plane; ++p) {
        bias_acc += dy_plane[p];
      }
      // Sample 0 writes 0.0f + v: what adding v to zeroed storage gave,
      // signed zeros included.
      db[oc] = (n == 0 ? 0.0f : db[oc]) + static_cast<float>(bias_acc);
    }

    const float* cols = cached_cols_.data() + n * out_plane * patch;
    // dW(Cout × patch) = Σ_n dy_n(Cout × plane) · cols_n(patch × plane)ᵀ.
    matmul_a_bt({dy_n, out_size()}, {cols, patch * out_plane}, dw,
                out_channels_, out_plane, patch, n == 0 ? 0.0f : 1.0f);
    if (dx.empty()) {
      continue;
    }
    // dcols(patch × plane) = Wᵀ(patch × Cout) · dy(Cout × plane).
    matmul_at_b(w, {dy_n, out_size()}, dcols_.span(), patch, out_channels_,
                out_plane);
    col2im(dcols_.data(), dx.data() + n * in_size());
  }
  // The cross-sample sums are finished: scale them once.
  if (grad_scale != 1.0f) {
    scale(grads(), grad_scale);
  }
}

void Conv2d::init(Rng& rng) {
  check_bound();
  const std::size_t fan_in = in_.channels * kernel_ * kernel_;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  fill_normal(weights(), rng, 0.0f, stddev);
  zero(bias());
}

MaxPool2d::MaxPool2d(ImageDims in, std::size_t kernel, std::size_t stride)
    : in_(in), kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
  MARSIT_CHECK(kernel_ > 0) << "degenerate pool kernel";
  (void)out_dims();
}

ImageDims MaxPool2d::out_dims() const {
  return {in_.channels, conv_extent(in_.height, kernel_, stride_, 0),
          conv_extent(in_.width, kernel_, stride_, 0)};
}

std::string MaxPool2d::name() const {
  return "MaxPool2d(k" + std::to_string(kernel_) + ",s" +
         std::to_string(stride_) + ")";
}

void MaxPool2d::forward(std::span<const float> x, std::size_t batch,
                        std::span<float> y) {
  MARSIT_CHECK(x.size() == batch * in_size()) << "pool forward: x extent";
  MARSIT_CHECK(y.size() == batch * out_size()) << "pool forward: y extent";
  const ImageDims out = out_dims();
  const std::size_t in_plane = in_.height * in_.width;
  const std::size_t out_plane = out.height * out.width;
  argmax_.assign(y.size(), 0);

  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < in_.channels; ++c) {
      const float* x_plane = x.data() + n * in_size() + c * in_plane;
      float* y_plane = y.data() + n * out_size() + c * out_plane;
      std::size_t* arg_plane =
          argmax_.data() + n * out_size() + c * out_plane;
      for (std::size_t oy = 0; oy < out.height; ++oy) {
        for (std::size_t ox = 0; ox < out.width; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_index = 0;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            const std::size_t iy = oy * stride_ + ky;
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::size_t ix = ox * stride_ + kx;
              const std::size_t xi = iy * in_.width + ix;
              if (x_plane[xi] > best) {
                best = x_plane[xi];
                best_index = xi;
              }
            }
          }
          y_plane[oy * out.width + ox] = best;
          arg_plane[oy * out.width + ox] = best_index;
        }
      }
    }
  }
}

void MaxPool2d::backward(std::span<const float> dy, std::size_t batch,
                         std::span<float> dx, float /*grad_scale*/) {
  MARSIT_CHECK(dy.size() == batch * out_size()) << "pool backward: dy extent";
  MARSIT_CHECK(dx.empty() || dx.size() == batch * in_size())
      << "pool backward: dx extent";
  MARSIT_CHECK(argmax_.size() == dy.size())
      << "pool backward without matching forward";
  if (dx.empty()) {
    return;
  }
  const ImageDims out = out_dims();
  const std::size_t in_plane = in_.height * in_.width;
  const std::size_t out_plane = out.height * out.width;

  zero(dx);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < in_.channels; ++c) {
      const float* dy_plane = dy.data() + n * out_size() + c * out_plane;
      float* dx_plane = dx.data() + n * in_size() + c * in_plane;
      const std::size_t* arg_plane =
          argmax_.data() + n * out_size() + c * out_plane;
      for (std::size_t i = 0; i < out_plane; ++i) {
        dx_plane[arg_plane[i]] += dy_plane[i];
      }
    }
  }
}

GlobalAvgPool::GlobalAvgPool(ImageDims in) : in_(in) {
  MARSIT_CHECK(in_.size() > 0) << "degenerate global pool";
}

void GlobalAvgPool::forward(std::span<const float> x, std::size_t batch,
                            std::span<float> y) {
  MARSIT_CHECK(x.size() == batch * in_size()) << "gap forward: x extent";
  MARSIT_CHECK(y.size() == batch * in_.channels) << "gap forward: y extent";
  const std::size_t plane = in_.height * in_.width;
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < in_.channels; ++c) {
      y[n * in_.channels + c] =
          sum(x.subspan(n * in_size() + c * plane, plane)) * inv;
    }
  }
}

void GlobalAvgPool::backward(std::span<const float> dy, std::size_t batch,
                             std::span<float> dx, float /*grad_scale*/) {
  MARSIT_CHECK(dy.size() == batch * in_.channels) << "gap backward: dy extent";
  MARSIT_CHECK(dx.empty() || dx.size() == batch * in_size())
      << "gap backward: dx extent";
  if (dx.empty()) {
    return;
  }
  const std::size_t plane = in_.height * in_.width;
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < in_.channels; ++c) {
      const float g = dy[n * in_.channels + c] * inv;
      auto slice = dx.subspan(n * in_size() + c * plane, plane);
      fill(slice, g);
    }
  }
}

}  // namespace marsit
