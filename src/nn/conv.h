#pragma once
// Convolutional layers (NCHW): Conv2d, ConvTranspose2d, MaxPool2d,
// BatchNorm2d. Implemented as im2col + GEMM with fused autograd closures;
// im2col is recomputed in backward instead of cached to bound memory.
//
// Conv2d's forward is tiled by output-row band: one task per (item, band)
// fills a per-thread column block of at most kBandBytes, multiplies it
// straight into the band's columns of y and adds the bias while the band
// is still in cache. No whole-batch column buffer and no separate bias
// pass exist; the values equal the whole-image im2col + gemm + bias
// composition bit for bit (pinned by test_nn), because every output
// element keeps its accumulation order over K. The backward and
// ConvTranspose2d still work on whole-item column matrices.

#include <cstdint>

#include "nn/module.h"
#include "core/rng.h"

namespace apf::nn {

/// Standard 2-D convolution with square kernel, zero padding.
class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad, Rng& rng,
         bool bias = true);

  /// x: [B, C_in, H, W] -> [B, C_out, OH, OW].
  Var forward(const Var& x) const;

  /// Output rows per forward band for a column matrix of ckk rows and
  /// output width ow: as many as fit a column block of kBandBytes, at
  /// least one. A function of the geometry alone, so the banding (and
  /// every value) is the same at any thread count and on any backend.
  static std::int64_t band_rows(std::int64_t ckk, std::int64_t ow);
  /// An eighth of a 2 MiB per-core L2, leaving room for the band's output
  /// rows, the weights and the input rows it reads. On the serve-mixed
  /// benchmark 128 KiB to 1 MiB measure alike; 32 KiB (per-task overhead)
  /// and 2 MiB (the block spills) are slower.
  static constexpr std::int64_t kBandBytes = std::int64_t{256} << 10;

 private:
  std::int64_t in_c_, out_c_, k_, stride_, pad_;
  Var weight_;  ///< [out_c, in_c * k * k]
  Var bias_;    ///< [out_c]
};

/// Transposed convolution (learned upsampling). Output spatial size is
/// (H - 1) * stride + k - 2 * pad.
class ConvTranspose2d : public Module {
 public:
  ConvTranspose2d(std::int64_t in_channels, std::int64_t out_channels,
                  std::int64_t kernel, std::int64_t stride, Rng& rng,
                  bool bias = true);

  /// x: [B, C_in, H, W] -> [B, C_out, (H-1)*stride + k, ...].
  Var forward(const Var& x) const;

 private:
  std::int64_t in_c_, out_c_, k_, stride_;
  Var weight_;  ///< [in_c, out_c * k * k]
  Var bias_;    ///< [out_c]
};

/// 2x2 stride-2 max pooling.
class MaxPool2d : public Module {
 public:
  MaxPool2d() = default;
  /// x: [B, C, H, W] with even H, W -> [B, C, H/2, W/2].
  Var forward(const Var& x) const;
};

/// Batch normalization over (B, H, W) per channel with running statistics.
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, float eps = 1e-5f,
                       float momentum = 0.1f);

  /// Uses batch statistics (and updates running stats) in training mode,
  /// running statistics in eval mode.
  Var forward(const Var& x) const;

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  std::int64_t c_;
  float eps_, momentum_;
  Var gamma_, beta_;
  mutable Tensor running_mean_, running_var_;
};

}  // namespace apf::nn
