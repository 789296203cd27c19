// NN layer tests: shapes, gradients via gradcheck, module registration,
// attention behaviour under masks, batch-norm statistics, and optimizer
// convergence on analytic problems.

#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.h"
#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "core/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace apf::nn {
namespace {

TEST(Module, ParameterCollection) {
  Rng rng(1);
  Mlp mlp(8, 16, rng);
  auto params = mlp.parameters();
  EXPECT_EQ(params.size(), 4u);  // 2 weights + 2 biases
  EXPECT_EQ(mlp.num_parameters(), 8 * 16 + 16 + 16 * 8 + 8);
  auto named = mlp.named_parameters();
  EXPECT_EQ(named[0].first, "fc1.weight");
  EXPECT_EQ(named[3].first, "fc2.bias");
}

TEST(Module, TrainingModePropagates) {
  Rng rng(1);
  Mlp mlp(4, 8, rng);
  EXPECT_TRUE(mlp.training());
  mlp.set_training(false);
  EXPECT_FALSE(mlp.training());
}

TEST(Linear, ForwardShape2dAnd3d) {
  Rng rng(2);
  Linear lin(6, 4, rng);
  Var x2 = Var::constant(Tensor::zeros({5, 6}));
  EXPECT_EQ(lin.forward(x2).shape(), (Shape{5, 4}));
  Var x3 = Var::constant(Tensor::zeros({2, 3, 6}));
  EXPECT_EQ(lin.forward(x3).shape(), (Shape{2, 3, 4}));
}

TEST(Linear, GradCheck) {
  Rng rng(3);
  Linear lin(3, 2, rng);
  Var x = Var::param(Tensor::randn({4, 3}, rng));
  auto params = lin.parameters();
  params.push_back(x);
  test::expect_gradients_close(
      [&] {
        Var y = lin.forward(x);
        return ag::mean(ag::mul(y, y));
      },
      params);
}

TEST(Linear, NoBiasOption) {
  Rng rng(4);
  Linear lin(3, 2, rng, /*bias=*/false);
  EXPECT_EQ(lin.parameters().size(), 1u);
}

TEST(LayerNormLayer, NormalizesRows) {
  Rng rng(5);
  LayerNorm ln(8);
  Var x = Var::constant(Tensor::randn({4, 8}, rng, 3.f, 5.f));
  Var y = ln.forward(x);
  for (std::int64_t r = 0; r < 4; ++r) {
    double mean = 0, var = 0;
    for (std::int64_t j = 0; j < 8; ++j) mean += y.val().at({r, j});
    mean /= 8;
    for (std::int64_t j = 0; j < 8; ++j) {
      const double d = y.val().at({r, j}) - mean;
      var += d * d;
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(EmbeddingLayer, LookupAndGrad) {
  Rng rng(6);
  Embedding emb(5, 3, rng);
  Var out = emb.forward({1, 3, 1});
  ASSERT_EQ(out.shape(), (Shape{3, 3}));
  // Rows 0 and 2 are the same table row.
  for (std::int64_t j = 0; j < 3; ++j)
    EXPECT_EQ(out.val().at({0, j}), out.val().at({2, j}));
  // Gradient accumulates twice into row 1.
  ag::sum(out).backward();
  Var w = emb.parameters()[0];
  for (std::int64_t j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(w.grad().at({1, j}), 2.f);
    EXPECT_FLOAT_EQ(w.grad().at({3, j}), 1.f);
    EXPECT_FLOAT_EQ(w.grad().at({0, j}), 0.f);
  }
}

TEST(EmbeddingLayer, OutOfRangeThrows) {
  Rng rng(7);
  Embedding emb(5, 3, rng);
  EXPECT_THROW(emb.forward({5}), detail::CheckError);
}

// -------------------------------------------------------------- attention

TEST(Attention, OutputShape) {
  Rng rng(8);
  MultiHeadAttention mha(16, 4, rng);
  Var x = Var::constant(Tensor::randn({2, 6, 16}, rng));
  EXPECT_EQ(mha.forward(x).shape(), (Shape{2, 6, 16}));
}

TEST(Attention, DimNotDivisibleThrows) {
  Rng rng(9);
  EXPECT_THROW(MultiHeadAttention(10, 3, rng), detail::CheckError);
}

TEST(Attention, MaskedKeysDoNotInfluenceValidQueries) {
  // Changing a masked token's content must not change valid tokens' output.
  Rng rng(10);
  MultiHeadAttention mha(8, 2, rng);
  Tensor xt = Tensor::randn({1, 4, 8}, rng);
  Tensor mask = Tensor::from({1, 1, 1, 0}, {1, 4});
  Var y1 = mha.forward(Var::constant(xt), &mask);
  Tensor xt2 = xt.clone();
  for (std::int64_t j = 0; j < 8; ++j) xt2.at({0, 3, j}) += 5.f;
  Var y2 = mha.forward(Var::constant(xt2), &mask);
  for (std::int64_t t = 0; t < 3; ++t)
    for (std::int64_t j = 0; j < 8; ++j)
      EXPECT_NEAR(y1.val().at({0, t, j}), y2.val().at({0, t, j}), 1e-5);
}

TEST(Attention, GradCheckSmall) {
  Rng rng(11);
  MultiHeadAttention mha(4, 2, rng);
  Var x = Var::param(Tensor::randn({1, 3, 4}, rng, 0.f, 0.5f));
  auto params = mha.parameters();
  params.push_back(x);
  test::expect_gradients_close(
      [&] {
        Var y = mha.forward(x);
        return ag::mean(ag::mul(y, y));
      },
      params, 5e-3f, 8e-2f, 5e-3f);
}

TEST(TransformerEncoderLayer, ResidualPreservesShape) {
  Rng rng(12);
  TransformerEncoderLayer layer(8, 2, 16, rng);
  Rng drop_rng(1);
  Var x = Var::constant(Tensor::randn({2, 5, 8}, rng));
  EXPECT_EQ(layer.forward(x, nullptr, drop_rng).shape(), (Shape{2, 5, 8}));
}

TEST(TransformerEncoder, CollectTapsHiddenStates) {
  Rng rng(13);
  TransformerEncoder enc(8, 3, 2, 16, rng);
  Rng drop_rng(1);
  Var x = Var::constant(Tensor::randn({1, 4, 8}, rng));
  std::vector<Var> hidden;
  Var out = enc.forward_collect(x, nullptr, drop_rng, {1, 2}, hidden);
  EXPECT_EQ(hidden.size(), 2u);
  EXPECT_EQ(hidden[0].shape(), (Shape{1, 4, 8}));
  EXPECT_EQ(out.shape(), (Shape{1, 4, 8}));
}

// ------------------------------------------------------------------- conv

TEST(Conv2d, ShapeAndKnownValue) {
  Rng rng(14);
  Conv2d conv(1, 1, 3, 1, 1, rng, /*bias=*/false);
  // Set the kernel to a centre-tap identity.
  Var w = conv.parameters()[0];
  w.val_mut().fill(0.f);
  w.val_mut().at({0, 4}) = 1.f;
  Var x = Var::constant(Tensor::arange(16).reshape({1, 1, 4, 4}));
  Var y = conv.forward(x);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 4, 4}));
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(y.val()[i], x.val()[i]);
}

TEST(Conv2d, StrideReducesResolution) {
  Rng rng(15);
  Conv2d conv(2, 3, 3, 2, 1, rng);
  Var x = Var::constant(Tensor::zeros({2, 2, 8, 8}));
  EXPECT_EQ(conv.forward(x).shape(), (Shape{2, 3, 4, 4}));
}

TEST(Conv2d, GradCheck) {
  Rng rng(16);
  Conv2d conv(2, 2, 3, 1, 1, rng);
  Var x = Var::param(Tensor::randn({1, 2, 4, 4}, rng, 0.f, 0.5f));
  auto params = conv.parameters();
  params.push_back(x);
  test::expect_gradients_close(
      [&] {
        Var y = conv.forward(x);
        return ag::mean(ag::mul(y, y));
      },
      params);
}

// Whole-buffer reference: per item one full-output im2col, one gemm over
// all OH*OW columns, then the bias as a separate pass.
Tensor conv_whole_buffer(const Tensor& x, const Tensor& w, const Tensor& bias,
                         std::int64_t k, std::int64_t stride,
                         std::int64_t pad) {
  const std::int64_t b = x.size(0), c = x.size(1), h = x.size(2),
                     wd = x.size(3), out_c = w.size(0), ckk = w.size(1);
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (wd + 2 * pad - k) / stride + 1;
  Tensor y({b, out_c, oh, ow});
  for (std::int64_t i = 0; i < b; ++i) {
    Tensor xi({c, h, wd});
    std::copy(x.data() + i * c * h * wd, x.data() + (i + 1) * c * h * wd,
              xi.data());
    const Tensor cols = ops::im2col(xi, k, k, stride, pad);
    float* yi = y.data() + i * out_c * oh * ow;
    gemm(false, false, out_c, oh * ow, ckk, 1.f, w.data(), ckk, cols.data(),
         oh * ow, 0.f, yi, oh * ow);
    for (std::int64_t co = 0; co < out_c; ++co)
      for (std::int64_t j = 0; j < oh * ow; ++j) yi[co * oh * ow + j] += bias[co];
  }
  return y;
}

TEST(Conv2d, BandedForwardEqualsWholeBufferBitwise) {
  struct Geometry {
    std::int64_t in_c, out_c, k, stride, pad, batch, width;
    bool band_divides_oh;
  };
  const Geometry geometries[] = {
      {4, 80, 3, 1, 1, 3, 40, false},  // two row panels, B = 3
      {4, 80, 3, 1, 1, 3, 40, true},
      {3, 8, 3, 2, 1, 2, 64, false},   // stride 2, pad 1
      {16, 8, 1, 1, 0, 2, 64, false},  // 1x1: gemm reads x in place
      {6, 8, 1, 2, 0, 1, 50, false},   // strided 1x1 goes through im2col
      {5, 70, 3, 1, 0, 3, 33, false},  // no padding
  };
  Rng rng(23);
  for (const Geometry& g : geometries) {
    const std::int64_t ow = (g.width + 2 * g.pad - g.k) / g.stride + 1;
    const std::int64_t rows = Conv2d::band_rows(g.in_c * g.k * g.k, ow);
    ASSERT_GT(rows, 1);
    // Three bands, the last one short unless the band divides OH.
    const std::int64_t oh = g.band_divides_oh ? 3 * rows : 2 * rows + rows / 2;
    const std::int64_t h = (oh - 1) * g.stride + g.k - 2 * g.pad;
    ASSERT_GE((oh + rows - 1) / rows, 3);
    ASSERT_EQ(oh % rows == 0, g.band_divides_oh);

    Conv2d conv(g.in_c, g.out_c, g.k, g.stride, g.pad, rng);
    Var weight = conv.parameters()[0];
    Var bias = conv.parameters()[1];
    bias.val_mut().copy_from(Tensor::randn({g.out_c}, rng));
    const Tensor x = Tensor::randn({g.batch, g.in_c, h, g.width}, rng);
    const Tensor want =
        conv_whole_buffer(x, weight.val(), bias.val(), g.k, g.stride, g.pad);

    for (const int width : {1, 4}) {
      set_num_threads(width);
      for (const bool taped : {false, true}) {
        Tensor got;
        if (taped) {
          got = conv.forward(Var::param(x.clone())).val();
        } else {
          ag::NoGradGuard no_grad;
          got = conv.forward(Var::constant(x.clone())).val();
        }
        ASSERT_EQ(got.shape(), want.shape());
        for (std::int64_t j = 0; j < want.numel(); ++j)
          ASSERT_EQ(got[j], want[j])
              << "k " << g.k << " stride " << g.stride << " out_c " << g.out_c
              << " width " << width << " taped " << taped << " at " << j;
      }
    }
    set_num_threads(0);
  }
}

TEST(ConvTranspose2d, UpsamplesShape) {
  Rng rng(17);
  ConvTranspose2d up(4, 2, 2, 2, rng);
  Var x = Var::constant(Tensor::zeros({1, 4, 3, 3}));
  EXPECT_EQ(up.forward(x).shape(), (Shape{1, 2, 6, 6}));
}

TEST(ConvTranspose2d, GradCheck) {
  Rng rng(18);
  ConvTranspose2d up(2, 2, 2, 2, rng);
  Var x = Var::param(Tensor::randn({1, 2, 3, 3}, rng, 0.f, 0.5f));
  auto params = up.parameters();
  params.push_back(x);
  test::expect_gradients_close(
      [&] {
        Var y = up.forward(x);
        return ag::mean(ag::mul(y, y));
      },
      params);
}

// Reference: per item, W^T @ x_i, col2im, then the bias as a separate pass.
Tensor conv_transpose_reference(const Tensor& x, const Tensor& w,
                                const Tensor& bias, std::int64_t out_c,
                                std::int64_t k, std::int64_t stride) {
  const std::int64_t b = x.size(0), c = x.size(1), h = x.size(2),
                     wd = x.size(3), okk = w.size(1);
  const std::int64_t oh = (h - 1) * stride + k, ow = (wd - 1) * stride + k;
  Tensor y({b, out_c, oh, ow});
  for (std::int64_t i = 0; i < b; ++i) {
    Tensor cols({okk, h * wd});
    gemm(true, false, okk, h * wd, c, 1.f, w.data(), okk,
         x.data() + i * c * h * wd, h * wd, 0.f, cols.data(), h * wd);
    const Tensor yi = ops::col2im(cols, out_c, oh, ow, k, k, stride, 0);
    float* dst = y.data() + i * out_c * oh * ow;
    std::copy(yi.data(), yi.data() + yi.numel(), dst);
    for (std::int64_t co = 0; co < out_c; ++co)
      for (std::int64_t j = 0; j < oh * ow; ++j) dst[co * oh * ow + j] += bias[co];
  }
  return y;
}

TEST(ConvTranspose2d, BiasInCol2imTaskEqualsSeparatePassBitwise) {
  Rng rng(29);
  const std::int64_t batch = 3, in_c = 5, k = 2, stride = 2, h = 6, w = 7;
  for (const std::int64_t out_c : {3, 16}) {
    ConvTranspose2d up(in_c, out_c, k, stride, rng);
    Var bias = up.parameters()[1];
    bias.val_mut().copy_from(Tensor::randn({out_c}, rng));
    const Tensor x = Tensor::randn({batch, in_c, h, w}, rng);
    const Tensor want = conv_transpose_reference(
        x, up.parameters()[0].val(), bias.val(), out_c, k, stride);
    for (const bool taped : {false, true}) {
      Tensor got;
      if (taped) {
        got = up.forward(Var::param(x.clone())).val();
      } else {
        ag::NoGradGuard no_grad;
        got = up.forward(Var::constant(x.clone())).val();
      }
      ASSERT_EQ(got.shape(), want.shape());
      for (std::int64_t j = 0; j < want.numel(); ++j)
        ASSERT_EQ(got[j], want[j])
            << "out_c " << out_c << " taped " << taped << " at " << j;
    }
  }
}

TEST(ConvTranspose2d, AdjointOfConv) {
  // convT with the same kernel is the adjoint of conv (stride 2, no pad):
  // <conv(x), y> == <x, convT(y)>.
  Rng rng(19);
  Conv2d conv(1, 1, 2, 2, 0, rng, false);
  ConvTranspose2d convt(1, 1, 2, 2, rng, false);
  // Copy conv's kernel [1, 1*2*2] into convT's [1, 1*2*2] (same layout).
  convt.parameters()[0].val_mut().copy_from(conv.parameters()[0].val());
  Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  Tensor y = Tensor::randn({1, 1, 2, 2}, rng);
  NoGradGuard ng;
  Var cx = conv.forward(Var::constant(x));
  Var cty = convt.forward(Var::constant(y));
  double lhs = 0, rhs = 0;
  for (std::int64_t i = 0; i < 4; ++i) lhs += cx.val()[i] * y[i];
  for (std::int64_t i = 0; i < 16; ++i) rhs += x[i] * cty.val()[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::fabs(lhs)));
}

TEST(MaxPool2d, ForwardAndGrad) {
  MaxPool2d pool;
  Var x = Var::param(
      Tensor::from({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
                   {1, 1, 4, 4}));
  Var y = pool.forward(x);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.val()[0], 6.f);
  EXPECT_FLOAT_EQ(y.val()[3], 16.f);
  ag::sum(y).backward();
  EXPECT_FLOAT_EQ(x.grad().at({0, 0, 1, 1}), 1.f);  // argmax positions
  EXPECT_FLOAT_EQ(x.grad().at({0, 0, 0, 0}), 0.f);
}

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  Rng rng(20);
  BatchNorm2d bn(2);
  Var x = Var::constant(Tensor::randn({4, 2, 6, 6}, rng, 2.f, 3.f));
  Var y = bn.forward(x);
  // Per-channel mean ~0 and var ~1 after normalization.
  for (std::int64_t ch = 0; ch < 2; ++ch) {
    double mean = 0, var = 0;
    std::int64_t n = 0;
    for (std::int64_t b = 0; b < 4; ++b)
      for (std::int64_t i = 0; i < 36; ++i) {
        mean += y.val()[(b * 2 + ch) * 36 + i];
        ++n;
      }
    mean /= n;
    for (std::int64_t b = 0; b < 4; ++b)
      for (std::int64_t i = 0; i < 36; ++i) {
        const double d = y.val()[(b * 2 + ch) * 36 + i] - mean;
        var += d * d;
      }
    var /= n;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  Rng rng(21);
  BatchNorm2d bn(1);
  // Train on shifted data to move running stats.
  for (int i = 0; i < 20; ++i) {
    Var x = Var::constant(Tensor::randn({2, 1, 4, 4}, rng, 5.f, 2.f));
    bn.forward(x);
  }
  EXPECT_NEAR(bn.running_mean()[0], 5.f, 0.8f);
  bn.set_training(false);
  Var x = Var::constant(Tensor::full({1, 1, 2, 2}, 5.f));
  Var y = bn.forward(x);
  // Input at the running mean normalizes to ~0.
  EXPECT_NEAR(y.val()[0], 0.f, 0.3f);
}

TEST(BatchNorm2d, GradCheckTrainMode) {
  Rng rng(22);
  BatchNorm2d bn(2);
  Var x = Var::param(Tensor::randn({2, 2, 3, 3}, rng));
  auto params = bn.parameters();
  params.push_back(x);
  Rng wrng(23);
  Tensor w = Tensor::randn({2, 2, 3, 3}, wrng);
  test::expect_gradients_close(
      [&] { return ag::sum(ag::mul_mask(bn.forward(x), w)); }, params, 5e-3f,
      8e-2f, 6e-3f);
}

// -------------------------------------------------------------- optimizers

TEST(Sgd, ConvergesOnQuadratic) {
  // min ||w - target||^2.
  Var w = Var::param(Tensor::zeros({4}));
  Tensor target = Tensor::from({1, -2, 3, 0.5f}, {4});
  Sgd opt({w}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    Var diff = ag::sub(w, Var::constant(target));
    ag::sum(ag::mul(diff, diff)).backward();
    opt.step();
  }
  for (std::int64_t i = 0; i < 4; ++i)
    EXPECT_NEAR(w.val()[i], target[i], 1e-3);
}

TEST(AdamW, ConvergesOnLinearRegression) {
  // y = X w*; recover w* from 32 samples.
  Rng rng(24);
  Tensor X = Tensor::randn({32, 3}, rng);
  Tensor wstar = Tensor::from({0.5f, -1.f, 2.f}, {3, 1});
  Tensor y = ops::matmul(X, wstar);
  Var w = Var::param(Tensor::zeros({3, 1}));
  AdamW opt({w}, 0.05f, 0.9f, 0.999f, 1e-8f, 0.f);
  for (int i = 0; i < 400; ++i) {
    opt.zero_grad();
    Var pred = ag::matmul(Var::constant(X), w);
    Var diff = ag::sub(pred, Var::constant(y));
    ag::mean(ag::mul(diff, diff)).backward();
    opt.step();
  }
  for (std::int64_t i = 0; i < 3; ++i)
    EXPECT_NEAR(w.val()[i], wstar[i], 2e-2);
}

TEST(AdamW, DecoupledDecayShrinksWeights) {
  Var w = Var::param(Tensor::full({4}, 10.f));
  AdamW opt({w}, 0.01f, 0.9f, 0.999f, 1e-8f, 0.5f);
  for (int i = 0; i < 50; ++i) {
    opt.zero_grad();
    w.grad().fill(0.f);  // zero task gradient: only decay acts
    opt.step();
  }
  EXPECT_LT(std::fabs(w.val()[0]), 10.f * std::pow(1.f - 0.01f * 0.5f, 45));
}

TEST(ClipGradNorm, ScalesDownOnlyWhenAboveThreshold) {
  Var a = Var::param(Tensor::from({3.f, 4.f}, {2}));  // grad norm 5 after seed
  ag::sum(ag::mul(a, a)).backward();  // grad = 2a = (6, 8), norm 10
  const float pre = clip_grad_norm({a}, 5.f);
  EXPECT_FLOAT_EQ(pre, 10.f);
  EXPECT_NEAR(a.grad()[0], 3.f, 1e-5);
  EXPECT_NEAR(a.grad()[1], 4.f, 1e-5);
  // Below threshold: untouched.
  const float pre2 = clip_grad_norm({a}, 50.f);
  EXPECT_NEAR(pre2, 5.f, 1e-4);
  EXPECT_NEAR(a.grad()[0], 3.f, 1e-5);
}

TEST(ClipGradNorm, RejectsNonPositiveThreshold) {
  Var a = Var::param(Tensor::ones({2}));
  a.grad();
  EXPECT_THROW(clip_grad_norm({a}, 0.f), detail::CheckError);
}

TEST(StepLrSchedule, DecaysAtMilestones) {
  Var w = Var::param(Tensor::zeros({1}));
  Sgd opt({w}, 1.f);
  StepLr sched(opt, {10, 20}, 0.1f);
  sched.on_epoch(5);
  EXPECT_FLOAT_EQ(opt.lr(), 1.f);
  sched.on_epoch(10);
  EXPECT_FLOAT_EQ(opt.lr(), 0.1f);
  sched.on_epoch(25);
  EXPECT_NEAR(opt.lr(), 0.01f, 1e-6);
}

TEST(CosineLrSchedule, Endpoints) {
  Var w = Var::param(Tensor::zeros({1}));
  Sgd opt({w}, 1.f);
  CosineLr sched(opt, 100, 0.f);
  sched.on_epoch(0);
  EXPECT_NEAR(opt.lr(), 1.f, 1e-5);
  sched.on_epoch(100);
  EXPECT_NEAR(opt.lr(), 0.f, 1e-5);
  sched.on_epoch(50);
  EXPECT_NEAR(opt.lr(), 0.5f, 1e-5);
}

}  // namespace
}  // namespace apf::nn
