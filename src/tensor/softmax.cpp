// Softmax: the row kernel both attention paths share, and the exp it owns.
//
// ops::softmax_lastdim (the taped path) and nn::fused_masked_attention (the
// grad-free path) normalize every score row with softmax_row, so they agree
// bitwise by construction. The kernel is plain C++ that GCC vectorizes at
// the baseline ISA. Every lane runs the same IEEE operations as the scalar
// tail, this TU pins -ffp-contract=off (CMakeLists.txt) so no FMA can be
// contracted in, and the sums use fixed lane partials (column j always
// feeds lane j % kLanes). An element's bits therefore depend on neither its
// column, the vector width, the ISA nor the thread count.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "core/parallel_for.h"
#include "tensor/ops.h"

namespace apf::ops {
namespace {

constexpr std::int64_t kLanes = 8;
constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// exp(x) for x <= 0, Cephes style. x = k ln2 + r with |r| <= ln2 / 2:
// adding 1.5 * 2^23 rounds x log2(e) to the integer k and leaves it in the
// low mantissa bits (no float -> int conversion), ln2 is split in two
// constants so k * kLn2Hi is exact, a degree-6 polynomial gives exp(r),
// and 2^k is written straight into the exponent bits. At most 1 ulp from
// libm expf on [kExpCutoff, 0]; exp(0) == 1 exactly. Below the cutoff
// (ln of the smallest normal float; -inf included) the result is exactly
// 0, which also keeps k >= -126 wherever the result is kept. NaN stays
// NaN. The cutoff is applied as a bit mask rather than a branch so the
// loops vectorize under the default -ftrapping-math.
constexpr float kExpCutoff = -87.33654475f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kRoundShift = 12582912.f;  // 1.5 * 2^23
constexpr std::uint32_t kRoundShiftBits = 0x4B400000u;

// v when keep, else +0.f, without a branch.
inline float keep_if(float v, bool keep) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) &
                              (0u - static_cast<std::uint32_t>(keep)));
}

inline float exp_lane(float x) {
  const float t = x * kLog2e + kRoundShift;
  const float k = t - kRoundShift;
  float r = x - k * kLn2Hi;
  r = r - k * kLn2Lo;
  const float r2 = r * r;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * r2 + r + 1.f;
  const std::uint32_t pow2k =
      (std::bit_cast<std::uint32_t>(t) - kRoundShiftBits + 127u) << 23;
  return keep_if(p * std::bit_cast<float>(pow2k), !(x < kExpCutoff));
}

template <bool kMasked>
void softmax_row_impl(const float* x, float* out, std::int64_t n, float scale,
                      const float* mask) {
  // Scale, then the max over unmasked keys in lane partials (max is exact,
  // so the lanes only serve the vectorizer).
  float lane_max[kLanes];
  std::fill(lane_max, lane_max + kLanes, kNegInf);
  for (std::int64_t j = 0; j < n; j += kLanes) {
    const std::int64_t lanes = std::min(kLanes, n - j);
    for (std::int64_t l = 0; l < lanes; ++l) {
      const float v = x[j + l] * scale;
      out[j + l] = v;
      const float live = kMasked ? (mask[j + l] != 0.f ? v : kNegInf) : v;
      lane_max[l] = live > lane_max[l] ? live : lane_max[l];
    }
  }
  float mx = kNegInf;
  for (const float m : lane_max) mx = m > mx ? m : mx;
  if (mx == kNegInf) {
    // Fully masked (or all -inf) row: no probability mass, all zeros.
    std::fill(out, out + n, 0.f);
    return;
  }
  for (std::int64_t j = 0; j < n; ++j) {
    const float e = exp_lane(out[j] - mx);
    out[j] = kMasked ? keep_if(e, mask[j] != 0.f) : e;
  }
  // The denominator, summed in double per lane and combined in a fixed
  // order. Masked keys add +0, so trailing masked keys never change the
  // sum: a row and its masked-suffix extension agree bitwise.
  double lane_sum[kLanes] = {};
  for (std::int64_t j = 0; j < n; j += kLanes) {
    const std::int64_t lanes = std::min(kLanes, n - j);
    for (std::int64_t l = 0; l < lanes; ++l) lane_sum[l] += out[j + l];
  }
  const double denom = ((lane_sum[0] + lane_sum[1]) +
                        (lane_sum[2] + lane_sum[3])) +
                       ((lane_sum[4] + lane_sum[5]) +
                        (lane_sum[6] + lane_sum[7]));
  if (denom == 0.0) {
    // Defensive: no surviving mass. Zeros instead of a NaN that would
    // poison the whole sequence through the attention matmul.
    std::fill(out, out + n, 0.f);
    return;
  }
  const float inv = static_cast<float>(1.0 / denom);
  for (std::int64_t j = 0; j < n; ++j) out[j] *= inv;
}

}  // namespace

void exp_nonpositive(const float* x, float* out, std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) out[j] = exp_lane(x[j]);
}

void softmax_row(const float* x, float* out, std::int64_t n, float scale,
                 const float* mask_row) {
  if (mask_row != nullptr) {
    softmax_row_impl<true>(x, out, n, scale, mask_row);
  } else {
    softmax_row_impl<false>(x, out, n, scale, nullptr);
  }
}

Tensor softmax_lastdim(const Tensor& x, const Tensor* key_mask) {
  APF_CHECK(x.ndim() >= 1, "softmax: scalar input");
  const std::int64_t n = x.size(-1);
  const std::int64_t rows = x.numel() / n;
  std::int64_t rows_per_b = 1;
  const float* pm = nullptr;
  if (key_mask != nullptr) {
    APF_CHECK(key_mask->ndim() == 2 && key_mask->size(1) == n,
              "softmax: key_mask " << key_mask->str() << " vs lastdim " << n);
    const std::int64_t b = key_mask->size(0);
    APF_CHECK(rows % b == 0, "softmax: rows " << rows
                                              << " not divisible by batch " << b);
    rows_per_b = rows / b;
    pm = key_mask->data();
  }
  Tensor out = Tensor::empty(x.shape());
  const float* px = x.data();
  float* po = out.data();
  parallel_for(rows, [&](std::int64_t r) {
    softmax_row(px + r * n, po + r * n, n, 1.f,
                pm ? pm + (r / rows_per_b) * n : nullptr);
  });
  return out;
}

Tensor softmax_lastdim_grad(const Tensor& y, const Tensor& dy) {
  APF_CHECK(y.same_shape(dy), "softmax_grad: shape mismatch");
  const std::int64_t n = y.size(-1);
  const std::int64_t rows = y.numel() / n;
  Tensor dx(y.shape());
  const float* py = y.data();
  const float* pdy = dy.data();
  float* pdx = dx.data();
  parallel_for(rows, [&](std::int64_t r) {
    const float* yr = py + r * n;
    const float* dyr = pdy + r * n;
    float* dxr = pdx + r * n;
    double dot = 0.0;
    for (std::int64_t j = 0; j < n; ++j) dot += static_cast<double>(yr[j]) * dyr[j];
    const float d = static_cast<float>(dot);
    for (std::int64_t j = 0; j < n; ++j) dxr[j] = yr[j] * (dyr[j] - d);
  });
  return dx;
}

}  // namespace apf::ops
