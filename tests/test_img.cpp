// Image substrate tests: filters (Gaussian, Sobel, Canny), resampling,
// integral images, I/O round trips, and procedural drawing.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "img/draw.h"
#include "img/filters.h"
#include "img/image.h"
#include "img/integral.h"
#include "img/pnm_io.h"
#include "img/resize.h"
#include "tensor/image_convert.h"

namespace apf::img {
namespace {

Image checkerboard(std::int64_t n, std::int64_t cell) {
  Image im(n, n, 1);
  for (std::int64_t y = 0; y < n; ++y)
    for (std::int64_t x = 0; x < n; ++x)
      im.at(y, x) = (((y / cell) + (x / cell)) % 2) ? 1.f : 0.f;
  return im;
}

TEST(Image, ToGrayWeights) {
  Image rgb(1, 1, 3);
  rgb.at(0, 0, 0) = 1.f;
  Image g = to_gray(rgb);
  EXPECT_NEAR(g.at(0, 0), 0.299f, 1e-6);
}

TEST(Image, CropInBounds) {
  Image im = checkerboard(8, 1);
  Image c = crop(im, 2, 3, 4);
  EXPECT_EQ(c.h, 4);
  EXPECT_EQ(c.at(0, 0), im.at(2, 3));
  EXPECT_THROW(crop(im, 6, 6, 4), detail::CheckError);
}

TEST(Image, ChwTensorRoundTrip) {
  Image im(3, 4, 3);
  im.at(1, 2, 1) = 0.7f;
  Tensor t = to_chw_tensor(im);
  ASSERT_EQ(t.shape(), (Shape{3, 3, 4}));
  EXPECT_FLOAT_EQ(t.at({1, 1, 2}), 0.7f);
  Image back = from_chw_tensor(t);
  EXPECT_FLOAT_EQ(back.at(1, 2, 1), 0.7f);
}

// ----------------------------------------------------------------- filters

TEST(Gaussian, PreservesConstantImage) {
  Image im(16, 16, 1);
  im.fill(0.5f);
  Image out = gaussian_blur(im, 5);
  for (float v : out.data) EXPECT_NEAR(v, 0.5f, 1e-6);
}

TEST(Gaussian, SmoothsImpulse) {
  Image im(9, 9, 1);
  im.at(4, 4) = 1.f;
  Image out = gaussian_blur(im, 3);
  EXPECT_LT(out.at(4, 4), 1.f);
  EXPECT_GT(out.at(4, 3), 0.f);
  // Mass is conserved away from borders.
  double total = 0;
  for (float v : out.data) total += v;
  EXPECT_NEAR(total, 1.0, 1e-4);
}

TEST(Gaussian, KernelOneIsIdentity) {
  Image im = checkerboard(8, 2);
  Image out = gaussian_blur(im, 1);
  for (std::size_t i = 0; i < im.data.size(); ++i)
    EXPECT_EQ(out.data[i], im.data[i]);
}

TEST(Gaussian, RejectsEvenKernel) {
  Image im(4, 4, 1);
  EXPECT_THROW(gaussian_blur(im, 4), detail::CheckError);
}

TEST(Sobel, VerticalEdgeHasHorizontalGradient) {
  Image im(8, 8, 1);
  for (std::int64_t y = 0; y < 8; ++y)
    for (std::int64_t x = 4; x < 8; ++x) im.at(y, x) = 1.f;
  Image gx, gy;
  sobel(im, gx, gy);
  EXPECT_GT(std::abs(gx.at(4, 4)), 100.f);  // strong horizontal gradient
  EXPECT_NEAR(gy.at(4, 4), 0.f, 1e-3);      // no vertical gradient mid-edge
}

TEST(Canny, FindsSquareBoundary) {
  Image im(32, 32, 1);
  for (std::int64_t y = 8; y < 24; ++y)
    for (std::int64_t x = 8; x < 24; ++x) im.at(y, x) = 1.f;
  Image e = canny(im, 100, 200);
  // Edges fire near the boundary, none deep inside or outside.
  std::int64_t boundary_hits = 0;
  for (std::int64_t x = 8; x < 24; ++x)
    if (e.at(7, x) > 0 || e.at(8, x) > 0) ++boundary_hits;
  EXPECT_GT(boundary_hits, 10);
  EXPECT_EQ(e.at(16, 16), 0.f);
  EXPECT_EQ(e.at(2, 2), 0.f);
}

TEST(Canny, BlankImageHasNoEdges) {
  Image im(16, 16, 1);
  im.fill(0.3f);
  Image e = canny(im, 100, 200);
  for (float v : e.data) EXPECT_EQ(v, 0.f);
}

TEST(Canny, OutputIsBinary) {
  Image im = checkerboard(32, 8);
  Image e = canny(im, 100, 200);
  for (float v : e.data) EXPECT_TRUE(v == 0.f || v == 1.f);
}

TEST(Canny, HigherThresholdFindsFewerEdges) {
  Image im = checkerboard(64, 4);
  const Image soft = gaussian_blur(im, 3);
  Image lo = canny(soft, 30, 60);
  Image hi = canny(soft, 200, 400);
  double nlo = 0, nhi = 0;
  for (float v : lo.data) nlo += v;
  for (float v : hi.data) nhi += v;
  EXPECT_GE(nlo, nhi);
}

// ------------------------------------------------------------------ resize

TEST(Resize, AreaDownscaleAveragesExactly) {
  Image im(4, 4, 1);
  im.at(0, 0) = 1.f;  // one bright pixel in the top-left 2x2 box
  Image out = resize_area(im, 2, 2);
  EXPECT_NEAR(out.at(0, 0), 0.25f, 1e-6);
  EXPECT_NEAR(out.at(1, 1), 0.f, 1e-6);
}

TEST(Resize, AreaPreservesMean) {
  Image im = checkerboard(16, 2);
  Image out = resize_area(im, 4, 4);
  double m_in = 0, m_out = 0;
  for (float v : im.data) m_in += v;
  for (float v : out.data) m_out += v;
  EXPECT_NEAR(m_in / im.data.size(), m_out / out.data.size(), 1e-5);
}

TEST(Resize, IdentityWhenSameSize) {
  Image im = checkerboard(8, 2);
  Image out = resize_area(im, 8, 8);
  for (std::size_t i = 0; i < im.data.size(); ++i)
    EXPECT_EQ(out.data[i], im.data[i]);
}

TEST(Resize, BilinearConstantStaysConstant) {
  Image im(5, 5, 1);
  im.fill(0.42f);
  Image up = resize_bilinear(im, 13, 13);
  for (float v : up.data) EXPECT_NEAR(v, 0.42f, 1e-5);
}

// ---------------------------------------------------------------- integral

TEST(Integral, MatchesBruteForce) {
  Image im = checkerboard(16, 3);
  IntegralImage ii(im);
  auto brute = [&](std::int64_t y0, std::int64_t x0, std::int64_t y1,
                   std::int64_t x1) {
    double s = 0;
    for (std::int64_t y = y0; y < y1; ++y)
      for (std::int64_t x = x0; x < x1; ++x) s += im.at(y, x);
    return s;
  };
  EXPECT_NEAR(ii.sum(0, 0, 16, 16), brute(0, 0, 16, 16), 1e-9);
  EXPECT_NEAR(ii.sum(3, 5, 9, 12), brute(3, 5, 9, 12), 1e-9);
  EXPECT_NEAR(ii.sum(15, 15, 16, 16), brute(15, 15, 16, 16), 1e-9);
}

TEST(Integral, EmptyAndClampedRects) {
  Image im(8, 8, 1);
  im.fill(1.f);
  IntegralImage ii(im);
  EXPECT_EQ(ii.sum(4, 4, 4, 4), 0.0);
  EXPECT_EQ(ii.sum(5, 5, 3, 3), 0.0);
  EXPECT_NEAR(ii.sum(-10, -10, 100, 100), 64.0, 1e-9);
}

// --------------------------------------------------------------------- io

TEST(PnmIo, PgmRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "apf_test.pgm").string();
  Image im = checkerboard(8, 2);
  write_pgm(path, im);
  Image back = read_pnm(path);
  ASSERT_EQ(back.h, 8);
  ASSERT_EQ(back.c, 1);
  for (std::size_t i = 0; i < im.data.size(); ++i)
    EXPECT_NEAR(back.data[i], im.data[i], 1.f / 255.f);
  std::remove(path.c_str());
}

TEST(PnmIo, PpmRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "apf_test.ppm").string();
  Image im(4, 4, 3);
  im.at(1, 2, 0) = 1.f;
  im.at(3, 3, 2) = 0.5f;
  write_ppm(path, im);
  Image back = read_pnm(path);
  ASSERT_EQ(back.c, 3);
  EXPECT_NEAR(back.at(1, 2, 0), 1.f, 1e-2);
  EXPECT_NEAR(back.at(3, 3, 2), 0.5f, 1e-2);
  std::remove(path.c_str());
}

TEST(PnmIo, OversizedOrTruncatedHeaderThrowsBeforeAllocating) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "apf_test_bad.pgm").string();
  const auto write_raw = [&](const std::string& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  };
  // w*h (1.6e19) overflows int64: rejected on the side bound before any
  // multiplication or allocation.
  write_raw("P5 4000000000 4000000000 255\n" + std::string(16, '\0'));
  EXPECT_THROW(read_pnm(path), detail::CheckError);
  // In range per side, but the file holds 16 of 3.6e9 pixel bytes.
  write_raw("P5 60000 60000 255\n" + std::string(16, '\0'));
  EXPECT_THROW(read_pnm(path), detail::CheckError);
  write_raw("P5 -4 4 255\n" + std::string(16, '\0'));
  EXPECT_THROW(read_pnm(path), detail::CheckError);
  write_raw("P5 4 4 255\n" + std::string(16, '\0'));
  EXPECT_EQ(read_pnm(path).numel(), 16);
  std::remove(path.c_str());
}

TEST(PnmIo, WrongChannelCountThrows) {
  Image rgb(2, 2, 3);
  EXPECT_THROW(write_pgm("/tmp/x.pgm", rgb), detail::CheckError);
}

// -------------------------------------------------------------------- draw

TEST(Draw, Hash01DeterministicAndBounded) {
  for (int i = 0; i < 100; ++i) {
    const float v = hash01(i, i * 3, 99);
    EXPECT_GE(v, 0.f);
    EXPECT_LT(v, 1.f);
    EXPECT_EQ(v, hash01(i, i * 3, 99));
  }
  EXPECT_NE(hash01(1, 2, 3), hash01(2, 1, 3));
}

TEST(Draw, ValueNoiseRangeAndDeterminism) {
  Image a = value_noise(32, 32, 8.0, 3, 0.5, 7);
  Image b = value_noise(32, 32, 8.0, 3, 0.5, 7);
  Image c = value_noise(32, 32, 8.0, 3, 0.5, 8);
  double diff_same = 0, diff_other = 0;
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    EXPECT_GE(a.data[i], 0.f);
    EXPECT_LE(a.data[i], 1.f);
    diff_same += std::abs(a.data[i] - b.data[i]);
    diff_other += std::abs(a.data[i] - c.data[i]);
  }
  EXPECT_EQ(diff_same, 0.0);
  EXPECT_GT(diff_other, 1.0);
}

TEST(Draw, BlobContainsCentre) {
  Rng rng(5);
  Blob b = make_blob(16, 16, 8, 6, 0.3, rng);
  EXPECT_TRUE(blob_contains(b, 16, 16));
  EXPECT_FALSE(blob_contains(b, 16, 31));
}

TEST(Draw, FillBlobPaintsMask) {
  Rng rng(6);
  Image im(32, 32, 1);
  Image mask(32, 32, 1);
  Blob b = make_blob(16, 16, 6, 4, 0.2, rng);
  fill_blob(im, b, 0.8f, 0, &mask);
  double area = 0;
  for (float v : mask.data) area += v;
  EXPECT_GT(area, 50);    // roughly pi * 36
  EXPECT_LT(area, 260);
  EXPECT_EQ(im.at(16, 16), 0.8f);
}

TEST(Draw, EllipseArea) {
  Image im(64, 64, 1);
  fill_ellipse(im, 32, 32, 10, 20, 0.0, 1.f);
  double area = 0;
  for (float v : im.data) area += v;
  EXPECT_NEAR(area, M_PI * 10 * 20, 40);
  EXPECT_EQ(im.at(32, 32), 1.f);
  EXPECT_EQ(im.at(2, 2), 0.f);
}

TEST(Draw, BezierDrawsConnectedStroke) {
  Image im(32, 32, 1);
  draw_bezier(im, 4, 4, 16, 28, 28, 4, 2.0, 1.f);
  double painted = 0;
  for (float v : im.data) painted += v;
  EXPECT_GT(painted, 20);
  EXPECT_EQ(im.at(4, 4), 1.f);
  EXPECT_EQ(im.at(28, 4), 1.f);
}

}  // namespace
}  // namespace apf::img
