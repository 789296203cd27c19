#include "img/pnm_io.h"

#include <algorithm>
#include <fstream>
#include <vector>

namespace apf::img {
namespace {

std::uint8_t to_byte(float v) {
  const float c = std::clamp(v, 0.f, 1.f);
  return static_cast<std::uint8_t>(c * 255.f + 0.5f);
}

void write_pnm_impl(const std::string& path, const Image& im,
                    const char* magic) {
  std::ofstream f(path, std::ios::binary);
  APF_CHECK(f.good(), "write_pnm: cannot open " << path);
  f << magic << "\n" << im.w << " " << im.h << "\n255\n";
  std::vector<std::uint8_t> row(static_cast<std::size_t>(im.w * im.c));
  for (std::int64_t y = 0; y < im.h; ++y) {
    for (std::int64_t x = 0; x < im.w; ++x)
      for (std::int64_t ch = 0; ch < im.c; ++ch)
        row[static_cast<std::size_t>(x * im.c + ch)] = to_byte(im.at(y, x, ch));
    f.write(reinterpret_cast<const char*>(row.data()),
            static_cast<std::streamsize>(row.size()));
  }
  APF_CHECK(f.good(), "write_pnm: write failed for " << path);
}

}  // namespace

void write_pgm(const std::string& path, const Image& gray) {
  APF_CHECK(gray.c == 1, "write_pgm: need 1 channel, got " << gray.c);
  write_pnm_impl(path, gray, "P5");
}

void write_ppm(const std::string& path, const Image& rgb) {
  APF_CHECK(rgb.c == 3, "write_ppm: need 3 channels, got " << rgb.c);
  write_pnm_impl(path, rgb, "P6");
}

Image read_pnm(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  APF_CHECK(f.good(), "read_pnm: cannot open " << path);
  std::string magic;
  f >> magic;
  APF_CHECK(magic == "P5" || magic == "P6", "read_pnm: bad magic " << magic);
  const std::int64_t c = magic == "P5" ? 1 : 3;
  std::int64_t w = 0, h = 0, maxval = 0;
  f >> w >> h >> maxval;
  APF_CHECK(f.good() && maxval == 255, "read_pnm: bad header in " << path);
  // Bound each side before multiplying (so w*h*c cannot overflow), then
  // check the pixel bytes are really in the file before allocating them.
  APF_CHECK(w > 0 && h > 0 && w <= kMaxPnmSide && h <= kMaxPnmSide,
            "read_pnm: " << w << "x" << h << " is outside [1, " << kMaxPnmSide
                         << "] per side in " << path);
  f.get();  // single whitespace after header
  const std::int64_t bytes = w * h * c;
  const std::streampos data_start = f.tellg();
  f.seekg(0, std::ios::end);
  const std::int64_t available = f.tellg() - data_start;
  APF_CHECK(available >= bytes, "read_pnm: truncated file "
                                    << path << " (" << w << "x" << h << "x"
                                    << c << " needs " << bytes
                                    << " pixel bytes, has " << available
                                    << ")");
  f.seekg(data_start);
  Image im(h, w, c);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(bytes));
  f.read(reinterpret_cast<char*>(buf.data()),
         static_cast<std::streamsize>(buf.size()));
  APF_CHECK(f.gcount() == static_cast<std::streamsize>(buf.size()),
            "read_pnm: truncated file " << path);
  for (std::size_t i = 0; i < buf.size(); ++i)
    im.data[i] = static_cast<float>(buf[i]) / 255.f;
  return im;
}

}  // namespace apf::img
