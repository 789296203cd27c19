#pragma once
// Binary PGM (P5) / PPM (P6) image I/O — dependency-free visualization of
// inputs, edge maps, quadtree overlays and predicted masks (paper Fig. 2).

#include <cstdint>
#include <string>

#include "img/image.h"

namespace apf::img {

/// Writes a single-channel image as binary PGM; values clamped from [0,1]
/// to [0,255]. Throws CheckError on I/O failure.
void write_pgm(const std::string& path, const Image& gray);

/// Writes a 3-channel image as binary PPM; values clamped from [0,1].
void write_ppm(const std::string& path, const Image& rgb);

/// Largest width or height read_pnm accepts.
inline constexpr std::int64_t kMaxPnmSide = std::int64_t{1} << 20;

/// Reads a binary PGM/PPM back into a float image in [0,1]. Throws
/// CheckError, before allocating, on a malformed header, a side outside
/// [1, kMaxPnmSide] or fewer pixel bytes in the file than the header
/// declares.
Image read_pnm(const std::string& path);

}  // namespace apf::img
