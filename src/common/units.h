// Unit conventions shared across the library.
//
// Sizes are tracked in *blocks*: the storage-engine allocation granularity.
// Following SQL Server 2000 (the paper's testbed), a block is one extent =
// 8 pages x 8 KiB = 64 KiB. Time is tracked in milliseconds (double).

#ifndef DBLAYOUT_COMMON_UNITS_H_
#define DBLAYOUT_COMMON_UNITS_H_

#include <cstdint>

namespace dblayout {

/// Bytes per page (SQL Server 2000 page).
inline constexpr int64_t kPageBytes = 8 * 1024;

/// Pages per allocation block (SQL Server extent).
inline constexpr int64_t kPagesPerBlock = 8;

/// Bytes per allocation block; the granularity at which objects are spread
/// over disk drives.
inline constexpr int64_t kBlockBytes = kPageBytes * kPagesPerBlock;

/// Converts a size in bytes to blocks, rounding up (minimum 1 for any
/// non-empty object).
inline int64_t BytesToBlocks(int64_t bytes) {
  if (bytes <= 0) return 0;
  // Rounds up without adding to `bytes`, which may be close to INT64_MAX.
  return bytes / kBlockBytes + (bytes % kBlockBytes != 0 ? 1 : 0);
}

/// Milliseconds to transfer one block at `mb_per_sec` megabytes per second.
inline double MsPerBlock(double mb_per_sec) {
  const double bytes_per_ms = mb_per_sec * 1e6 / 1e3;
  return static_cast<double>(kBlockBytes) / bytes_per_ms;
}

}  // namespace dblayout

#endif  // DBLAYOUT_COMMON_UNITS_H_
