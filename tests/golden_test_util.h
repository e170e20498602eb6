// Shared by the golden tests: the comparison with a golden file, the
// FNV-1a digest the digest goldens record, and the service benchmark's
// phased statement stream and fleet, so the plan and checkpoint goldens pin
// the same stream.

#ifndef DBLAYOUT_TESTS_GOLDEN_TEST_UTIL_H_
#define DBLAYOUT_TESTS_GOLDEN_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchdata/tpch.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "storage/disk.h"

namespace dblayout {
namespace testutil {

/// Expects `got` to equal tests/testdata/`file` byte for byte. With
/// DBLAYOUT_UPDATE_GOLDEN set, writes `got` there instead.
inline void ExpectMatchesGolden(const std::string& got, const std::string& file) {
  const std::string path = std::string(DBLAYOUT_TESTDATA_DIR) + "/" + file;
  if (std::getenv("DBLAYOUT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << got;
    ASSERT_TRUE(out) << "cannot regenerate " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str()) << "output drifted from " << path;
}

/// The number spellings the reader golden (reader_golden_test.cc) runs
/// every reader on, and the field fuzzers plant into numeric fields:
/// white space, signs, hex, truncated exponents, NaN and infinities,
/// overflow and underflow, and the first integers past int, uint32_t,
/// int64_t and uint64_t.
inline const std::vector<std::string>& NumberSpellings() {
  static const std::vector<std::string> kSpellings = {
      "",       " 1",       "+1",         "-0",         "0x1p3",
      "1e",     "1.2.3",    "nan",        "inf",        "1e308",
      "1e999",  "-1e999",   "1e-400",     "4.9e-324",   "2147483648",
      "4294967298", "9223372036854775808", "18446744073709551616"};
  return kSpellings;
}

/// 64-bit FNV-1a.
inline uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The service benchmark's refresh write of shape `kind` (0: UPDATE orders,
/// 1: DELETE FROM lineitem, 2: INSERT INTO orders), keys drawn from `rng`.
inline std::string RefreshWrite(int kind, Rng* rng) {
  switch (kind) {
    case 0:
      return StrFormat("UPDATE orders SET o_orderstatus = 'F' WHERE o_orderkey < %d",
                       static_cast<int>(rng->UniformInt(1000, 150000)));
    case 1:
      return StrFormat("DELETE FROM lineitem WHERE l_orderkey < %d",
                       static_cast<int>(rng->UniformInt(1000, 60000)));
    default:
      return StrFormat(
          "INSERT INTO orders VALUES (%d, %d, 'O', %d.25, date '1998-08-01', "
          "'1-URGENT', 'Clerk#000000001', 0, 'refresh')",
          static_cast<int>(rng->UniformInt(6000001, 9000000)),
          static_cast<int>(rng->UniformInt(1, 150000)),
          static_cast<int>(rng->UniformInt(900, 500000)));
  }
}

/// The statement texts of the service benchmark's phased stream for
/// `seed`, in stream order: three tenants rotate through six phases, each
/// drawing from one family of four TPC-H query templates, and every fifth
/// statement of a tenant is a refresh write cycling through the three
/// shapes. Statement i belongs to tenant i % 3 + 1.
inline std::vector<std::string> PhasedStream(uint64_t seed) {
  constexpr int kTenants = 3;
  constexpr int kPhases = 6;
  constexpr int kPhaseStatements = 96;
  constexpr int kRefreshEvery = 5;
  constexpr int kQueryFamilies[kTenants][4] = {
      {3, 5, 10, 18}, {1, 6, 12, 4}, {2, 11, 16, 20}};
  Rng rng(seed);
  std::vector<std::string> stream;
  for (int phase = 0; phase < kPhases; ++phase) {
    for (int k = 0; k < kPhaseStatements; ++k) {
      const int refreshes = k / kRefreshEvery;  // before statement k
      for (int tenant = 0; tenant < kTenants; ++tenant) {
        const int q = kQueryFamilies[(phase + tenant) % kTenants][(k - refreshes) % 4];
        stream.push_back(k % kRefreshEvery == kRefreshEvery - 1
                             ? RefreshWrite(refreshes % 3, &rng)
                             : benchdata::TpchQueryText(q, &rng));
      }
    }
  }
  return stream;
}

/// The service benchmark's fleet: 4 plain drives, 2 RAID 1 and 2 RAID 5.
inline DiskFleet ServeFleet() {
  DiskFleet fleet = DiskFleet::Heterogeneous(8, 0.3, 42);
  for (int j = 4; j < 8; ++j) {
    fleet.disk(j).avail = j < 6 ? Availability::kMirroring : Availability::kParity;
  }
  return fleet;
}

}  // namespace testutil
}  // namespace dblayout

#endif  // DBLAYOUT_TESTS_GOLDEN_TEST_UTIL_H_
