#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.h"
#include "common/strutil.h"
#include "storage/block_map.h"
#include "storage/disk.h"
#include "storage/layout.h"

namespace dblayout {
namespace {

TEST(DiskTest, UniformFleet) {
  DiskFleet fleet = DiskFleet::Uniform(4, 2.0, 8.0, 50.0, 40.0);
  ASSERT_EQ(fleet.num_disks(), 4);
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(fleet.disk(j).capacity_blocks, BytesToBlocks(2'000'000'000));
    EXPECT_DOUBLE_EQ(fleet.disk(j).seek_ms, 8.0);
    EXPECT_DOUBLE_EQ(fleet.disk(j).read_mb_s, 50.0);
  }
  EXPECT_EQ(fleet.TotalCapacityBlocks(), 4 * BytesToBlocks(2'000'000'000));
}

TEST(DiskTest, HeterogeneousSpread) {
  DiskFleet fleet = DiskFleet::Heterogeneous(16, 0.3, 99);
  double lo = 1e18, hi = 0;
  for (const auto& d : fleet.drives()) {
    lo = std::min(lo, d.read_mb_s);
    hi = std::max(hi, d.read_mb_s);
  }
  // Spread 0.3 means fastest/slowest within [1-(0.15)]..[1+0.15] of base.
  EXPECT_LE(hi / lo, 1.3 / 0.7 + 1e-9);
  EXPECT_GT(hi, lo);  // actually heterogeneous
  // Deterministic per seed.
  DiskFleet again = DiskFleet::Heterogeneous(16, 0.3, 99);
  for (int j = 0; j < 16; ++j) {
    EXPECT_DOUBLE_EQ(fleet.disk(j).read_mb_s, again.disk(j).read_mb_s);
  }
}

TEST(DiskTest, FromSpecParsesDrives) {
  auto fleet = DiskFleet::FromSpec(
      "# comment line\n"
      "fast 10 5.0 60 50 none\n"
      "safe 20 9.0 40 30 mirroring\n"
      "\n"
      "raid5 30 9.5 35 20 parity\n");
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(fleet->num_disks(), 3);
  EXPECT_EQ(fleet->disk(0).name, "fast");
  EXPECT_EQ(fleet->disk(1).avail, Availability::kMirroring);
  EXPECT_EQ(fleet->disk(2).avail, Availability::kParity);
  EXPECT_DOUBLE_EQ(fleet->disk(2).seek_ms, 9.5);
}

TEST(DiskTest, FromSpecErrors) {
  EXPECT_EQ(DiskFleet::FromSpec("bad line").status().code(), StatusCode::kParseError);
  EXPECT_EQ(DiskFleet::FromSpec("d 10 9 40 32 raid9").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(DiskFleet::FromSpec("d -1 9 40 32").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DiskFleet::FromSpec("# only comments\n").status().code(),
            StatusCode::kInvalidArgument);
}

// A capacity whose byte count does not fit in int64_t used to be an
// undefined float-to-int cast; it is an InvalidArgument naming file:line.
TEST(DiskTest, FromSpecRejectsCapacityOf2To63BytesOrMore) {
  for (const char* capacity : {"1e10", "1e300"}) {
    auto fleet = DiskFleet::FromSpec(
        StrFormat("ok 12 9 40 32\nbig %s 9 40 32\n", capacity), "disks.txt");
    ASSERT_FALSE(fleet.ok()) << capacity;
    EXPECT_EQ(fleet.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(fleet.status().message().rfind("disks.txt:2: drive capacity", 0), 0u)
        << fleet.status().message();
  }
  // The largest capacity in GB whose byte count stays below 2^63 is
  // accepted, and the next double up is not.
  double largest = 0x1p63 / 1e9;
  while (!(largest * 1e9 < 0x1p63)) largest = std::nextafter(largest, 0.0);
  const double kInf = std::numeric_limits<double>::infinity();
  while (std::nextafter(largest, kInf) * 1e9 < 0x1p63) {
    largest = std::nextafter(largest, kInf);
  }
  auto fleet = DiskFleet::FromSpec(StrFormat("big %.17g 9 40 32\n", largest));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_EQ(fleet->disk(0).capacity_blocks,
            BytesToBlocks(static_cast<int64_t>(largest * 1e9)));
  EXPECT_GT(fleet->disk(0).capacity_blocks, int64_t{1} << 46);
  auto next = DiskFleet::FromSpec(
      StrFormat("big %.17g 9 40 32\n", std::nextafter(largest, kInf)));
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
}

TEST(DiskTest, FromSpecRejectsCapacityBelowOneByte) {
  for (const char* capacity : {"1e-12", "4.9e-324", "9.9e-10"}) {
    auto fleet = DiskFleet::FromSpec(
        StrFormat("ok 12 9 40 32\ntiny %s 9 40 32\n", capacity), "disks.txt");
    ASSERT_FALSE(fleet.ok()) << capacity;
    EXPECT_EQ(fleet.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(fleet.status().message().rfind("disks.txt:2: drive capacity", 0), 0u)
        << fleet.status().message();
    EXPECT_NE(fleet.status().message().find("below one byte"), std::string::npos)
        << fleet.status().message();
  }
  // The smallest capacity in GB whose byte count reaches 1 is accepted as a
  // drive of one block, and the next double down is not.
  double smallest = 1e-9;
  while (!(smallest * 1e9 >= 1)) smallest = std::nextafter(smallest, 1.0);
  while (std::nextafter(smallest, 0.0) * 1e9 >= 1) {
    smallest = std::nextafter(smallest, 0.0);
  }
  auto fleet = DiskFleet::FromSpec(StrFormat("tiny %.17g 9 40 32\n", smallest));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_EQ(fleet->disk(0).capacity_blocks, 1);
  auto next = DiskFleet::FromSpec(
      StrFormat("tiny %.17g 9 40 32\n", std::nextafter(smallest, 0.0)));
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
}

TEST(DiskTest, ByDecreasingTransferRate) {
  DiskFleet fleet;
  DiskDrive a, b, c;
  a.name = "a";
  a.read_mb_s = 30;
  b.name = "b";
  b.read_mb_s = 50;
  c.name = "c";
  c.read_mb_s = 40;
  fleet.Add(a);
  fleet.Add(b);
  fleet.Add(c);
  EXPECT_EQ(fleet.ByDecreasingTransferRate(), (std::vector<int>{1, 2, 0}));
}

TEST(LayoutTest, FullStripingProportionalToRate) {
  DiskFleet fleet;
  DiskDrive a, b;
  a.read_mb_s = 30;
  a.capacity_blocks = 1000;
  b.read_mb_s = 10;
  b.capacity_blocks = 1000;
  fleet.Add(a);
  fleet.Add(b);
  Layout l = Layout::FullStriping(1, fleet);
  EXPECT_DOUBLE_EQ(l.x(0, 0), 0.75);
  EXPECT_DOUBLE_EQ(l.x(0, 1), 0.25);
  EXPECT_EQ(l.Width(0), 2);
}

TEST(LayoutTest, ValidateCatchesBadRows) {
  DiskFleet fleet = DiskFleet::Uniform(2, 1.0);
  Layout l(1, 2);
  l.set_x(0, 0, 0.5);  // row sums to 0.5
  EXPECT_EQ(l.Validate({10}, fleet).code(), StatusCode::kInvalidArgument);
  l.set_x(0, 1, 0.6);  // row sums to 1.1
  EXPECT_EQ(l.Validate({10}, fleet).code(), StatusCode::kInvalidArgument);
  l.set_x(0, 0, -0.1);
  l.set_x(0, 1, 1.1);
  EXPECT_EQ(l.Validate({10}, fleet).code(), StatusCode::kInvalidArgument);
  l.set_x(0, 0, 0.4);
  l.set_x(0, 1, 0.6);
  EXPECT_TRUE(l.Validate({10}, fleet).ok());
}

TEST(LayoutTest, ValidateCatchesCapacity) {
  DiskFleet fleet = DiskFleet::Uniform(2, 1.0);
  const int64_t cap = fleet.disk(0).capacity_blocks;
  Layout l(1, 2);
  l.AssignEqual(0, {0});
  EXPECT_TRUE(l.Validate({cap}, fleet).ok());
  EXPECT_EQ(l.Validate({cap + 1}, fleet).code(), StatusCode::kCapacityExceeded);
  // Spread across both disks it fits again.
  l.AssignEqual(0, {0, 1});
  EXPECT_TRUE(l.Validate({cap + 1}, fleet).ok());
}

// With two drives over capacity, the status names the lower-index one and
// its largest-remainder block count.
TEST(LayoutTest, ValidateNamesFirstDriveOverCapacity) {
  DiskFleet fleet = DiskFleet::Uniform(3, 1.0);
  const int64_t cap = fleet.disk(0).capacity_blocks;
  Layout l(2, 3);
  // Object 0: 2*cap + 1 blocks over drives 0 and 2 in halves; the one odd
  // block goes to drive 0, the first of two equal remainders.
  l.AssignEqual(0, {0, 2});
  // Object 1: 3 blocks, one per drive.
  l.AssignEqual(1, {0, 1, 2});
  ASSERT_EQ(l.RowBlocks(0, 2 * cap + 1)[0], cap + 1);
  ASSERT_EQ(l.RowBlocks(0, 2 * cap + 1)[2], cap);
  const Status st = l.Validate({2 * cap + 1, 3}, fleet);
  EXPECT_EQ(st.code(), StatusCode::kCapacityExceeded);
  EXPECT_EQ(st.message(),
            StrFormat("layout invalid: disk '%s' holds %lld blocks, capacity %lld",
                      fleet.disk(0).name.c_str(),
                      static_cast<long long>(cap + 2),
                      static_cast<long long>(cap)));
}

TEST(LayoutTest, ValidateDimensionMismatch) {
  DiskFleet fleet = DiskFleet::Uniform(2, 1.0);
  Layout l(2, 2);
  EXPECT_EQ(l.Validate({10}, fleet).code(), StatusCode::kInvalidArgument);
  Layout l2(1, 3);
  EXPECT_EQ(l2.Validate({10}, fleet).code(), StatusCode::kInvalidArgument);
}

// NaN compares false against both the negativity and the row-sum bound.
TEST(LayoutTest, ValidateRejectsNaNFraction) {
  DiskFleet fleet = DiskFleet::Uniform(2, 1.0);
  Layout l(1, 2);
  l.set_x(0, 0, 1.0);
  l.set_x(0, 1, std::nan(""));
  const Status st = l.Validate({10}, fleet);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "layout invalid: object 0 has fraction NaN on disk 'D2'");
}

// +inf drives the row sum off 1 and -inf is negative, so neither reaches
// RowBlocks' float-to-integer conversion.
TEST(LayoutTest, ValidateRejectsInfiniteFraction) {
  DiskFleet fleet = DiskFleet::Uniform(2, 1.0);
  const double inf = std::numeric_limits<double>::infinity();
  Layout l(1, 2);
  l.set_x(0, 0, 1.0);
  l.set_x(0, 1, inf);
  Status st = l.Validate({10}, fleet);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(),
            "layout invalid: object 0 is allocated fraction inf != 1 "
            "(tolerance 1e-06)");
  l.set_x(0, 1, -inf);
  st = l.ValidateRows(&fleet);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(),
            "layout invalid: object 0 has negative fraction -inf on disk 'D2'");
  // Opposite infinities in one row: the negative one is named.
  l.set_x(0, 0, inf);
  EXPECT_EQ(l.ValidateRows(nullptr).message(),
            "layout invalid: object 0 has negative fraction -inf on disk 1");
}

TEST(LayoutTest, CsvNaNFractionFailsValidation) {
  DiskFleet fleet = DiskFleet::Uniform(2, 1.0);
  auto l = Layout::FromCsv("object,D1,D2\na,nan,1\n", {"a"}, fleet);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  EXPECT_EQ(l->Validate({10}, fleet).message(),
            "layout invalid: object 0 has fraction NaN on disk 'D1'");
}

TEST(LayoutTest, CsvRejectsTrailingJunkInFraction) {
  DiskFleet fleet = DiskFleet::Uniform(2, 1.0);
  auto l = Layout::FromCsv("object,D1,D2\na,0.2abc,0.8\n", {"a"}, fleet);
  EXPECT_EQ(l.status().code(), StatusCode::kParseError);
  EXPECT_EQ(l.status().message(), "layout csv: bad fraction '0.2abc'");
}

TEST(LayoutTest, BlocksOnDiskApportionsExactly) {
  DiskFleet fleet = DiskFleet::Uniform(3, 1.0);
  Layout l(1, 3);
  l.set_x(0, 0, 1.0 / 3);
  l.set_x(0, 1, 1.0 / 3);
  l.set_x(0, 2, 1.0 / 3);
  // 100 blocks over thirds: 34+33+33 in some order, total exact.
  int64_t total = 0;
  for (int j = 0; j < 3; ++j) total += l.RowBlocks(0, 100)[j];
  EXPECT_EQ(total, 100);
  for (int j = 0; j < 3; ++j) {
    EXPECT_GE(l.RowBlocks(0, 100)[j], 33);
    EXPECT_LE(l.RowBlocks(0, 100)[j], 34);
  }
}

TEST(LayoutTest, BlocksOnDiskZeroFractionGetsNothing) {
  DiskFleet fleet = DiskFleet::Uniform(3, 1.0);
  Layout l(1, 3);
  l.AssignEqual(0, {0, 2});
  EXPECT_EQ(l.RowBlocks(0, 999)[1], 0);
  EXPECT_EQ(l.RowBlocks(0, 999)[0] + l.RowBlocks(0, 999)[2], 999);
}

TEST(LayoutTest, AssignProportionalUsesRates) {
  DiskFleet fleet;
  DiskDrive a, b, c;
  a.read_mb_s = 20;
  b.read_mb_s = 30;
  c.read_mb_s = 50;
  fleet.Add(a);
  fleet.Add(b);
  fleet.Add(c);
  Layout l(1, 3);
  l.AssignProportional(0, {0, 2}, fleet);
  EXPECT_DOUBLE_EQ(l.x(0, 0), 20.0 / 70.0);
  EXPECT_DOUBLE_EQ(l.x(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(l.x(0, 2), 50.0 / 70.0);
}

TEST(LayoutTest, DataMovement) {
  DiskFleet fleet = DiskFleet::Uniform(2, 1.0);
  Layout from(1, 2), to(1, 2);
  from.AssignEqual(0, {0});
  to.AssignEqual(0, {0, 1});
  // Moving half of a 100-block object to disk 1.
  EXPECT_DOUBLE_EQ(Layout::DataMovementBlocks(from, to, {100}), 50);
  EXPECT_DOUBLE_EQ(Layout::DataMovementBlocks(from, from, {100}), 0);
}

TEST(LayoutTest, ApproxEquals) {
  Layout a(1, 2), b(1, 2);
  a.AssignEqual(0, {0, 1});
  b.AssignEqual(0, {0, 1});
  EXPECT_TRUE(a.ApproxEquals(b));
  b.set_x(0, 0, 0.5001);
  EXPECT_FALSE(a.ApproxEquals(b, 1e-9));
  EXPECT_TRUE(a.ApproxEquals(b, 1e-2));
}

TEST(LayoutTest, InferFilegroupsGroupsByDiskSet) {
  DiskFleet fleet = DiskFleet::Uniform(4, 1.0);
  Layout l(3, 4);
  l.AssignEqual(0, {0, 1});
  l.AssignEqual(1, {0, 1});
  l.AssignEqual(2, {2, 3});
  auto fgs = InferFilegroups(l);
  ASSERT_EQ(fgs.size(), 2u);
  EXPECT_EQ(fgs[0].disks, (std::vector<int>{0, 1}));
  EXPECT_EQ(fgs[0].objects, (std::vector<int>{0, 1}));
  EXPECT_EQ(fgs[1].disks, (std::vector<int>{2, 3}));
  EXPECT_EQ(fgs[1].objects, (std::vector<int>{2}));
}

TEST(BlockMapTest, MaterializeProducesContiguousExtents) {
  DiskFleet fleet = DiskFleet::Uniform(2, 1.0);
  Layout l(2, 2);
  l.AssignEqual(0, {0, 1});
  l.AssignEqual(1, {0});
  auto map = BlockMap::Materialize(l, {100, 40}, fleet);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->BlocksOnDisk(0, 0), 50);
  EXPECT_EQ(map->BlocksOnDisk(0, 1), 50);
  EXPECT_EQ(map->BlocksOnDisk(1, 0), 40);
  EXPECT_EQ(map->BlocksOnDisk(1, 1), 0);
  EXPECT_EQ(map->UsedOnDisk(0), 90);
  EXPECT_EQ(map->UsedOnDisk(1), 50);
  // Object 1's extent on disk 0 starts after object 0's.
  ASSERT_EQ(map->ExtentsOf(1).size(), 1u);
  EXPECT_EQ(map->ExtentsOf(1)[0].start, 50);
}

TEST(BlockMapTest, MaterializeRejectsOverflow) {
  DiskFleet fleet = DiskFleet::Uniform(1, 0.001);  // ~16 blocks
  Layout l(1, 1);
  l.AssignEqual(0, {0});
  auto map = BlockMap::Materialize(l, {100000}, fleet);
  EXPECT_EQ(map.status().code(), StatusCode::kCapacityExceeded);
}

TEST(LayoutCsvTest, RoundTrips) {
  DiskFleet fleet = DiskFleet::Uniform(3);
  Layout l(2, 3);
  l.AssignProportional(0, {0, 2}, fleet);
  l.AssignEqual(1, {1});
  const std::vector<std::string> names = {"alpha", "beta"};
  const std::string csv = l.ToCsv(names, fleet);
  auto back = Layout::FromCsv(csv, names, fleet);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->ApproxEquals(l, 1e-15));
  // Random fractions, subnormal and huge ones included, come back bit for bit.
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    Layout r(2, 3);
    for (int i = 0; i < 2; ++i) {
      for (int j = 0; j < 3; ++j) {
        const int exponent = static_cast<int>(rng.UniformInt(-1074, 1000));
        r.set_x(i, j, std::ldexp(rng.UniformDouble(0, 1), exponent));
      }
    }
    auto read = Layout::FromCsv(r.ToCsv(names, fleet), names, fleet);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    for (int i = 0; i < 2; ++i) {
      for (int j = 0; j < 3; ++j) {
        EXPECT_EQ(std::bit_cast<uint64_t>(read->x(i, j)),
                  std::bit_cast<uint64_t>(r.x(i, j)))
            << "cell " << i << "," << j << " of trial " << trial;
      }
    }
  }
}

TEST(LayoutCsvTest, RowsInAnyOrder) {
  DiskFleet fleet = DiskFleet::Uniform(2);
  auto back = Layout::FromCsv(
      "object,D1,D2\n"
      "beta,0,1\n"
      "alpha,0.5,0.5\n",
      {"alpha", "beta"}, fleet);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back->x(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(back->x(1, 1), 1.0);
}

TEST(LayoutCsvTest, Errors) {
  DiskFleet fleet = DiskFleet::Uniform(2);
  const std::vector<std::string> names = {"a", "b"};
  EXPECT_EQ(Layout::FromCsv("", names, fleet).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Layout::FromCsv("object,WRONG,D2\na,1,0\nb,1,0\n", names, fleet)
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(Layout::FromCsv("object,D1,D2\na,1,0\n", names, fleet).status().code(),
            StatusCode::kInvalidArgument);  // missing b
  EXPECT_EQ(Layout::FromCsv("object,D1,D2\na,1,0\na,1,0\nb,1,0\n", names, fleet)
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // duplicate
  EXPECT_EQ(Layout::FromCsv("object,D1,D2\nghost,1,0\nb,1,0\n", names, fleet)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Layout::FromCsv("object,D1,D2\na,xx,0\nb,1,0\n", names, fleet)
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(Layout::FromCsv("object,D1,D2\na,1\nb,1,0\n", names, fleet)
                .status()
                .code(),
            StatusCode::kParseError);  // short row
}

/// Property sweep: random valid layouts materialize with exact totals.
class ApportionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ApportionPropertyTest, RoundingConservesBlocks) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int m = 2 + static_cast<int>(rng.Index(7));
  DiskFleet fleet = DiskFleet::Uniform(m, 10.0);
  Layout l(1, m);
  // Random normalized row.
  std::vector<double> f(static_cast<size_t>(m));
  double total = 0;
  for (double& v : f) {
    v = rng.UniformDouble(0, 1);
    total += v;
  }
  for (int j = 0; j < m; ++j) l.set_x(0, j, f[static_cast<size_t>(j)] / total);
  const int64_t size = rng.UniformInt(1, 100000);
  int64_t allocated = 0;
  for (int j = 0; j < m; ++j) allocated += l.RowBlocks(0, size)[j];
  EXPECT_EQ(allocated, size);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApportionPropertyTest, ::testing::Range(1, 26));

}  // namespace
}  // namespace dblayout
