// Schema builders shared by the optimizer tests and the plan-digest golden.

#ifndef DBLAYOUT_TESTS_OPTIMIZER_TEST_UTIL_H_
#define DBLAYOUT_TESTS_OPTIMIZER_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "catalog/catalog.h"

namespace dblayout {
namespace testutil {

inline Column MakeKey(const std::string& name, int64_t distinct) {
  Column c;
  c.name = name;
  c.type = ColumnType::kInt;
  c.distinct_count = distinct;
  c.min_value = 1;
  c.max_value = static_cast<double>(distinct);
  return c;
}

inline Column MakeNum(const std::string& name, double lo, double hi, int64_t distinct) {
  Column c;
  c.name = name;
  c.type = ColumnType::kDouble;
  c.distinct_count = distinct;
  c.min_value = lo;
  c.max_value = hi;
  return c;
}

/// Thirteen tables w0..w12 for FROM lists at and past the DP join limit
/// (12 tables). w<i> is clustered on w<i>_key and w<i>_next references
/// w<i+1>_key; sizes vary from 500 to 32k rows so merge, index nested-loops
/// and hash joins all compete, and w4_next carries a non-clustered index.
inline Database MakeWideDb() {
  Database db("widedb");
  auto rows_of = [](int i) { return int64_t{500} << (i * 5 % 7); };
  for (int i = 0; i < 13; ++i) {
    const std::string w = "w" + std::to_string(i);
    Table t;
    t.name = w;
    t.row_count = rows_of(i);
    t.columns = {MakeKey(w + "_key", rows_of(i)), MakeKey(w + "_next", rows_of(i + 1)),
                 MakeNum(w + "_val", 0, 100, 100)};
    t.clustered_key = {w + "_key"};
    EXPECT_TRUE(db.AddTable(t).ok());
  }
  EXPECT_TRUE(db.AddIndex(Index{"ix_w4_next", "w4", {"w4_next"}, false}).ok());
  return db;
}

/// SELECT over w0..w<tables-1>: the w0..w11 chain of equi-joins, one
/// non-equi join (w2_val < w5_val) and a filter on w0. A 13th table has no
/// join predicate, so it can only be cross-joined.
inline std::string WideJoinSql(int tables) {
  std::string from;
  std::string where = "w0_val < 5 AND w2_val < w5_val";
  for (int i = 0; i < tables; ++i) {
    from += (i > 0 ? ", w" : "w") + std::to_string(i);
    if (i > 0 && i < 12) {
      where += " AND w" + std::to_string(i - 1) + "_next = w" + std::to_string(i) + "_key";
    }
  }
  return "SELECT COUNT(*) FROM " + from + " WHERE " + where;
}

}  // namespace testutil
}  // namespace dblayout

#endif  // DBLAYOUT_TESTS_OPTIMIZER_TEST_UTIL_H_
