// Synthetic TPC-H database and workloads (the paper's TPCH1G testbed).
//
// The layout advisor consumes only schema, statistics and plans — never
// tuples — so this module generates the TPC-H schema with faithful row
// counts, row widths and column statistics per scale factor, plus analogs
// of the 22 benchmark queries and the paper's derived workloads:
//   - TPCH-22 (the benchmark),
//   - WK-CTRL1 / WK-CTRL2 (controlled cost-model-validation workloads),
//   - WK-SCALE(N) (N generated queries),
//   - TPCH1G-N (N schema copies) with TPCH-88-N workloads (qgen-style).

#ifndef DBLAYOUT_BENCHDATA_TPCH_H_
#define DBLAYOUT_BENCHDATA_TPCH_H_

#include <cstdint>
#include <string>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/rng.h"
#include "workload/workload.h"

namespace dblayout::benchdata {

/// TPC-H schema at the given scale (1.0 ~ 1 GB of base data). With
/// `copies` > 1, every table exists `copies` times; copy c >= 2 is suffixed
/// "_c<c>" (the paper's TPCH1G-N databases). All tables are clustered on
/// their primary keys, as in a standard TPC-H install. `scale` must be one
/// that TpchScaleFits.
Database MakeTpchDatabase(double scale = 1.0, int copies = 1);

/// Whether every table's row count at `scale` converts to int64_t: false
/// for a NaN or infinite scale and for one that gives lineitem, the
/// largest table, 2^63 rows or more.
bool TpchScaleFits(double scale);

/// Adds the handful of secondary indexes a tuned TPC-H install carries
/// (l_shipdate, o_orderdate, c_mktsegment); used by index-aware tests.
Status AddTpchSecondaryIndexes(Database* db);

/// The 22-query benchmark workload (analogs of TPC-H Q1..Q22 in the
/// library's SQL subset; Q21 reads lineitem three times, as in the spec).
Result<Workload> MakeTpch22Workload(const Database& db, uint64_t seed = 1);

/// The SQL text of TPC-H query analog `q` (1-22) with parameters drawn from
/// `rng`, against copy `copy` of the schema (1 = unsuffixed).
std::string TpchQueryText(int q, Rng* rng, int copy = 1);

/// qgen-style workload: `count` queries cycling through the 22 templates
/// with random parameters; each query's tables are randomly re-targeted to
/// one of `copies` schema copies (the paper's TPCH-88-N generation).
Result<Workload> MakeTpchQgenWorkload(const Database& db, int count, int copies,
                                      uint64_t seed);

/// WK-CTRL1: 5 two-table-join COUNT(*) queries touching nearly all data of
/// lineitem, orders, partsupp and part.
Result<Workload> MakeWkCtrl1(const Database& db);

/// WK-CTRL2: 10 queries mixing single-table scans and multi-table joins,
/// each with a simple aggregate.
Result<Workload> MakeWkCtrl2(const Database& db);

/// WK-SCALE(N): N synthetic queries with varying selections, joins,
/// GROUP BY and ORDER BY clauses over the TPC-H schema.
Result<Workload> MakeWkScale(const Database& db, int n, uint64_t seed);

}  // namespace dblayout::benchdata

#endif  // DBLAYOUT_BENCHDATA_TPCH_H_
