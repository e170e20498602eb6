// Database catalog: tables, columns, indexes and materialized views, plus
// the statistics (row counts, row widths, distinct counts, value ranges) the
// query optimizer needs for cardinality estimation, and the mapping from
// schema elements to layout *objects* {R_1..R_n} with block sizes.

#ifndef DBLAYOUT_CATALOG_CATALOG_H_
#define DBLAYOUT_CATALOG_CATALOG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/units.h"

namespace dblayout {

enum class ColumnType { kInt, kBigInt, kDouble, kDecimal, kChar, kVarchar, kDate };

/// Fixed storage width in bytes for a column of the given type; `declared`
/// is the declared length for character types.
int64_t ColumnWidthBytes(ColumnType type, int declared);

/// An equi-width histogram over a column's [min_value, max_value] domain:
/// fractions[i] is the fraction of rows falling into bucket i. An empty
/// histogram means "assume uniform". Fractions are normalized on use.
struct Histogram {
  std::vector<double> fractions;

  bool empty() const { return fractions.empty(); }
  size_t buckets() const { return fractions.size(); }

  /// Fraction of rows with value < v, for a domain [lo, hi]; linear
  /// interpolation inside the boundary bucket.
  double FractionBelow(double lo, double hi, double v) const;
  /// Fraction of rows with a <= value <= b.
  double FractionBetween(double lo, double hi, double a, double b) const;
  /// Fraction of rows in the bucket containing v.
  double BucketFraction(double lo, double hi, double v) const;
};

/// A column and its single-column statistics. Value bounds are kept as
/// doubles; DATE values are stored as days since 1970-01-01.
struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt;
  int declared_length = 0;       ///< for CHAR/VARCHAR
  int64_t distinct_count = 100;  ///< estimated number of distinct values
  double min_value = 0;
  double max_value = 1e9;
  /// Optional value-distribution histogram; empty = uniform assumption.
  Histogram histogram;

  int64_t WidthBytes() const { return ColumnWidthBytes(type, declared_length); }
};

/// A base table. If `clustered_key` is non-empty the rows are stored in a
/// clustered index on those columns; otherwise the table is a heap.
struct Table {
  std::string name;
  std::vector<Column> columns;
  int64_t row_count = 0;
  std::vector<std::string> clustered_key;
  bool is_materialized_view = false;

  /// Bytes per row (sum of column widths plus per-row overhead).
  int64_t RowWidthBytes() const;
  /// Size of the base data in allocation blocks.
  int64_t DataBlocks() const;
  /// Rows that fit in one block.
  double RowsPerBlock() const;

  /// Index in `columns` of the first column named `column_name` (an exact
  /// match), or -1.
  int ColumnId(const std::string& column_name) const;
  const Column* FindColumn(const std::string& column_name) const;
};

/// A non-clustered (secondary) index: key columns plus an 8-byte row locator
/// per entry.
struct Index {
  std::string name;
  std::string table_name;
  std::vector<std::string> key_columns;
  bool unique = false;
};

/// The kinds of layout objects derived from the schema.
enum class ObjectKind { kHeap, kClusteredIndex, kNonClusteredIndex, kMaterializedView, kTempDb };

/// One layout object R_i: a thing the advisor places on disks.
struct DatabaseObject {
  int id = 0;
  std::string name;            ///< table name, or "table.index" for NC indexes
  ObjectKind kind = ObjectKind::kHeap;
  std::string table_name;      ///< owning table ("" for tempdb)
  std::string index_name;      ///< for kNonClusteredIndex
  int64_t size_blocks = 0;
};

/// A relational database: schema + statistics + the derived object list.
class Database {
 public:
  explicit Database(std::string name = "db") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  Status AddTable(Table table);
  Status AddIndex(Index index);

  const Table* FindTable(const std::string& table_name) const;
  const Index* FindIndex(const std::string& table_name,
                         const std::string& index_name) const;
  /// Returns the first index declared on `table_name` whose leading key
  /// column is `column`, or nullptr.
  const Index* IndexOnColumn(const std::string& table_name,
                             const std::string& column) const;

  // Lookups by id, which the optimizer binds with (a column's id comes from
  // Table::ColumnId). Names match exactly, and the lookups are kept current
  // as tables and indexes are added.

  /// Id of table `table_name`: its index in tables(), which is also the id
  /// of its base object. -1 if there is no such table.
  int TableId(const std::string& table_name) const;
  /// Id (index in indexes()) of the first index declared on table
  /// `table_id` whose leading key column is column `column_id`, or -1.
  int LeadingIndexId(int table_id, int column_id) const {
    return table_keys_[static_cast<size_t>(table_id)]
        .leading_index[static_cast<size_t>(column_id)];
  }
  /// Ids of the indexes declared on table `table_id`, in declaration order.
  const std::vector<int>& IndexIdsOf(int table_id) const {
    return table_keys_[static_cast<size_t>(table_id)].index_ids;
  }
  /// Object id of index `index_id`: index objects follow the tables'.
  int IndexObjectId(int index_id) const {
    return static_cast<int>(tables_.size()) + index_id;
  }

  const std::vector<Table>& tables() const { return tables_; }
  const std::vector<Index>& indexes() const { return indexes_; }

  /// Estimated size of a non-clustered index in blocks.
  int64_t IndexBlocks(const Index& index) const;

  /// The layout objects {R_1..R_n}: one per table (heap or clustered index)
  /// plus one per non-clustered index, in deterministic order. Object ids are
  /// indices into the returned vector and are stable for a given schema.
  const std::vector<DatabaseObject>& Objects() const;

  /// Object id for a table's base object, or an error if unknown.
  Result<int> ObjectIdOfTable(const std::string& table_name) const;
  /// Object id for a non-clustered index, or an error if unknown.
  Result<int> ObjectIdOfIndex(const std::string& table_name,
                              const std::string& index_name) const;

  /// Sizes in blocks of all objects, indexed by object id.
  std::vector<int64_t> ObjectSizes() const;

  /// Total size of all objects in blocks.
  int64_t TotalBlocks() const;

  std::string ToString() const;

 private:
  void RebuildObjects() const;

  /// The index lookups of one table.
  struct TableKeys {
    std::vector<int> leading_index;  ///< per column: LeadingIndexId, or -1
    std::vector<int> index_ids;      ///< IndexIdsOf
  };

  std::string name_;
  std::vector<Table> tables_;
  std::vector<Index> indexes_;
  std::unordered_map<std::string, int> table_ids_;
  std::vector<TableKeys> table_keys_;  ///< parallel to tables_
  mutable std::vector<DatabaseObject> objects_;
  mutable bool objects_dirty_ = true;
};

}  // namespace dblayout

#endif  // DBLAYOUT_CATALOG_CATALOG_H_
