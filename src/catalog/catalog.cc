#include "catalog/catalog.h"

#include <algorithm>
#include <cmath>

#include "common/strutil.h"

namespace dblayout {

namespace {
/// Per-row storage overhead (header + null bitmap), approximating SQL Server.
constexpr int64_t kRowOverheadBytes = 10;
/// Row locator width in a non-clustered index entry.
constexpr int64_t kRidBytes = 8;
/// Fraction of each page usable for rows (fill factor + page header).
constexpr double kPageFill = 0.96;
}  // namespace

int64_t ColumnWidthBytes(ColumnType type, int declared) {
  switch (type) {
    case ColumnType::kInt:
      return 4;
    case ColumnType::kBigInt:
      return 8;
    case ColumnType::kDouble:
      return 8;
    case ColumnType::kDecimal:
      return 9;
    case ColumnType::kChar:
      return declared;
    case ColumnType::kVarchar:
      // Average fill of half the declared length plus a 2-byte length prefix.
      return declared / 2 + 2;
    case ColumnType::kDate:
      return 8;
  }
  return 8;
}

namespace {
/// Sum of histogram fractions (for normalization); 0 if degenerate.
double FractionTotal(const std::vector<double>& fractions) {
  double total = 0;
  for (double f : fractions) total += std::max(0.0, f);
  return total;
}
}  // namespace

double Histogram::FractionBelow(double lo, double hi, double v) const {
  if (empty() || hi <= lo) return 0;
  if (v <= lo) return 0;
  if (v >= hi) return 1;
  const double total = FractionTotal(fractions);
  if (total <= 0) return 0;
  const double width = (hi - lo) / static_cast<double>(buckets());
  const double pos = (v - lo) / width;
  const auto full = static_cast<size_t>(pos);
  double below = 0;
  for (size_t b = 0; b < full && b < buckets(); ++b) {
    below += std::max(0.0, fractions[b]);
  }
  if (full < buckets()) {
    below += std::max(0.0, fractions[full]) * (pos - static_cast<double>(full));
  }
  return below / total;
}

double Histogram::FractionBetween(double lo, double hi, double a, double b) const {
  if (b < a) return 0;
  return std::max(0.0, FractionBelow(lo, hi, b) - FractionBelow(lo, hi, a));
}

double Histogram::BucketFraction(double lo, double hi, double v) const {
  if (empty() || hi <= lo || v < lo || v > hi) return 0;
  const double total = FractionTotal(fractions);
  if (total <= 0) return 0;
  const double width = (hi - lo) / static_cast<double>(buckets());
  size_t b = static_cast<size_t>((v - lo) / width);
  if (b >= buckets()) b = buckets() - 1;
  return std::max(0.0, fractions[b]) / total;
}

int64_t Table::RowWidthBytes() const {
  int64_t w = kRowOverheadBytes;
  for (const auto& c : columns) w += c.WidthBytes();
  return w;
}

double Table::RowsPerBlock() const {
  const double usable = static_cast<double>(kBlockBytes) * kPageFill;
  return usable / static_cast<double>(RowWidthBytes());
}

int64_t Table::DataBlocks() const {
  if (row_count <= 0) return 1;
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(static_cast<double>(row_count) / RowsPerBlock())));
}

int Table::ColumnId(const std::string& column_name) const {
  // A scan: as fast as a hash map at planning for tables of tens of columns,
  // and nothing to build when the table is added.
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].name == column_name) return static_cast<int>(c);
  }
  return -1;
}

const Column* Table::FindColumn(const std::string& column_name) const {
  const int c = ColumnId(column_name);
  return c < 0 ? nullptr : &columns[static_cast<size_t>(c)];
}

Status Database::AddTable(Table table) {
  if (table.name.empty()) return Status::InvalidArgument("table has empty name");
  if (FindTable(table.name) != nullptr) {
    return Status::AlreadyExists(StrFormat("table '%s' already exists", table.name.c_str()));
  }
  if (table.row_count < 0) {
    return Status::InvalidArgument(StrFormat("table '%s' has negative row count",
                                             table.name.c_str()));
  }
  for (const auto& key : table.clustered_key) {
    if (table.FindColumn(key) == nullptr) {
      return Status::InvalidArgument(
          StrFormat("clustered key column '%s' not in table '%s'", key.c_str(),
                    table.name.c_str()));
    }
  }
  table_keys_.emplace_back().leading_index.assign(table.columns.size(), -1);
  table_ids_.emplace(table.name, static_cast<int>(tables_.size()));
  tables_.push_back(std::move(table));
  objects_dirty_ = true;
  return Status::OK();
}

Status Database::AddIndex(Index index) {
  const int table_id = TableId(index.table_name);
  if (table_id < 0) {
    return Status::NotFound(
        StrFormat("index '%s' references unknown table '%s'", index.name.c_str(),
                  index.table_name.c_str()));
  }
  if (FindIndex(index.table_name, index.name) != nullptr) {
    return Status::AlreadyExists(
        StrFormat("index '%s' on '%s' already exists", index.name.c_str(),
                  index.table_name.c_str()));
  }
  if (index.key_columns.empty()) {
    return Status::InvalidArgument(
        StrFormat("index '%s' has no key columns", index.name.c_str()));
  }
  const Table& table = tables_[static_cast<size_t>(table_id)];
  for (const auto& key : index.key_columns) {
    if (table.FindColumn(key) == nullptr) {
      return Status::InvalidArgument(
          StrFormat("index key column '%s' not in table '%s'", key.c_str(),
                    index.table_name.c_str()));
    }
  }
  TableKeys& keys = table_keys_[static_cast<size_t>(table_id)];
  const int index_id = static_cast<int>(indexes_.size());
  keys.index_ids.push_back(index_id);
  int& leading =
      keys.leading_index[static_cast<size_t>(table.ColumnId(index.key_columns[0]))];
  if (leading < 0) leading = index_id;
  indexes_.push_back(std::move(index));
  objects_dirty_ = true;
  return Status::OK();
}

const Table* Database::FindTable(const std::string& table_name) const {
  const int id = TableId(table_name);
  return id < 0 ? nullptr : &tables_[static_cast<size_t>(id)];
}

int Database::TableId(const std::string& table_name) const {
  const auto it = table_ids_.find(table_name);
  return it == table_ids_.end() ? -1 : it->second;
}

const Index* Database::FindIndex(const std::string& table_name,
                                 const std::string& index_name) const {
  for (const auto& ix : indexes_) {
    if (ix.table_name == table_name && ix.name == index_name) return &ix;
  }
  return nullptr;
}

const Index* Database::IndexOnColumn(const std::string& table_name,
                                     const std::string& column) const {
  const int table_id = TableId(table_name);
  const int column_id =
      table_id < 0 ? -1 : tables_[static_cast<size_t>(table_id)].ColumnId(column);
  const int ix = column_id < 0 ? -1 : LeadingIndexId(table_id, column_id);
  return ix < 0 ? nullptr : &indexes_[static_cast<size_t>(ix)];
}

int64_t Database::IndexBlocks(const Index& index) const {
  const Table* t = FindTable(index.table_name);
  if (t == nullptr || t->row_count <= 0) return 1;
  int64_t entry = kRidBytes + 4;  // locator + entry overhead
  for (const auto& key : index.key_columns) {
    const Column* c = t->FindColumn(key);
    entry += c != nullptr ? c->WidthBytes() : 8;
  }
  const double usable = static_cast<double>(kBlockBytes) * kPageFill;
  const double entries_per_block = usable / static_cast<double>(entry);
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(static_cast<double>(t->row_count) / entries_per_block)));
}

void Database::RebuildObjects() const {
  objects_.clear();
  int id = 0;
  for (const auto& t : tables_) {
    DatabaseObject obj;
    obj.id = id++;
    obj.name = t.name;
    obj.kind = t.is_materialized_view ? ObjectKind::kMaterializedView
               : t.clustered_key.empty() ? ObjectKind::kHeap
                                         : ObjectKind::kClusteredIndex;
    obj.table_name = t.name;
    obj.size_blocks = t.DataBlocks();
    objects_.push_back(std::move(obj));
  }
  for (const auto& ix : indexes_) {
    DatabaseObject obj;
    obj.id = id++;
    obj.name = ix.table_name + "." + ix.name;
    obj.kind = ObjectKind::kNonClusteredIndex;
    obj.table_name = ix.table_name;
    obj.index_name = ix.name;
    obj.size_blocks = IndexBlocks(ix);
    objects_.push_back(std::move(obj));
  }
  objects_dirty_ = false;
}

const std::vector<DatabaseObject>& Database::Objects() const {
  if (objects_dirty_) RebuildObjects();
  return objects_;
}

Result<int> Database::ObjectIdOfTable(const std::string& table_name) const {
  const int id = TableId(table_name);
  if (id < 0) {
    return Status::NotFound(StrFormat("no object for table '%s'", table_name.c_str()));
  }
  return id;
}

Result<int> Database::ObjectIdOfIndex(const std::string& table_name,
                                      const std::string& index_name) const {
  const Index* ix = FindIndex(table_name, index_name);
  if (ix == nullptr) {
    return Status::NotFound(
        StrFormat("no object for index '%s.%s'", table_name.c_str(), index_name.c_str()));
  }
  return IndexObjectId(static_cast<int>(ix - indexes_.data()));
}

std::vector<int64_t> Database::ObjectSizes() const {
  const auto& objs = Objects();
  std::vector<int64_t> sizes;
  sizes.reserve(objs.size());
  for (const auto& o : objs) sizes.push_back(o.size_blocks);
  return sizes;
}

int64_t Database::TotalBlocks() const {
  int64_t total = 0;
  for (const auto& o : Objects()) total += o.size_blocks;
  return total;
}

std::string Database::ToString() const {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"object", "kind", "rows", "blocks", "MB"});
  for (const auto& o : Objects()) {
    const Table* t = FindTable(o.table_name);
    const char* kind = o.kind == ObjectKind::kHeap               ? "heap"
                       : o.kind == ObjectKind::kClusteredIndex   ? "clustered"
                       : o.kind == ObjectKind::kMaterializedView ? "matview"
                       : o.kind == ObjectKind::kTempDb           ? "tempdb"
                                                                 : "nc-index";
    rows.push_back({o.name, kind,
                    t != nullptr && o.kind != ObjectKind::kNonClusteredIndex
                        ? StrFormat("%lld", static_cast<long long>(t->row_count))
                        : "-",
                    StrFormat("%lld", static_cast<long long>(o.size_blocks)),
                    StrFormat("%.1f",
                              static_cast<double>(o.size_blocks) * kBlockBytes / 1e6)});
  }
  return StrFormat("database '%s' (%zu tables, %zu indexes)\n", name_.c_str(),
                   tables_.size(), indexes_.size()) +
         RenderTable(rows);
}

}  // namespace dblayout
