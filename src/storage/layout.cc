#include "storage/layout.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.h"
#include "common/strutil.h"

namespace dblayout {

namespace {

/// Largest-remainder apportionment of `total` blocks over non-negative
/// fractions (which sum to ~1): returns integer counts summing to `total`.
std::vector<int64_t> Apportion(const std::vector<double>& fractions, int64_t total) {
  DBLAYOUT_DCHECK_GE(total, 0);
  const size_t m = fractions.size();
  std::vector<int64_t> out(m, 0);
  std::vector<std::pair<double, size_t>> rem;
  rem.reserve(m);
  int64_t assigned = 0;
  for (size_t j = 0; j < m; ++j) {
    const double exact = fractions[j] * static_cast<double>(total);
    out[j] = static_cast<int64_t>(std::floor(exact + 1e-9));
    assigned += out[j];
    rem.emplace_back(exact - static_cast<double>(out[j]), j);
  }
  std::stable_sort(rem.begin(), rem.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  for (size_t r = 0; assigned < total && r < rem.size(); ++r) {
    // Only disks that hold a positive fraction may receive remainder blocks.
    if (fractions[rem[r].second] > 0) {
      ++out[rem[r].second];
      ++assigned;
    }
  }
  // Degenerate rounding leftovers go to the largest-fraction disk.
  if (assigned < total) {
    size_t jmax = 0;
    for (size_t j = 1; j < m; ++j) {
      if (fractions[j] > fractions[jmax]) jmax = j;
    }
    out[jmax] += total - assigned;
    assigned = total;
  }
  // Postcondition: the apportionment is exact — every block lands somewhere.
  DBLAYOUT_DCHECK_EQ(assigned, total);
  return out;
}

}  // namespace

void Layout::AssignProportional(int i, const std::vector<int>& disks,
                                const DiskFleet& fleet) {
  DBLAYOUT_CHECK(!disks.empty());
  double total_rate = 0;
  for (int j : disks) {
    DBLAYOUT_DCHECK(j >= 0 && j < m_);
    total_rate += fleet.disk(j).read_mb_s;
  }
  DBLAYOUT_DCHECK_GT(total_rate, 0);
  for (int j = 0; j < m_; ++j) set_x(i, j, 0.0);
  double row = 0;
  for (int j : disks) {
    set_x(i, j, fleet.disk(j).read_mb_s / total_rate);
    row += x(i, j);
  }
  DBLAYOUT_DCHECK_NEAR(row, 1.0, kLayoutFractionTolerance);
}

void Layout::AssignEqual(int i, const std::vector<int>& disks) {
  DBLAYOUT_CHECK(!disks.empty());
  for (int j = 0; j < m_; ++j) set_x(i, j, 0.0);
  for (int j : disks) {
    DBLAYOUT_DCHECK(j >= 0 && j < m_);
    set_x(i, j, 1.0 / static_cast<double>(disks.size()));
  }
}

std::vector<int> Layout::DisksOf(int i) const {
  std::vector<int> out;
  for (int j = 0; j < m_; ++j) {
    if (x(i, j) > 0) out.push_back(j);
  }
  return out;
}

int Layout::Width(int i) const {
  int w = 0;
  for (int j = 0; j < m_; ++j) {
    if (x(i, j) > 0) ++w;
  }
  return w;
}

std::vector<int64_t> Layout::RowBlocks(int i, int64_t size_blocks) const {
  const auto row = x_.begin() + static_cast<std::ptrdiff_t>(Idx(i, 0));
  return Apportion(std::vector<double>(row, row + m_), size_blocks);
}

std::vector<double> Layout::FractionalUsed(
    const std::vector<int64_t>& object_blocks) const {
  std::vector<double> used(static_cast<size_t>(m_), 0.0);
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < m_; ++j) {
      used[static_cast<size_t>(j)] +=
          FractionalBlocks(i, j, object_blocks[static_cast<size_t>(i)]);
    }
  }
  return used;
}

std::vector<int64_t> Layout::RoundedUsed(const std::vector<int64_t>& object_blocks) const {
  std::vector<int64_t> used(static_cast<size_t>(m_), 0);
  for (int i = 0; i < n_; ++i) {
    const std::vector<int64_t> row = RowBlocks(i, object_blocks[static_cast<size_t>(i)]);
    for (size_t j = 0; j < row.size(); ++j) used[j] += row[j];
  }
  return used;
}

Status Layout::Validate(const std::vector<int64_t>& object_blocks,
                        const DiskFleet& fleet) const {
  if (static_cast<int>(object_blocks.size()) != n_) {
    return Status::InvalidArgument(
        StrFormat("layout has %d objects but %zu sizes given", n_,
                  object_blocks.size()));
  }
  if (fleet.num_disks() != m_) {
    return Status::InvalidArgument(
        StrFormat("layout has %d disks but fleet has %d", m_, fleet.num_disks()));
  }
  DBLAYOUT_RETURN_NOT_OK(ValidateRows(&fleet));
  // The first drive over capacity is named.
  const std::vector<int64_t> used = RoundedUsed(object_blocks);
  for (int j = 0; j < m_; ++j) {
    if (used[static_cast<size_t>(j)] > fleet.disk(j).capacity_blocks) {
      return Status::CapacityExceeded(StrFormat(
          "layout invalid: disk '%s' holds %lld blocks, capacity %lld",
          fleet.disk(j).name.c_str(),
          static_cast<long long>(used[static_cast<size_t>(j)]),
          static_cast<long long>(fleet.disk(j).capacity_blocks)));
    }
  }
  return Status::OK();
}

Status Layout::ValidateRows(const DiskFleet* fleet) const {
  auto disk = [fleet](int j) {
    return fleet != nullptr ? "'" + fleet->disk(j).name + "'" : std::to_string(j);
  };
  for (int i = 0; i < n_; ++i) {
    double row = 0;
    for (int j = 0; j < m_; ++j) {
      const double v = x(i, j);
      // NaN compares false against both bounds below, so it is named here.
      if (std::isnan(v)) {
        return Status::InvalidArgument(StrFormat(
            "layout invalid: object %d has fraction NaN on disk %s", i, disk(j).c_str()));
      }
      if (v < -kLayoutFractionTolerance) {
        return Status::InvalidArgument(
            StrFormat("layout invalid: object %d has negative fraction %g on disk %s", i, v,
                      disk(j).c_str()));
      }
      row += v;
    }
    if (std::abs(row - 1.0) > kLayoutFractionTolerance) {
      return Status::InvalidArgument(StrFormat(
          "layout invalid: object %d is allocated fraction %.9g != 1 "
          "(tolerance %g)",
          i, row, kLayoutFractionTolerance));
    }
  }
  return Status::OK();
}

Layout Layout::FullStriping(int num_objects, const DiskFleet& fleet) {
  Layout l(num_objects, fleet.num_disks());
  std::vector<int> all(static_cast<size_t>(fleet.num_disks()));
  for (int j = 0; j < fleet.num_disks(); ++j) all[static_cast<size_t>(j)] = j;
  for (int i = 0; i < num_objects; ++i) l.AssignProportional(i, all, fleet);
  return l;
}

double Layout::DataMovementBlocks(const Layout& from, const Layout& to,
                                  const std::vector<int64_t>& object_blocks) {
  DBLAYOUT_CHECK(from.n_ == to.n_ && from.m_ == to.m_);
  return MovementBlocks(from, [&to](int i) { return to.row(i); }, object_blocks);
}

bool Layout::ApproxEquals(const Layout& other, double eps) const {
  if (n_ != other.n_ || m_ != other.m_) return false;
  for (size_t k = 0; k < x_.size(); ++k) {
    if (std::abs(x_[k] - other.x_[k]) > eps) return false;
  }
  return true;
}

std::string Layout::ToString(const std::vector<std::string>& object_names,
                             const DiskFleet& fleet) const {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header = {"object"};
  for (int j = 0; j < m_; ++j) header.push_back(fleet.disk(j).name);
  rows.push_back(std::move(header));
  for (int i = 0; i < n_; ++i) {
    std::vector<std::string> row;
    row.push_back(i < static_cast<int>(object_names.size())
                      ? object_names[static_cast<size_t>(i)]
                      : StrFormat("R%d", i + 1));
    for (int j = 0; j < m_; ++j) {
      row.push_back(x(i, j) > 0 ? StrFormat("%.3f", x(i, j)) : ".");
    }
    rows.push_back(std::move(row));
  }
  return RenderTable(rows);
}

std::string Layout::ToCsv(const std::vector<std::string>& object_names,
                          const DiskFleet& fleet) const {
  std::string out = "object";
  for (int j = 0; j < m_; ++j) {
    out += ',';
    out += fleet.disk(j).name;
  }
  out += '\n';
  for (int i = 0; i < n_; ++i) {
    if (i < static_cast<int>(object_names.size())) {
      out += object_names[static_cast<size_t>(i)];
    } else {
      out += 'R';
      out += std::to_string(i + 1);
    }
    for (int j = 0; j < m_; ++j) {
      out += ',';
      AppendDouble(&out, x(i, j), 17);
    }
    out += '\n';
  }
  return out;
}

Result<Layout> Layout::FromCsv(const std::string& text,
                               const std::vector<std::string>& object_names,
                               const DiskFleet& fleet) {
  const std::vector<std::string> lines = Split(text, '\n');
  size_t row = 0;
  while (row < lines.size() && Trim(lines[row]).empty()) ++row;
  if (row >= lines.size()) return Status::ParseError("layout csv: empty");
  const std::vector<std::string> header = Split(Trim(lines[row]), ',');
  if (static_cast<int>(header.size()) != fleet.num_disks() + 1) {
    return Status::ParseError(
        StrFormat("layout csv: header has %zu columns, expected %d",
                  header.size(), fleet.num_disks() + 1));
  }
  for (int j = 0; j < fleet.num_disks(); ++j) {
    if (Trim(header[static_cast<size_t>(j + 1)]) != fleet.disk(j).name) {
      return Status::ParseError(
          StrFormat("layout csv: header drive '%s' does not match fleet drive '%s'",
                    header[static_cast<size_t>(j + 1)].c_str(),
                    fleet.disk(j).name.c_str()));
    }
  }
  Layout layout(static_cast<int>(object_names.size()), fleet.num_disks());
  std::vector<bool> seen(object_names.size(), false);
  for (++row; row < lines.size(); ++row) {
    const std::string line = Trim(lines[row]);
    if (line.empty()) continue;
    const std::vector<std::string> cells = Split(line, ',');
    if (static_cast<int>(cells.size()) != fleet.num_disks() + 1) {
      return Status::ParseError(
          StrFormat("layout csv: row '%s' has %zu columns", line.c_str(),
                    cells.size()));
    }
    const std::string name = Trim(cells[0]);
    int obj = -1;
    for (size_t i = 0; i < object_names.size(); ++i) {
      if (object_names[i] == name) {
        obj = static_cast<int>(i);
        break;
      }
    }
    if (obj < 0) {
      return Status::NotFound(
          StrFormat("layout csv: unknown object '%s'", name.c_str()));
    }
    if (seen[static_cast<size_t>(obj)]) {
      return Status::InvalidArgument(
          StrFormat("layout csv: duplicate object '%s'", name.c_str()));
    }
    seen[static_cast<size_t>(obj)] = true;
    for (int j = 0; j < fleet.num_disks(); ++j) {
      const std::string cell = Trim(cells[static_cast<size_t>(j + 1)]);
      const std::optional<double> v = ParseDouble(cell);
      if (!v) {
        return Status::ParseError(
            StrFormat("layout csv: bad fraction '%s'", cell.c_str()));
      }
      layout.set_x(obj, j, *v);
    }
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    if (!seen[i]) {
      return Status::InvalidArgument(
          StrFormat("layout csv: missing object '%s'", object_names[i].c_str()));
    }
  }
  return layout;
}

std::vector<Filegroup> InferFilegroups(const Layout& layout) {
  std::map<std::vector<int>, std::vector<int>> groups;
  for (int i = 0; i < layout.num_objects(); ++i) {
    groups[layout.DisksOf(i)].push_back(i);
  }
  std::vector<Filegroup> out;
  out.reserve(groups.size());
  for (auto& [disks, objects] : groups) {
    out.push_back(Filegroup{disks, objects});
  }
  return out;
}

}  // namespace dblayout
