// Database layout: the n x m fraction matrix of Definition 1, plus validity
// checking (Definition 2), the FULL STRIPING baseline, filegroup inference,
// and the data-movement metric used by incrementality constraints.

#ifndef DBLAYOUT_STORAGE_LAYOUT_H_
#define DBLAYOUT_STORAGE_LAYOUT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/disk.h"

namespace dblayout {

/// Tolerance for the full-allocation constraint of Definition 2: a row of
/// the fraction matrix is considered fully allocated when its sum is within
/// this distance of 1, and an entry is considered non-negative when it is
/// above -kLayoutFractionTolerance. Shared by Layout::Validate and the
/// InvariantAuditor (src/analysis/) so both boundary validation and the
/// debug-build audits agree on what "valid" means.
inline constexpr double kLayoutFractionTolerance = 1e-6;

/// Safety margin on the fractional capacity checks made before a layout is
/// final (the search's initial layout and greedy phase, the evacuation
/// planner): a sliver of slack so the exact rounded validation at the end
/// cannot flip a fractional fit.
inline constexpr double kCapacityMargin = 0.999;

/// A database layout assigns each object a fraction of its blocks on each
/// disk drive: cell (i, j) is the fraction of object i placed on drive j.
/// Rows must be non-negative and sum to 1 for a valid layout.
class Layout {
 public:
  Layout() = default;
  Layout(int num_objects, int num_disks)
      : n_(num_objects), m_(num_disks),
        x_(static_cast<size_t>(num_objects) * static_cast<size_t>(num_disks), 0.0) {}

  int num_objects() const { return n_; }
  int num_disks() const { return m_; }

  double x(int i, int j) const { return x_[Idx(i, j)]; }
  void set_x(int i, int j, double v) { x_[Idx(i, j)] = v; }
  /// Object i's m fractions, contiguous.
  const double* row(int i) const { return x_.data() + Idx(i, 0); }

  /// Replaces object i's row: allocated across `disks` in proportion to each
  /// chosen drive's read transfer rate (the paper's allocation rule for both
  /// FULL STRIPING and the greedy step).
  void AssignProportional(int i, const std::vector<int>& disks, const DiskFleet& fleet);

  /// Replaces object i's row with equal fractions over `disks`.
  void AssignEqual(int i, const std::vector<int>& disks);

  /// Disk indices on which object i has a positive fraction.
  std::vector<int> DisksOf(int i) const;

  /// Number of disks with a positive fraction of object i.
  int Width(int i) const;

  /// Blocks of object i (of total size `size_blocks`) on every drive, by the
  /// largest-remainder rounding also used at materialization time.
  std::vector<int64_t> RowBlocks(int i, int64_t size_blocks) const;

  /// Exact (unrounded) block count x_ij * |R_i| used by the analytic cost
  /// model.
  double FractionalBlocks(int i, int j, int64_t size_blocks) const {
    return x(i, j) * static_cast<double>(size_blocks);
  }

  /// Fractional blocks used on every drive: the sum over objects i of
  /// FractionalBlocks(i, j, object_blocks[i]), accumulated in object order.
  std::vector<double> FractionalUsed(const std::vector<int64_t>& object_blocks) const;

  /// Blocks used on every drive by the rounded allocation: RowBlocks of
  /// every object, summed.
  std::vector<int64_t> RoundedUsed(const std::vector<int64_t>& object_blocks) const;

  /// Checks Definition 2: every row sums to 1 with non-negative entries, and
  /// no drive's capacity is exceeded by the rounded allocation.
  Status Validate(const std::vector<int64_t>& object_blocks, const DiskFleet& fleet) const;

  /// Validate's row checks alone: no entry NaN or negative, and every row
  /// summing to 1 (so every entry is finite and RowBlocks is defined).
  /// Drives are named after `fleet`'s when it is given, else by index.
  Status ValidateRows(const DiskFleet* fleet) const;

  /// Full striping: every object on every drive, fractions proportional to
  /// read transfer rate (footnote 1 of the paper).
  static Layout FullStriping(int num_objects, const DiskFleet& fleet);

  /// Blocks that must be rewritten to turn `from` into `to`:
  /// sum_i sum_j max(0, to.x(i,j) - from.x(i,j)) * |R_i|.
  static double DataMovementBlocks(const Layout& from, const Layout& to,
                                   const std::vector<int64_t>& object_blocks);

  /// The movement loop: DataMovementBlocks toward the layout whose row i is
  /// `to_row(i)` (a pointer to its m fractions), so a candidate that
  /// replaces some rows is checked without being built.
  template <typename RowOf>
  static double MovementBlocks(const Layout& from, const RowOf& to_row,
                               const std::vector<int64_t>& object_blocks) {
    double moved = 0;
    for (int i = 0; i < from.n_; ++i) {
      const double* to = to_row(i);
      for (int j = 0; j < from.m_; ++j) {
        const double delta = to[j] - from.x(i, j);
        if (delta > 0) {
          moved += delta * static_cast<double>(object_blocks[static_cast<size_t>(i)]);
        }
      }
    }
    return moved;
  }

  /// True if both layouts place every object on the same disk sets with
  /// fractions equal within `eps`.
  bool ApproxEquals(const Layout& other, double eps = 1e-9) const;

  /// Human-readable rendering; `object_names` may be empty (indices used).
  std::string ToString(const std::vector<std::string>& object_names,
                       const DiskFleet& fleet) const;

  /// CSV serialization: header `object,<disk names...>`, one row per object
  /// with its fraction on each drive. Round-trips through FromCsv.
  std::string ToCsv(const std::vector<std::string>& object_names,
                    const DiskFleet& fleet) const;

  /// Parses a CSV produced by ToCsv (or written by hand). Object rows may
  /// appear in any order but must cover exactly `object_names`; the header's
  /// drive names must match `fleet` in order.
  static Result<Layout> FromCsv(const std::string& text,
                                const std::vector<std::string>& object_names,
                                const DiskFleet& fleet);

 private:
  size_t Idx(int i, int j) const {
    return static_cast<size_t>(i) * static_cast<size_t>(m_) + static_cast<size_t>(j);
  }
  int n_ = 0;
  int m_ = 0;
  std::vector<double> x_;
};

/// A filegroup: the disk-set signature shared by one or more objects.
/// Inferred from a layout (objects on identical disk sets form a filegroup),
/// mirroring how SQL Server filegroups / Oracle tablespaces would realize it.
struct Filegroup {
  std::vector<int> disks;    ///< disk indices, ascending
  std::vector<int> objects;  ///< object indices assigned to this filegroup
};

/// Groups objects of `layout` into filegroups by identical disk set.
std::vector<Filegroup> InferFilegroups(const Layout& layout);

}  // namespace dblayout

#endif  // DBLAYOUT_STORAGE_LAYOUT_H_
