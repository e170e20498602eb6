// Disk-drive model (Section 2.1). Each drive is a single addressable entity
// (possibly itself a RAID array) characterized by capacity, average seek
// time, average read/write transfer rates, and an availability property.

#ifndef DBLAYOUT_STORAGE_DISK_H_
#define DBLAYOUT_STORAGE_DISK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/units.h"

namespace dblayout {

/// Availability property of a disk drive (paper: {None, Parity, Mirroring}).
/// RAID 0 / standalone -> kNone, RAID 5 -> kParity, RAID 1 -> kMirroring.
enum class Availability { kNone = 0, kParity, kMirroring };

const char* AvailabilityName(Availability a);

/// Characteristics of one disk drive.
struct DiskDrive {
  std::string name;
  int64_t capacity_blocks = 0;   ///< capacity in allocation blocks
  double seek_ms = 9.0;          ///< average seek time (arm + rotation), ms
  double read_mb_s = 40.0;       ///< average sequential read rate, MB/s
  double write_mb_s = 32.0;      ///< average sequential write rate, MB/s
  Availability avail = Availability::kNone;

  /// Milliseconds to transfer one block when reading.
  double ReadMsPerBlock() const { return MsPerBlock(read_mb_s); }
  /// Service-time multiplier a write suffers from the redundancy scheme:
  /// RAID 5 pays the small-write read-modify-write penalty (~4 I/Os per
  /// logical write), RAID 1 writes both mirrors (~2x).
  double WritePenalty() const {
    switch (avail) {
      case Availability::kNone:
        return 1.0;
      case Availability::kParity:
        return 4.0;
      case Availability::kMirroring:
        return 2.0;
    }
    return 1.0;
  }
  /// Milliseconds to service one written block, including the redundancy
  /// penalty.
  double WriteMsPerBlock() const { return MsPerBlock(write_mb_s) * WritePenalty(); }
  /// Milliseconds to service one block of an access: a read, a write, or a
  /// read-modify-write (read plus write back). The one choice of rate the
  /// §5 cost model and both I/O simulators make.
  double AccessMsPerBlock(bool write, bool read_modify_write) const {
    if (read_modify_write) return ReadMsPerBlock() + WriteMsPerBlock();
    return write ? WriteMsPerBlock() : ReadMsPerBlock();
  }
  /// Capacity in gigabytes (decimal GB).
  double CapacityGb() const {
    return static_cast<double>(capacity_blocks) * kBlockBytes / 1e9;
  }
};

/// A set of disk drives available for laying out the database.
class DiskFleet {
 public:
  DiskFleet() = default;
  explicit DiskFleet(std::vector<DiskDrive> drives) : drives_(std::move(drives)) {}

  /// m identical drives. Mirrors the paper's "identical disks" examples.
  static DiskFleet Uniform(int m, double capacity_gb = 6.0, double seek_ms = 9.0,
                           double read_mb_s = 40.0, double write_mb_s = 32.0);

  /// m drives whose seek times and transfer rates differ by up to `spread`
  /// (fraction, e.g. 0.3 for the paper's ~30% fastest-to-slowest gap),
  /// deterministically derived from `seed`.
  static DiskFleet Heterogeneous(int m, double spread, uint64_t seed,
                                 double capacity_gb = 6.0, double seek_ms = 9.0,
                                 double read_mb_s = 40.0, double write_mb_s = 32.0);

  /// Parses a disk-specification file: one drive per line,
  /// `name capacity_gb seek_ms read_mb_s write_mb_s [none|parity|mirroring]`,
  /// '#' comments and blank lines ignored. Parse and range errors carry
  /// `source:line:` context (pass the file path as `source`).
  static Result<DiskFleet> FromSpec(const std::string& text,
                                    const std::string& source = "disks");

  int num_disks() const { return static_cast<int>(drives_.size()); }
  const DiskDrive& disk(int j) const { return drives_[static_cast<size_t>(j)]; }
  DiskDrive& disk(int j) { return drives_[static_cast<size_t>(j)]; }
  const std::vector<DiskDrive>& drives() const { return drives_; }
  void Add(DiskDrive d) { drives_.push_back(std::move(d)); }

  int64_t TotalCapacityBlocks() const;

  /// Disk indices ordered by decreasing read transfer rate (ties by index);
  /// "fastest first", the order in which TS-GREEDY assigns partitions.
  std::vector<int> ByDecreasingTransferRate() const;

  std::string ToString() const;

 private:
  std::vector<DiskDrive> drives_;
};

}  // namespace dblayout

#endif  // DBLAYOUT_STORAGE_DISK_H_
