#include "storage/disk.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "common/strutil.h"

namespace dblayout {

const char* AvailabilityName(Availability a) {
  switch (a) {
    case Availability::kNone:
      return "None";
    case Availability::kParity:
      return "Parity";
    case Availability::kMirroring:
      return "Mirroring";
  }
  return "?";
}

DiskFleet DiskFleet::Uniform(int m, double capacity_gb, double seek_ms,
                             double read_mb_s, double write_mb_s) {
  std::vector<DiskDrive> drives;
  drives.reserve(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    DiskDrive d;
    d.name = StrFormat("D%d", j + 1);
    d.capacity_blocks = BytesToBlocks(static_cast<int64_t>(capacity_gb * 1e9));
    d.seek_ms = seek_ms;
    d.read_mb_s = read_mb_s;
    d.write_mb_s = write_mb_s;
    drives.push_back(std::move(d));
  }
  return DiskFleet(std::move(drives));
}

DiskFleet DiskFleet::Heterogeneous(int m, double spread, uint64_t seed,
                                   double capacity_gb, double seek_ms,
                                   double read_mb_s, double write_mb_s) {
  Rng rng(seed);
  std::vector<DiskDrive> drives;
  drives.reserve(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    // Factor in [1 - spread/2, 1 + spread/2]; fast disks tend to be fast in
    // both seek and transfer, as with real drive generations.
    const double f = rng.UniformDouble(1.0 - spread / 2, 1.0 + spread / 2);
    DiskDrive d;
    d.name = StrFormat("D%d", j + 1);
    d.capacity_blocks = BytesToBlocks(static_cast<int64_t>(capacity_gb * 1e9));
    d.seek_ms = seek_ms / f;
    d.read_mb_s = read_mb_s * f;
    d.write_mb_s = write_mb_s * f;
    drives.push_back(std::move(d));
  }
  return DiskFleet(std::move(drives));
}

Result<DiskFleet> DiskFleet::FromSpec(const std::string& text,
                                      const std::string& source) {
  DiskFleet fleet;
  int lineno = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++lineno;
    const std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    // name capacity_gb seek_ms read_mb_s write_mb_s [avail], split at white
    // space. Each number is finite, so only the range checks below remain.
    size_t pos = 0;
    DiskDrive d;
    d.name = std::string(NextField(line, &pos));
    double capacity_gb = 0;
    for (double* field : {&capacity_gb, &d.seek_ms, &d.read_mb_s, &d.write_mb_s}) {
      const std::optional<double> v = ParseDouble(NextField(line, &pos));
      if (!v || !std::isfinite(*v)) {
        return Status::ParseError(
            StrFormat("%s:%d: expected "
                      "'name capacity_gb seek_ms read_mb_s write_mb_s [avail]'",
                      source.c_str(), lineno));
      }
      *field = *v;
    }
    if (capacity_gb <= 0 || d.seek_ms < 0 || d.read_mb_s <= 0 || d.write_mb_s <= 0) {
      return Status::InvalidArgument(
          StrFormat("%s:%d: non-positive drive characteristic", source.c_str(),
                    lineno));
    }
    // The byte count must convert to int64_t: 1e10 GB is 1e19 bytes.
    const std::optional<int64_t> capacity_bytes = ToInt64(capacity_gb * 1e9);
    if (!capacity_bytes) {
      return Status::InvalidArgument(
          StrFormat("%s:%d: drive capacity %g GB is not below 2^63 bytes",
                    source.c_str(), lineno, capacity_gb));
    }
    d.capacity_blocks = BytesToBlocks(*capacity_bytes);
    // A positive capacity below one byte truncates to a drive of 0 blocks,
    // which the search could only report as over capacity.
    if (d.capacity_blocks == 0) {
      return Status::InvalidArgument(
          StrFormat("%s:%d: drive capacity %g GB is below one byte", source.c_str(),
                    lineno, capacity_gb));
    }
    if (std::string avail = ToLower(std::string(NextField(line, &pos)));
        !avail.empty()) {
      if (avail == "none") {
        d.avail = Availability::kNone;
      } else if (avail == "parity") {
        d.avail = Availability::kParity;
      } else if (avail == "mirroring") {
        d.avail = Availability::kMirroring;
      } else {
        return Status::ParseError(
            StrFormat("%s:%d: unknown availability '%s' (want none, parity, or "
                      "mirroring)",
                      source.c_str(), lineno, avail.c_str()));
      }
    }
    fleet.Add(std::move(d));
  }
  if (fleet.num_disks() == 0) {
    return Status::InvalidArgument(
        StrFormat("%s: disk spec contains no drives", source.c_str()));
  }
  return fleet;
}

int64_t DiskFleet::TotalCapacityBlocks() const {
  int64_t total = 0;
  for (const auto& d : drives_) total += d.capacity_blocks;
  return total;
}

std::vector<int> DiskFleet::ByDecreasingTransferRate() const {
  std::vector<int> order(drives_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return drives_[static_cast<size_t>(a)].read_mb_s >
           drives_[static_cast<size_t>(b)].read_mb_s;
  });
  return order;
}

std::string DiskFleet::ToString() const {
  std::string out;
  for (const auto& d : drives_) {
    out += StrFormat("%s: %.1fGB seek=%.2fms read=%.1fMB/s write=%.1fMB/s avail=%s\n",
                     d.name.c_str(), d.CapacityGb(), d.seek_ms, d.read_mb_s,
                     d.write_mb_s, AvailabilityName(d.avail));
  }
  return out;
}

}  // namespace dblayout
