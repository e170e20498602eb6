// Fault injection for the disk fleet (failure-resilience subsystem). A
// FaultPlan declares hard failures and degraded-mode behavior (scaled
// transfer rate, inflated seek time, transient-error rate) per drive;
// ApplyFaultPlan resolves it against a fleet into a *degraded fleet* whose
// per-block service times are never faster than the healthy one, so every
// cost computed on it is a monotone upper bound of the healthy cost. The
// degraded fleet feeds the unchanged Section 5 cost model and the I/O
// simulators; transient-error rates feed RetryPolicy (src/io/fault_model.h).

#ifndef DBLAYOUT_RESILIENCE_FAULT_H_
#define DBLAYOUT_RESILIENCE_FAULT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "storage/disk.h"

namespace dblayout {

// How a *failed* drive keeps serving (or not) by RAID level. Multipliers
// are applied to per-block service times, so every value >= 1 preserves
// the degraded >= healthy cost monotonicity.

/// RAID 1 with one mirror gone: reads lose the two-way spread, so the
/// surviving copy serves them at half rate.
inline constexpr double kMirrorDegradedSlowdown = 2.0;
/// RAID 5 with one member gone: reads of the failed member's stripes must
/// be rebuilt from the k-1 survivors (read-amplification), writes lose the
/// parity shortcut.
inline constexpr double kParityRebuildAmplification = 2.0;
/// Non-redundant drive gone: the data is *lost*; accesses stand in for a
/// restore-from-backup path, costed at this slowdown so the scenario stays
/// finite and comparable (lost objects are also reported explicitly).
inline constexpr double kLostRestorePenalty = 8.0;
static_assert(kMirrorDegradedSlowdown >= 1.0 && kParityRebuildAmplification >= 1.0 &&
                  kLostRestorePenalty >= 1.0,
              "degraded service is never faster than healthy");

/// Options of EvaluateResilience.
struct ResilienceOptions {
  /// Threads used to cost the independent single-drive failure scenarios of
  /// EvaluateResilience (shared pool, fixed result slots, sequential
  /// aggregation — the report is bit-identical for any value). <= 1 runs in
  /// the calling thread.
  int num_threads = 1;
};

/// Fault state of one drive, by name.
struct DriveFault {
  std::string drive_name;
  /// Hard failure: the drive's data plane is gone; how it keeps serving (or
  /// whether its objects are lost) depends on the drive's RAID level.
  bool failed = false;
  /// Degraded mode: remaining transfer rate as a fraction of healthy (0 <
  /// scale <= 1; 0.5 = half rate).
  double transfer_scale = 1.0;
  /// Degraded mode: seek-time inflation factor (>= 1).
  double seek_scale = 1.0;
  /// Probability a request on this drive needs a retry (see RetryPolicy).
  double transient_error_rate = 0.0;
};

/// A set of per-drive faults, parseable from a fault-plan file:
///   # comment
///   <drive> fail
///   <drive> degraded [transfer=SCALE] [seek=SCALE] [errors=RATE]
/// One drive per line; '#' comments and blank lines ignored.
struct FaultPlan {
  std::vector<DriveFault> faults;

  /// Parses the file format above. Errors carry `source:line:` context.
  static Result<FaultPlan> FromSpec(const std::string& text,
                                    const std::string& source = "fault-plan");
};

/// A fault plan resolved against a concrete fleet.
struct ResolvedFaultPlan {
  /// Per-drive hard-failure flag (index = drive index).
  std::vector<bool> failed;
  /// Per-drive transient-error rate.
  std::vector<double> transient_rate;
  /// Largest transient rate over the fleet (drives the RetryPolicy handed to
  /// whole-fleet simulations).
  double max_transient_rate = 0.0;
  /// The fleet with every fault applied to its drive characteristics.
  DiskFleet degraded_fleet;

  bool AnyFailed() const {
    for (bool f : failed) {
      if (f) return true;
    }
    return false;
  }
};

/// Resolves `plan` against `fleet` (drive names case-insensitive). Fails on
/// unknown or duplicate drive names and on out-of-range or non-finite
/// scales/rates.
Result<ResolvedFaultPlan> ApplyFaultPlan(const DiskFleet& fleet, const FaultPlan& plan);

}  // namespace dblayout

#endif  // DBLAYOUT_RESILIENCE_FAULT_H_
