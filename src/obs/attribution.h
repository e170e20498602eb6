// Cost attribution: decomposes the analytic workload cost of a layout
// (Section 5's objective, the number the advisor optimizes) into
// per-statement, per-object, and per-drive shares, plus drive-heat and
// utilization tables sampled from the two execution simulators.
//
// The decomposition is exact by construction, not a re-estimate:
//   - statement shares accumulate weight * sum(subplan costs) in the same
//     association order as CostModel::WorkloadCost, so the total is
//     bit-identical to the advisor's estimated cost;
//   - each sub-plan's cost is charged entirely to its *binding* drive (the
//     §5 max over drives), split across the objects placed there: each
//     object carries its own transfer time plus an equal 1/k share of the
//     interleaving seek term. Object and drive shares therefore sum back to
//     the total within floating-point noise (well inside
//     kLayoutFractionTolerance — the property the attribution test gates).
//
// Drive heat is a different lens on the same workload: per drive, the
// weighted transfer+seek the §5 model charges it across *all* sub-plans
// (not only where it binds — a drive can be busy yet never the bottleneck),
// plus queue-depth samples from io/disk_sim (stream concurrency) and
// io/queue_sim (per-sweep outstanding requests on the materialized layout).

#ifndef DBLAYOUT_OBS_ATTRIBUTION_H_
#define DBLAYOUT_OBS_ATTRIBUTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/disk.h"
#include "storage/layout.h"
#include "workload/analyzer.h"

namespace dblayout::obs {

class EventJournal;

struct AttributionOptions {
  /// Sample the simulators for drive heat (disk_sim stream stats and
  /// queue_sim queue depths). Costs one simulator pass per drive; off for
  /// callers that only need the exact cost decomposition.
  bool sample_queues = true;
  /// Seed for the queue simulator's scattered-access streams.
  uint64_t seed = 1;
};

struct StatementShare {
  int index = 0;  ///< index into the profile's statements
  std::string sql;
  double weight = 1.0;
  double cost_ms = 0;  ///< weighted contribution to the workload cost
  double share = 0;    ///< cost_ms / total_ms (0 when total is 0)
};

struct ObjectShare {
  int object_id = 0;
  std::string name;
  double cost_ms = 0;  ///< weighted binding-drive transfer + seek share
  double share = 0;
};

struct DriveShare {
  int drive = 0;
  std::string name;
  /// Weighted cost of the sub-plans this drive *binds* (it was the §5 max);
  /// sums to total_ms over drives.
  double bound_ms = 0;
  /// Weighted transfer+seek the model charges this drive across all
  /// sub-plans, binding or not ("heat").
  double busy_ms = 0;
  double transfer_ms = 0;
  double seek_ms = 0;
  /// busy_ms normalized by the hottest drive (1.0 = hottest, 0 = idle).
  double utilization = 0;
  /// Fraction of drive capacity used by the materialized layout.
  double capacity_used = 0;
  // --- simulator samples (AttributionOptions::sample_queues) ---
  int64_t sim_streams = 0;      ///< disk_sim concurrent streams
  double sim_service_ms = 0;    ///< disk_sim elapsed for this drive's streams
  int64_t queue_requests = 0;   ///< queue_sim requests serviced
  double queue_depth_mean = 0;  ///< queue_sim mean outstanding per sweep
  int64_t queue_depth_max = 0;
};

struct CostAttribution {
  /// Bit-identical to CostModel::WorkloadCost(profile, layout).
  double total_ms = 0;
  std::vector<StatementShare> statements;  ///< descending cost_ms
  std::vector<ObjectShare> objects;        ///< descending cost_ms
  std::vector<DriveShare> drives;          ///< drive index order
};

/// Decomposes the workload cost of `layout`. `object_names` may be empty
/// (object ids are used); fails only if queue sampling cannot materialize
/// the layout (capacity), in which case callers may retry with
/// sample_queues = false.
Result<CostAttribution> AttributeCost(const WorkloadProfile& profile,
                                      const Layout& layout,
                                      const DiskFleet& fleet,
                                      const std::vector<int64_t>& object_blocks,
                                      const std::vector<std::string>& object_names,
                                      const AttributionOptions& options = {});

/// Human-readable tables: top-k statements and objects, all drives.
std::string RenderAttributionText(const CostAttribution& a, int top_k = 10);

/// One JSON object: {"total_ms":..., "statements":[...], "objects":[...],
/// "drives":[...]}. Deterministic field order.
std::string AttributionJson(const CostAttribution& a);

/// Appends "statement"/"object"/"drive" events (and an "attribution"
/// summary event) to `journal` so run reports can render the tables.
void AppendAttributionEvents(const CostAttribution& a, EventJournal* journal,
                             int top_k = 10);

}  // namespace dblayout::obs

#endif  // DBLAYOUT_OBS_ATTRIBUTION_H_
