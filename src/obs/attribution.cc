#include "obs/attribution.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/strutil.h"
#include "io/disk_sim.h"
#include "io/queue_sim.h"
#include "layout/cost_model.h"
#include "obs/journal.h"
#include "storage/block_map.h"

namespace dblayout::obs {

namespace {

/// Blocks cap per sampled queue-sim stream: queue-depth and service-mix
/// sampling does not need every block of a TPC-H scale-1 scan, so streams
/// are truncated (ratios preserved) to bound the request walk.
constexpr int64_t kQueueSampleBlocks = 4096;

std::string TruncateSql(const std::string& sql, size_t max_len = 60) {
  std::string flat;
  flat.reserve(std::min(sql.size(), max_len));
  for (char c : sql) {
    flat.push_back(c == '\n' || c == '\t' ? ' ' : c);
    if (flat.size() >= max_len) {
      flat += "...";
      break;
    }
  }
  return flat;
}

}  // namespace

Result<CostAttribution> AttributeCost(const WorkloadProfile& profile,
                                      const Layout& layout,
                                      const DiskFleet& fleet,
                                      const std::vector<int64_t>& object_blocks,
                                      const std::vector<std::string>& object_names,
                                      const AttributionOptions& options) {
  CostAttribution a;
  const int m = fleet.num_disks();
  a.drives.resize(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    a.drives[static_cast<size_t>(j)].drive = j;
    a.drives[static_cast<size_t>(j)].name = fleet.disk(j).name;
  }
  std::vector<double> object_cost(profile.num_objects, 0.0);

  // Statement shares accumulate in the exact association order of
  // CostModel::WorkloadCost (per statement: sum sub-plan maxima, then scale
  // by weight; totals sum per statement), so total_ms is bit-identical to
  // the advisor's estimate — the DCHECK below re-proves it in debug builds.
  for (size_t si = 0; si < profile.statements.size(); ++si) {
    const StatementProfile& s = profile.statements[si];
    double statement_cost = 0;
    for (const SubplanAccess& sp : s.subplans) {
      // The §5 max over drives, as CostModel::SubplanCost takes it (the
      // same terms, the same strict `>`), charged to the binding drive.
      double cost = 0;
      int binding = -1;
      DriveTerm bound;
      for (int j = 0; j < m; ++j) {
        const DriveTerm t = SubplanDriveTerm(sp, layout, j, fleet.disk(j));
        DriveShare& dr = a.drives[static_cast<size_t>(j)];
        dr.transfer_ms += s.weight * t.transfer;
        dr.seek_ms += s.weight * t.seek;
        if (t.transfer + t.seek > cost) {
          cost = t.transfer + t.seek;
          binding = j;
          bound = t;
        }
      }
      statement_cost += cost;
      if (binding < 0) continue;
      a.drives[static_cast<size_t>(binding)].bound_ms += s.weight * cost;
      // Object split on the binding drive: own transfer + equal share of
      // the k-way interleaving seek.
      const double seek_share = bound.seek / static_cast<double>(bound.k);
      const auto charge_object = [&](size_t ai, double transfer) {
        const int obj = sp.accesses[ai].object_id;
        if (obj < 0 || static_cast<size_t>(obj) >= object_cost.size()) return;
        object_cost[static_cast<size_t>(obj)] += s.weight * (transfer + seek_share);
      };
      SubplanDriveTerm(sp, layout, binding, fleet.disk(binding), charge_object);
    }
    const double weighted = s.weight * statement_cost;
    a.total_ms += weighted;
    StatementShare share;
    share.index = static_cast<int>(si);
    share.sql = TruncateSql(s.sql);
    share.weight = s.weight;
    share.cost_ms = weighted;
    a.statements.push_back(std::move(share));
  }

  // Parity audit: the decomposition reads the model's drive term and must
  // reproduce the §5 oracle exactly (same max, same association order).
#if DBLAYOUT_DCHECK_IS_ON()
  {
    const CostModel audit_model(fleet);
    const double oracle = audit_model.WorkloadCost(profile, layout);
    DBLAYOUT_DCHECK(a.total_ms == oracle);
  }
#endif

  for (StatementShare& s : a.statements) {
    s.share = a.total_ms > 0 ? s.cost_ms / a.total_ms : 0;
  }
  for (size_t i = 0; i < object_cost.size(); ++i) {
    if (object_cost[i] <= 0) continue;
    ObjectShare o;
    o.object_id = static_cast<int>(i);
    o.name = i < object_names.size() ? object_names[i]
                                     : StrFormat("object_%zu", i);
    o.cost_ms = object_cost[i];
    o.share = a.total_ms > 0 ? o.cost_ms / a.total_ms : 0;
    a.objects.push_back(std::move(o));
  }

  double max_busy = 0;
  for (DriveShare& d : a.drives) {
    d.busy_ms = d.transfer_ms + d.seek_ms;
    max_busy = std::max(max_busy, d.busy_ms);
  }
  for (DriveShare& d : a.drives) {
    d.utilization = max_busy > 0 ? d.busy_ms / max_busy : 0;
  }

  // Stable heavy-hitters-first ordering; ties broken by index so the tables
  // (and the journal events derived from them) are deterministic.
  std::stable_sort(a.statements.begin(), a.statements.end(),
                   [](const StatementShare& x, const StatementShare& y) {
                     return x.cost_ms > y.cost_ms;
                   });
  std::stable_sort(a.objects.begin(), a.objects.end(),
                   [](const ObjectShare& x, const ObjectShare& y) {
                     return x.cost_ms > y.cost_ms;
                   });

  if (options.sample_queues && m > 0) {
    // Drive heat under the execution simulators. disk_sim sees the whole
    // workload's streams per drive (concurrency = co-active streams);
    // queue_sim walks the materialized extents with capped block counts —
    // queue depth and service mix are ratio-level signals, so truncation
    // (preserving relative sizes) keeps sampling cheap at any scale.
    auto map = BlockMap::Materialize(layout, object_blocks, fleet);
    DBLAYOUT_RETURN_NOT_OK(map.status());
    std::vector<std::vector<DiskStream>> disk_streams(
        static_cast<size_t>(m));
    for (const StatementProfile& s : profile.statements) {
      for (const SubplanAccess& sp : s.subplans) {
        for (const ObjectAccess& acc : sp.accesses) {
          for (int j = 0; j < m; ++j) {
            const double frac = layout.x(acc.object_id, j);
            if (frac <= 0) continue;
            DiskStream ds;
            ds.blocks = static_cast<int64_t>(
                std::llround(frac * acc.blocks));
            if (ds.blocks <= 0) ds.blocks = 1;
            ds.random = acc.random;
            ds.write = acc.is_write;
            ds.rmw = acc.read_modify_write;
            disk_streams[static_cast<size_t>(j)].push_back(ds);
          }
        }
      }
    }
    uint64_t stream_seed = options.seed | 1;
    for (int j = 0; j < m; ++j) {
      DriveShare& dr = a.drives[static_cast<size_t>(j)];
      const int64_t capacity = fleet.disk(j).capacity_blocks;
      dr.capacity_used =
          capacity > 0 ? static_cast<double>(map->UsedOnDisk(j)) /
                             static_cast<double>(capacity)
                       : 0;
      DiskSimStats ds_stats;
      dr.sim_service_ms = SimulateDiskStreams(
          fleet.disk(j), disk_streams[static_cast<size_t>(j)], SimOptions{},
          &ds_stats);
      dr.sim_streams = ds_stats.streams;

      // Queue-sim sample: one capped stream per extent on this drive.
      std::vector<QueueStream> qstreams;
      for (int i = 0; i < static_cast<int>(profile.num_objects); ++i) {
        if (static_cast<size_t>(i) >= object_blocks.size()) break;
        for (const ObjectExtent& ext : map->ExtentsOf(i)) {
          if (ext.disk != j || ext.num_blocks <= 0) continue;
          QueueStream qs;
          qs.extent = ext;
          qs.blocks = std::min(ext.num_blocks, kQueueSampleBlocks);
          qs.seed = stream_seed;
          stream_seed = stream_seed * 6364136223846793005ull + 1442695040888963407ull;
          qstreams.push_back(qs);
        }
      }
      QueueSimStats q_stats;
      SimulateQueueDisk(fleet.disk(j), qstreams, QueueSimOptions{}, &q_stats);
      dr.queue_requests = q_stats.requests;
      dr.queue_depth_mean = q_stats.queue_depth_mean;
      dr.queue_depth_max = q_stats.queue_depth_max;
    }
  }

  return a;
}

std::string RenderAttributionText(const CostAttribution& a, int top_k) {
  std::string out;
  out += StrFormat("cost attribution: total %.3f ms\n", a.total_ms);
  out += "  statements (top):\n";
  int shown = 0;
  for (const StatementShare& s : a.statements) {
    if (shown++ >= top_k) break;
    out += StrFormat("    %5.1f%%  %10.3f ms  w=%-6g %s\n", s.share * 100,
                     s.cost_ms, s.weight, s.sql.c_str());
  }
  out += "  objects (top):\n";
  shown = 0;
  for (const ObjectShare& o : a.objects) {
    if (shown++ >= top_k) break;
    out += StrFormat("    %5.1f%%  %10.3f ms  %s\n", o.share * 100, o.cost_ms,
                     o.name.c_str());
  }
  out += "  drives:\n";
  for (const DriveShare& d : a.drives) {
    out += StrFormat(
        "    %-10s bound %10.3f ms  busy %10.3f ms (xfer %.3f, seek %.3f)  "
        "util %4.0f%%  cap %4.1f%%",
        d.name.c_str(), d.bound_ms, d.busy_ms, d.transfer_ms, d.seek_ms,
        d.utilization * 100, d.capacity_used * 100);
    if (d.queue_requests > 0 || d.sim_streams > 0) {
      out += StrFormat("  qdepth mean %.1f max %lld (%lld reqs, %lld streams)",
                       d.queue_depth_mean,
                       static_cast<long long>(d.queue_depth_max),
                       static_cast<long long>(d.queue_requests),
                       static_cast<long long>(d.sim_streams));
    }
    out += "\n";
  }
  return out;
}

std::string AttributionJson(const CostAttribution& a) {
  std::string out = "{\"total_ms\":" + JsonDouble(a.total_ms);
  out += ",\"statements\":[";
  for (size_t i = 0; i < a.statements.size(); ++i) {
    const StatementShare& s = a.statements[i];
    if (i) out.push_back(',');
    out += "{\"index\":" + JsonInt(s.index) + ",\"sql\":" + JsonString(s.sql) +
           ",\"weight\":" + JsonDouble(s.weight) +
           ",\"cost_ms\":" + JsonDouble(s.cost_ms) +
           ",\"share\":" + JsonDouble(s.share) + "}";
  }
  out += "],\"objects\":[";
  for (size_t i = 0; i < a.objects.size(); ++i) {
    const ObjectShare& o = a.objects[i];
    if (i) out.push_back(',');
    out += "{\"id\":" + JsonInt(o.object_id) + ",\"name\":" + JsonString(o.name) +
           ",\"cost_ms\":" + JsonDouble(o.cost_ms) +
           ",\"share\":" + JsonDouble(o.share) + "}";
  }
  out += "],\"drives\":[";
  for (size_t i = 0; i < a.drives.size(); ++i) {
    const DriveShare& d = a.drives[i];
    if (i) out.push_back(',');
    out += "{\"drive\":" + JsonInt(d.drive) + ",\"name\":" + JsonString(d.name) +
           ",\"bound_ms\":" + JsonDouble(d.bound_ms) +
           ",\"busy_ms\":" + JsonDouble(d.busy_ms) +
           ",\"transfer_ms\":" + JsonDouble(d.transfer_ms) +
           ",\"seek_ms\":" + JsonDouble(d.seek_ms) +
           ",\"utilization\":" + JsonDouble(d.utilization) +
           ",\"capacity_used\":" + JsonDouble(d.capacity_used) +
           ",\"sim_streams\":" + JsonInt(d.sim_streams) +
           ",\"sim_service_ms\":" + JsonDouble(d.sim_service_ms) +
           ",\"queue_requests\":" + JsonInt(d.queue_requests) +
           ",\"queue_depth_mean\":" + JsonDouble(d.queue_depth_mean) +
           ",\"queue_depth_max\":" + JsonInt(d.queue_depth_max) + "}";
  }
  out += "]}";
  return out;
}

void AppendAttributionEvents(const CostAttribution& a, EventJournal* journal,
                             int top_k) {
  if (journal == nullptr) return;
  journal->Append("attribution",
                  {{"total_ms", JsonDouble(a.total_ms)},
                   {"statements", JsonInt(static_cast<int64_t>(a.statements.size()))},
                   {"objects", JsonInt(static_cast<int64_t>(a.objects.size()))},
                   {"drives", JsonInt(static_cast<int64_t>(a.drives.size()))}});
  int shown = 0;
  for (const StatementShare& s : a.statements) {
    if (shown++ >= top_k) break;
    journal->Append("statement", {{"index", JsonInt(s.index)},
                                  {"sql", JsonString(s.sql)},
                                  {"weight", JsonDouble(s.weight)},
                                  {"cost_ms", JsonDouble(s.cost_ms)},
                                  {"share", JsonDouble(s.share)}});
  }
  shown = 0;
  for (const ObjectShare& o : a.objects) {
    if (shown++ >= top_k) break;
    journal->Append("object", {{"id", JsonInt(o.object_id)},
                               {"name", JsonString(o.name)},
                               {"cost_ms", JsonDouble(o.cost_ms)},
                               {"share", JsonDouble(o.share)}});
  }
  for (const DriveShare& d : a.drives) {
    journal->Append("drive",
                    {{"drive", JsonInt(d.drive)},
                     {"name", JsonString(d.name)},
                     {"bound_ms", JsonDouble(d.bound_ms)},
                     {"busy_ms", JsonDouble(d.busy_ms)},
                     {"utilization", JsonDouble(d.utilization)},
                     {"capacity_used", JsonDouble(d.capacity_used)},
                     {"queue_depth_mean", JsonDouble(d.queue_depth_mean)},
                     {"queue_depth_max", JsonInt(d.queue_depth_max)}});
  }
}

}  // namespace dblayout::obs
