#include "engine/execution_sim.h"

#include <algorithm>
#include <cmath>

#include "common/strutil.h"

namespace dblayout {

ExecutionSimulator::ExecutionSimulator(const Database& db, const DiskFleet& fleet,
                                       ExecutionOptions options)
    : db_(db),
      fleet_(fleet),
      options_(options),
      sizes_(db.ObjectSizes()),
      pool_(options.buffer_pool_blocks, sizes_) {}

Result<BlockMap> ExecutionSimulator::MaybeMaterialize(const Layout& layout) const {
  return BlockMap::Materialize(layout, sizes_, fleet_);
}

double ExecutionSimulator::RunSubplans(const std::vector<SubplanAccess>& subplans,
                                       const Layout& layout, const BlockMap* map) {
  double total_ms = 0;
  // Pipelines execute roughly bottom-up (build sides and sort inputs before
  // their consumers); DecomposeIntoSubplans emits the root pipeline first,
  // so run in reverse order. Order only affects buffer-pool interaction.
  for (auto it = subplans.rbegin(); it != subplans.rend(); ++it) {
    std::vector<std::vector<DiskStream>> per_disk(
        static_cast<size_t>(fleet_.num_disks()));
    std::vector<std::vector<QueueStream>> per_disk_q(
        static_cast<size_t>(fleet_.num_disks()));
    // CPU work scales with logical blocks regardless of placement or cache.
    total_ms += options_.cpu_ms_per_block * it->TotalBlocks();
    for (const ObjectAccess& a : it->accesses) {
      double physical = 0;
      if (a.read_modify_write) {
        // Every block is written back regardless of cache hits on the read.
        physical = a.blocks;
        pool_.AccessWrite(a.object_id, a.blocks);
      } else if (a.is_write) {
        physical = a.blocks;  // write-through
        pool_.AccessWrite(a.object_id, a.blocks);
      } else {
        physical = pool_.AccessRead(a.object_id, a.blocks);
      }
      const auto blocks = static_cast<int64_t>(std::llround(physical));
      if (blocks <= 0) continue;
      const std::vector<int64_t> row = layout.RowBlocks(a.object_id, blocks);
      for (int j = 0; j < fleet_.num_disks(); ++j) {
        const int64_t on_disk = row[static_cast<size_t>(j)];
        if (on_disk <= 0) continue;
        if (map != nullptr) {
          for (const ObjectExtent& e : map->ExtentsOf(a.object_id)) {
            if (e.disk != j) continue;
            per_disk_q[static_cast<size_t>(j)].push_back(
                QueueStream{e, on_disk, a.is_write, a.read_modify_write,
                            a.random,
                            static_cast<uint64_t>(a.object_id) * 2654435761u + 7});
            break;
          }
        } else {
          per_disk[static_cast<size_t>(j)].push_back(
              DiskStream{on_disk, a.random, a.is_write, a.read_modify_write});
        }
      }
    }
    if (map != nullptr) {
      double max_ms = 0;
      for (int j = 0; j < fleet_.num_disks(); ++j) {
        max_ms = std::max(
            max_ms, SimulateQueueDisk(fleet_.disk(j),
                                      per_disk_q[static_cast<size_t>(j)],
                                      options_.queue));
      }
      total_ms += max_ms;
    } else {
      total_ms += SimulatePipeline(fleet_, per_disk, options_.io);
    }
  }
  return total_ms;
}

Result<double> ExecutionSimulator::ExecuteStatement(const PlanNode& plan,
                                                    const Layout& layout) {
  DBLAYOUT_RETURN_NOT_OK(layout.Validate(sizes_, fleet_));
  if (options_.cold_start_per_statement) pool_.Reset();
  if (options_.use_queue_sim) {
    DBLAYOUT_ASSIGN_OR_RETURN(BlockMap map, MaybeMaterialize(layout));
    return RunSubplans(DecomposeIntoSubplans(plan), layout, &map);
  }
  return RunSubplans(DecomposeIntoSubplans(plan), layout, nullptr);
}

Result<double> ExecutionSimulator::ExecuteConcurrentStreams(
    const std::vector<std::vector<const PlanNode*>>& streams, const Layout& layout) {
  DBLAYOUT_RETURN_NOT_OK(layout.Validate(sizes_, fleet_));
  // Flatten each stream into its pipeline sequence (statements serial,
  // pipelines bottom-up within a statement).
  std::vector<std::vector<SubplanAccess>> queues;
  for (const auto& stream : streams) {
    std::vector<SubplanAccess> queue;
    for (const PlanNode* plan : stream) {
      if (plan == nullptr) {
        return Status::InvalidArgument("null plan in ExecuteConcurrentStreams");
      }
      std::vector<SubplanAccess> subplans = DecomposeIntoSubplans(*plan);
      for (auto it = subplans.rbegin(); it != subplans.rend(); ++it) {
        queue.push_back(std::move(*it));
      }
    }
    queues.push_back(std::move(queue));
  }
  pool_.Reset();
  BlockMap map;
  if (options_.use_queue_sim) {
    DBLAYOUT_ASSIGN_OR_RETURN(map, MaybeMaterialize(layout));
  }
  const BlockMap* map_ptr = options_.use_queue_sim ? &map : nullptr;
  size_t rounds = 0;
  for (const auto& q : queues) rounds = std::max(rounds, q.size());
  double total_ms = 0;
  for (size_t r = 0; r < rounds; ++r) {
    SubplanAccess combined;
    for (const auto& q : queues) {
      if (r >= q.size()) continue;
      for (const ObjectAccess& a : q[r].accesses) combined.accesses.push_back(a);
    }
    total_ms += RunSubplans({combined}, layout, map_ptr);
  }
  return total_ms;
}

Result<double> ExecutionSimulator::ExecutePlans(const std::vector<WeightedPlan>& plans,
                                                const Layout& layout) {
  DBLAYOUT_RETURN_NOT_OK(layout.Validate(sizes_, fleet_));
  BlockMap map;
  if (options_.use_queue_sim) {
    DBLAYOUT_ASSIGN_OR_RETURN(map, MaybeMaterialize(layout));
  }
  const BlockMap* map_ptr = options_.use_queue_sim ? &map : nullptr;
  double total = 0;
  for (const WeightedPlan& wp : plans) {
    if (wp.plan == nullptr) {
      return Status::InvalidArgument("null plan in ExecutePlans");
    }
    if (options_.cold_start_per_statement) pool_.Reset();
    total += wp.weight * RunSubplans(DecomposeIntoSubplans(*wp.plan), layout, map_ptr);
  }
  return total;
}

}  // namespace dblayout
