// Multi-way max-cut graph partitioning (Step 1 of TS-GREEDY, Fig. 9).
//
// The paper partitions the access graph into m parts so that the total weight
// of edges *crossing* partitions is maximized — co-accessed objects should
// land in different partitions. Like the paper we use a Kernighan-Lin-style
// local-improvement heuristic (the exact problem is NP-complete).

#ifndef DBLAYOUT_GRAPH_PARTITION_H_
#define DBLAYOUT_GRAPH_PARTITION_H_

#include <cstddef>
#include <vector>

#include "graph/weighted_graph.h"

namespace dblayout {

/// A partitioning assigns each node an integer partition id in [0, p).
using Partitioning = std::vector<int>;

/// Total weight of edges whose endpoints lie in different partitions.
double CutWeight(const WeightedGraph& g, const Partitioning& part);

/// Total weight of edges whose endpoints lie in the same partition
/// (the co-location the first step of TS-GREEDY tries to minimize).
double InternalWeight(const WeightedGraph& g, const Partitioning& part);

struct PartitionOptions {
  /// Number of partitions p. The paper sets p = m (number of disk drives).
  int num_partitions = 2;
  /// Optional list of node groups that must stay in one partition
  /// (co-location constraints). Each inner vector is a group of node ids.
  std::vector<std::vector<size_t>> must_co_locate;
};

/// Partitions `g` into `options.num_partitions` parts maximizing the cut
/// weight. Deterministic: greedy seeding by descending incident weight, then
/// KL-style best-move passes until a pass yields no improvement.
Partitioning MaxCutPartition(const WeightedGraph& g, const PartitionOptions& options);

}  // namespace dblayout

#endif  // DBLAYOUT_GRAPH_PARTITION_H_
