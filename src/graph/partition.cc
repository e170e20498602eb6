#include "graph/partition.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "analysis/invariant_auditor.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dblayout {

double CutWeight(const WeightedGraph& g, const Partitioning& part) {
  // Summed in sorted-neighbor order: float addition is not associative, so
  // iterating the hash-ordered Neighbors() view would make the cut weight
  // depend on the container's bucket layout.
  double cut = 0;
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    for (const auto& [v, w] : g.SortedNeighbors(u)) {
      if (u < v && part[u] != part[v]) cut += w;
    }
  }
  return cut;
}

double InternalWeight(const WeightedGraph& g, const Partitioning& part) {
  return g.TotalEdgeWeight() - CutWeight(g, part);
}

namespace {

/// Maximum number of full improvement sweeps.
constexpr int kMaxPasses = 30;

/// Simple union-find for contracting co-location groups into supernodes.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

Partitioning MaxCutPartition(const WeightedGraph& g, const PartitionOptions& options) {
  DBLAYOUT_TRACE_SPAN("graph/max_cut_partition");
  const size_t n = g.num_nodes();
  const int p = std::max(1, options.num_partitions);
  Partitioning part(n, 0);
  // Debug-build audit: the KL-style heuristic below assumes non-negative,
  // symmetric weights; negative weights would make the greedy gains lie.
  DBLAYOUT_DCHECK_OK(InvariantAuditor().AuditGraphWeights(g));
  if (n == 0 || p == 1) return part;

  // Contract co-location groups into supernodes.
  UnionFind uf(n);
  for (const auto& group : options.must_co_locate) {
    for (size_t i = 1; i < group.size(); ++i) {
      DBLAYOUT_CHECK(group[i] < n && group[0] < n);
      uf.Union(group[0], group[i]);
    }
  }
  std::vector<size_t> super_of(n);  // node -> supernode index
  std::vector<size_t> roots;
  {
    std::vector<int64_t> root_index(n, -1);
    for (size_t u = 0; u < n; ++u) {
      size_t r = uf.Find(u);
      if (root_index[r] < 0) {
        root_index[r] = static_cast<int64_t>(roots.size());
        roots.push_back(r);
      }
      super_of[u] = static_cast<size_t>(root_index[r]);
    }
  }
  const size_t sn = roots.size();
  WeightedGraph sg(sn);
  // Sorted-neighbor order: several (u, v) edges can collapse onto the same
  // supernode edge, so the accumulated weight must be built in a hash-layout-
  // independent order.
  for (size_t u = 0; u < n; ++u) {
    sg.AddNodeWeight(super_of[u], g.node_weight(u));
    for (const auto& [v, w] : g.SortedNeighbors(u)) {
      if (u < v && super_of[u] != super_of[v]) {
        sg.AddEdgeWeight(super_of[u], super_of[v], w);
      }
    }
  }

  // Greedy seeding: place supernodes in descending order of incident edge
  // weight; each goes to the partition it is least connected to.
  std::vector<double> incident(sn, 0.0);
  for (size_t u = 0; u < sn; ++u) {
    for (const auto& [v, w] : sg.SortedNeighbors(u)) {
      (void)v;
      incident[u] += w;
    }
  }
  std::vector<size_t> order(sn);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return incident[a] > incident[b]; });

  std::vector<int> sp(sn, -1);  // supernode -> partition
  std::vector<double> part_node_weight(static_cast<size_t>(p), 0.0);
  for (size_t u : order) {
    // connection[q] = total edge weight from u into partition q, summed in
    // sorted-neighbor order so ties between partitions break identically
    // across runs.
    std::vector<double> connection(static_cast<size_t>(p), 0.0);
    for (const auto& [v, w] : sg.SortedNeighbors(u)) {
      if (sp[v] >= 0) connection[static_cast<size_t>(sp[v])] += w;
    }
    int best = 0;
    for (int q = 1; q < p; ++q) {
      const auto qi = static_cast<size_t>(q);
      const auto bi = static_cast<size_t>(best);
      if (connection[qi] < connection[bi] ||
          (connection[qi] == connection[bi] &&
           part_node_weight[qi] < part_node_weight[bi])) {
        best = q;
      }
    }
    sp[u] = best;
    part_node_weight[static_cast<size_t>(best)] += sg.node_weight(u);
  }

  // KL-style improvement: repeatedly apply the best positive-gain single
  // supernode move; a full pass with no improvement terminates.
  constexpr double kEps = 1e-9;
  int64_t kl_passes = 0;
  int64_t kl_moves = 0;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    ++kl_passes;
    bool improved = false;
    for (size_t u = 0; u < sn; ++u) {
      std::vector<double> connection(static_cast<size_t>(p), 0.0);
      for (const auto& [v, w] : sg.SortedNeighbors(u)) {
        connection[static_cast<size_t>(sp[v])] += w;
      }
      const double cur_internal = connection[static_cast<size_t>(sp[u])];
      int best = sp[u];
      double best_internal = cur_internal;
      for (int q = 0; q < p; ++q) {
        if (q == sp[u]) continue;
        if (connection[static_cast<size_t>(q)] < best_internal - kEps) {
          best = q;
          best_internal = connection[static_cast<size_t>(q)];
        }
      }
      if (best != sp[u]) {
        sp[u] = best;
        ++kl_moves;
        improved = true;
      }
    }
    if (!improved) break;
  }
  DBLAYOUT_OBS_COUNT("graph/kl_passes", kl_passes);
  DBLAYOUT_OBS_COUNT("graph/kl_moves", kl_moves);

  for (size_t u = 0; u < n; ++u) part[u] = sp[super_of[u]];
  // Debug-build audit: every node labeled in range and co-location intact
  // after the improvement passes (a bad swap here would silently desynchronize
  // step 1b's partition-to-disk assignment).
  DBLAYOUT_DCHECK_OK(InvariantAuditor().AuditPartitioning(g, part, options));
  return part;
}

}  // namespace dblayout
