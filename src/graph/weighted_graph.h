// Weighted undirected graph used to represent workload access graphs
// (Section 4.1 of the paper): nodes are database objects, node weights are
// total blocks accessed, edge weights are total blocks co-accessed.

#ifndef DBLAYOUT_GRAPH_WEIGHTED_GRAPH_H_
#define DBLAYOUT_GRAPH_WEIGHTED_GRAPH_H_

#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <vector>

namespace dblayout {

/// One undirected edge (u < v) with its weight; see WeightedGraph::SortedEdges.
struct GraphEdge {
  size_t u = 0;
  size_t v = 0;
  double weight = 0;
};

/// An undirected graph over nodes 0..n-1 with double node and edge weights.
/// Self-loops are ignored; parallel edge additions accumulate weight.
class WeightedGraph {
 public:
  explicit WeightedGraph(size_t num_nodes = 0)
      : node_weight_(num_nodes, 0.0), adj_(num_nodes) {}

  size_t num_nodes() const { return node_weight_.size(); }

  /// Appends a node with the given weight, returning its index.
  size_t AddNode(double weight = 0.0) {
    node_weight_.push_back(weight);
    adj_.emplace_back();
    return node_weight_.size() - 1;
  }

  /// Adds `delta` to node u's weight.
  void AddNodeWeight(size_t u, double delta) { node_weight_[u] += delta; }
  double node_weight(size_t u) const { return node_weight_[u]; }

  /// Adds `delta` to the weight of undirected edge (u, v). u == v is a no-op.
  void AddEdgeWeight(size_t u, size_t v, double delta) {
    if (u == v) return;
    adj_[u][v] += delta;
    adj_[v][u] += delta;
  }

  /// Weight of edge (u, v), 0 if absent.
  double EdgeWeight(size_t u, size_t v) const {
    auto it = adj_[u].find(v);
    return it == adj_[u].end() ? 0.0 : it->second;
  }

  /// Neighbors of u with positive edge weight. Hash order: any consumer
  /// that sums weights (float addition is not associative) or emits output
  /// must use SortedNeighbors / SortedEdges instead — dblayout check's
  /// unordered-accumulation rule enforces this.
  const std::unordered_map<size_t, double>& Neighbors(size_t u) const {
    return adj_[u];
  }

  /// Neighbors of u as (v, weight) pairs sorted by v: the deterministic
  /// iteration order for accumulation and rendering.
  std::vector<std::pair<size_t, double>> SortedNeighbors(size_t u) const {
    std::vector<std::pair<size_t, double>> out(adj_[u].begin(), adj_[u].end());
    std::sort(out.begin(), out.end(),
              [](const std::pair<size_t, double>& a,
                 const std::pair<size_t, double>& b) { return a.first < b.first; });
    return out;
  }

  /// Number of undirected edges.
  size_t num_edges() const {
    size_t deg = 0;
    for (const auto& a : adj_) deg += a.size();
    return deg / 2;
  }

  /// All undirected edges with u < v, sorted by (u, v). Adjacency is kept in
  /// unordered maps, so this is the iteration order for any consumer that
  /// must produce deterministic output (diagnostics, reports, golden tests).
  std::vector<GraphEdge> SortedEdges() const {
    std::vector<GraphEdge> edges;
    for (size_t u = 0; u < adj_.size(); ++u) {
      // dblayout-check(unordered-accumulation): edges are fully sorted below
      for (const auto& [v, w] : adj_[u]) {
        if (u < v) edges.push_back(GraphEdge{u, v, w});
      }
    }
    std::sort(edges.begin(), edges.end(), [](const GraphEdge& a, const GraphEdge& b) {
      return a.u != b.u ? a.u < b.u : a.v < b.v;
    });
    return edges;
  }

  /// Sum of all edge weights (each undirected edge counted once). Summed in
  /// sorted-neighbor order so the float total is independent of hash layout.
  double TotalEdgeWeight() const {
    double total = 0;
    for (size_t u = 0; u < adj_.size(); ++u) {
      for (const auto& [v, w] : SortedNeighbors(u)) {
        if (u < v) total += w;
      }
    }
    return total;
  }

  /// Sum of all node weights.
  double TotalNodeWeight() const {
    double total = 0;
    for (double w : node_weight_) total += w;
    return total;
  }

 private:
  std::vector<double> node_weight_;
  std::vector<std::unordered_map<size_t, double>> adj_;
};

}  // namespace dblayout

#endif  // DBLAYOUT_GRAPH_WEIGHTED_GRAPH_H_
