#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "graph/partition.h"
#include "graph/weighted_graph.h"

namespace dblayout {
namespace {

TEST(WeightedGraphTest, NodeAndEdgeAccumulation) {
  WeightedGraph g(3);
  EXPECT_EQ(g.num_nodes(), 3u);
  g.AddNodeWeight(0, 5);
  g.AddNodeWeight(0, 2);
  EXPECT_DOUBLE_EQ(g.node_weight(0), 7);
  g.AddEdgeWeight(0, 1, 10);
  g.AddEdgeWeight(1, 0, 4);  // symmetric accumulation
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 14);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 0), 14);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 2), 0);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(WeightedGraphTest, SelfLoopIgnored) {
  WeightedGraph g(2);
  g.AddEdgeWeight(1, 1, 100);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.TotalEdgeWeight(), 0);
}

TEST(WeightedGraphTest, AddNodeGrows) {
  WeightedGraph g;
  EXPECT_EQ(g.AddNode(3.0), 0u);
  EXPECT_EQ(g.AddNode(), 1u);
  EXPECT_DOUBLE_EQ(g.TotalNodeWeight(), 3.0);
}

TEST(WeightedGraphTest, TotalEdgeWeightCountsEachEdgeOnce) {
  WeightedGraph g(4);
  g.AddEdgeWeight(0, 1, 3);
  g.AddEdgeWeight(2, 3, 4);
  EXPECT_DOUBLE_EQ(g.TotalEdgeWeight(), 7);
}

TEST(WeightedGraphTest, SortedNeighborsIsSortedAndComplete) {
  WeightedGraph g(6);
  g.AddEdgeWeight(3, 1, 0.5);
  g.AddEdgeWeight(3, 5, 1.25);
  g.AddEdgeWeight(3, 0, 2.0);
  g.AddEdgeWeight(3, 4, 0.75);
  const auto nbrs = g.SortedNeighbors(3);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_EQ(nbrs[0].first, 0u);
  EXPECT_EQ(nbrs[1].first, 1u);
  EXPECT_EQ(nbrs[2].first, 4u);
  EXPECT_EQ(nbrs[3].first, 5u);
  EXPECT_DOUBLE_EQ(nbrs[2].second, 0.75);
}

// Regression test for a hash-order float-accumulation defect found by
// dblayout check (unordered-accumulation): CutWeight, TotalEdgeWeight, and
// the partitioner's connection sums used to iterate Neighbors() — an
// unordered_map whose iteration order depends on insertion history — so two
// logically identical graphs could disagree in the last ulp and flip
// downstream tie-breaks. Sums must be bit-identical across build orders.
TEST(WeightedGraphTest, AggregatesAreInsertionOrderIndependent) {
  // Weights like 0.1 are inexact in binary, so any reordering of the
  // additions is overwhelmingly likely to change the bits of the total.
  const size_t n = 60;
  std::vector<std::tuple<size_t, size_t, double>> edges;
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = u + 1; v < n; v += 1 + (u % 3)) {
      edges.emplace_back(u, v, 0.1 + 0.001 * static_cast<double>(u * n + v));
    }
  }

  WeightedGraph fwd(n);
  for (const auto& [u, v, w] : edges) fwd.AddEdgeWeight(u, v, w);
  WeightedGraph rev(n);
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    rev.AddEdgeWeight(std::get<0>(*it), std::get<1>(*it), std::get<2>(*it));
  }

  EXPECT_EQ(fwd.TotalEdgeWeight(), rev.TotalEdgeWeight());  // bit-identical

  Partitioning part(n);
  for (size_t u = 0; u < n; ++u) part[u] = static_cast<int>(u % 4);
  EXPECT_EQ(CutWeight(fwd, part), CutWeight(rev, part));

  // The full partitioner (greedy seeding + KL refinement accumulates
  // connection[] sums per neighbor) must produce the same assignment.
  PartitionOptions opts;
  opts.num_partitions = 4;
  EXPECT_EQ(MaxCutPartition(fwd, opts), MaxCutPartition(rev, opts));
}

TEST(PartitionTest, CutWeightBasics) {
  WeightedGraph g(4);
  g.AddEdgeWeight(0, 1, 10);
  g.AddEdgeWeight(2, 3, 20);
  Partitioning same = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(CutWeight(g, same), 0);
  EXPECT_DOUBLE_EQ(InternalWeight(g, same), 30);
  Partitioning split = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(CutWeight(g, split), 30);
  EXPECT_DOUBLE_EQ(InternalWeight(g, split), 0);
}

TEST(PartitionTest, TwoCliquesAreSeparatedAcrossPartitions) {
  // Two co-access pairs (heavy edges) must end up cut.
  WeightedGraph g(4);
  g.AddEdgeWeight(0, 1, 100);  // pair 1
  g.AddEdgeWeight(2, 3, 100);  // pair 2
  PartitionOptions opt;
  opt.num_partitions = 2;
  Partitioning p = MaxCutPartition(g, opt);
  EXPECT_NE(p[0], p[1]);
  EXPECT_NE(p[2], p[3]);
}

TEST(PartitionTest, TriangleWithThreePartitionsFullyCut) {
  WeightedGraph g(3);
  g.AddEdgeWeight(0, 1, 5);
  g.AddEdgeWeight(1, 2, 5);
  g.AddEdgeWeight(0, 2, 5);
  PartitionOptions opt;
  opt.num_partitions = 3;
  Partitioning p = MaxCutPartition(g, opt);
  EXPECT_DOUBLE_EQ(CutWeight(g, p), 15);
}

TEST(PartitionTest, SinglePartitionPutsEverythingTogether) {
  WeightedGraph g(5);
  g.AddEdgeWeight(0, 4, 3);
  PartitionOptions opt;
  opt.num_partitions = 1;
  Partitioning p = MaxCutPartition(g, opt);
  for (int part : p) EXPECT_EQ(part, 0);
}

TEST(PartitionTest, EmptyGraph) {
  WeightedGraph g(0);
  PartitionOptions opt;
  opt.num_partitions = 4;
  EXPECT_TRUE(MaxCutPartition(g, opt).empty());
}

TEST(PartitionTest, CoLocationConstraintKeepsGroupTogether) {
  WeightedGraph g(4);
  // Heavy edge 0-1 wants them apart, but they are constrained together.
  g.AddEdgeWeight(0, 1, 1000);
  g.AddEdgeWeight(2, 3, 10);
  PartitionOptions opt;
  opt.num_partitions = 4;
  opt.must_co_locate = {{0, 1}};
  Partitioning p = MaxCutPartition(g, opt);
  EXPECT_EQ(p[0], p[1]);
  EXPECT_NE(p[2], p[3]);
}

TEST(PartitionTest, PartitionIdsInRange) {
  Rng rng(3);
  WeightedGraph g(20);
  for (int e = 0; e < 60; ++e) {
    g.AddEdgeWeight(rng.Index(20), rng.Index(20), rng.UniformDouble(1, 50));
  }
  PartitionOptions opt;
  opt.num_partitions = 5;
  Partitioning p = MaxCutPartition(g, opt);
  ASSERT_EQ(p.size(), 20u);
  for (int part : p) {
    EXPECT_GE(part, 0);
    EXPECT_LT(part, 5);
  }
}

/// Property sweep: the heuristic's cut must never be worse than the expected
/// cut of a uniform random partition, (1 - 1/p) * total edge weight.
class MaxCutPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxCutPropertyTest, BeatsRandomPartitionBaseline) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  const size_t n = 5 + rng.Index(25);
  const int p = 2 + static_cast<int>(rng.Index(6));
  WeightedGraph g(n);
  const int edges = static_cast<int>(n * 2);
  for (int e = 0; e < edges; ++e) {
    g.AddEdgeWeight(rng.Index(n), rng.Index(n), rng.UniformDouble(1, 100));
  }
  PartitionOptions opt;
  opt.num_partitions = p;
  Partitioning part = MaxCutPartition(g, opt);
  const double cut = CutWeight(g, part);
  const double random_expectation =
      g.TotalEdgeWeight() * (1.0 - 1.0 / static_cast<double>(p));
  EXPECT_GE(cut, random_expectation - 1e-9)
      << "n=" << n << " p=" << p << " total=" << g.TotalEdgeWeight();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxCutPropertyTest, ::testing::Range(1, 21));

}  // namespace
}  // namespace dblayout
