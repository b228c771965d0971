// Unit tests for src/graph: Dag, algorithms, reachability, dot export.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "graph/algorithms.h"
#include "graph/dag.h"
#include "graph/dot.h"
#include "graph/reachability.h"
#include "util/rng.h"

namespace rtpool::graph {
namespace {

Dag diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
  Dag d(4);
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  d.add_edge(1, 3);
  d.add_edge(2, 3);
  return d;
}

TEST(DagTest, AddNodesAndEdges) {
  Dag d;
  EXPECT_EQ(d.size(), 0u);
  const NodeId a = d.add_node();
  const NodeId b = d.add_node();
  d.add_edge(a, b);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.edge_count(), 1u);
  EXPECT_TRUE(d.has_edge(a, b));
  EXPECT_FALSE(d.has_edge(b, a));
  EXPECT_EQ(d.out_degree(a), 1u);
  EXPECT_EQ(d.in_degree(b), 1u);
}

TEST(DagTest, RejectsSelfLoopDuplicateAndBadIds) {
  Dag d(2);
  d.add_edge(0, 1);
  EXPECT_THROW(d.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(d.add_edge(0, 1), std::invalid_argument);
  EXPECT_THROW(d.add_edge(0, 5), std::invalid_argument);
  EXPECT_THROW(d.successors(9), std::invalid_argument);
}

TEST(DagTest, SourcesAndSinks) {
  const Dag d = diamond();
  EXPECT_EQ(d.sources(), (std::vector<NodeId>{0}));
  EXPECT_EQ(d.sinks(), (std::vector<NodeId>{3}));
}

TEST(DagTest, EdgesSorted) {
  const Dag d = diamond();
  const auto edges = d.edges();
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[3], (Edge{2, 3}));
}

TEST(DagTest, AdjacencyMatchesPerNodeListsUnderInterleavedInserts) {
  // A reference of one vector per node and direction, fed the same random
  // edges. Inserts interleave across nodes, so lists keep outgrowing their
  // pool slices and moving.
  util::Rng rng(31);
  Dag d;
  std::vector<std::vector<NodeId>> succ;
  std::vector<std::vector<NodeId>> pred;
  std::vector<Edge> all;
  for (int step = 0; step < 3000; ++step) {
    if (d.size() < 2 || rng.bernoulli(0.1)) {
      EXPECT_EQ(d.add_node(), succ.size());
      succ.emplace_back();
      pred.emplace_back();
      continue;
    }
    const auto from = static_cast<NodeId>(rng.index(d.size()));
    const auto to = static_cast<NodeId>(rng.index(d.size()));
    if (from == to || std::find(succ[from].begin(), succ[from].end(), to) !=
                          succ[from].end()) {
      EXPECT_THROW(d.add_edge(from, to), std::invalid_argument);
      continue;
    }
    if (rng.bernoulli(0.5))
      d.add_edge(from, to);
    else
      d.add_edge_unchecked(from, to);
    succ[from].push_back(to);
    pred[to].push_back(from);
    all.push_back({from, to});
  }

  ASSERT_EQ(d.size(), succ.size());
  EXPECT_EQ(d.edge_count(), all.size());
  std::vector<NodeId> sources;
  std::vector<NodeId> sinks;
  for (NodeId v = 0; v < d.size(); ++v) {
    EXPECT_TRUE(std::ranges::equal(d.successors(v), succ[v])) << v;
    EXPECT_TRUE(std::ranges::equal(d.predecessors(v), pred[v])) << v;
    EXPECT_EQ(d.out_degree(v), succ[v].size());
    EXPECT_EQ(d.in_degree(v), pred[v].size());
    if (pred[v].empty()) sources.push_back(v);
    if (succ[v].empty()) sinks.push_back(v);
    for (NodeId w = 0; w < d.size(); ++w)
      EXPECT_EQ(d.has_edge(v, w),
                std::find(succ[v].begin(), succ[v].end(), w) != succ[v].end());
  }
  EXPECT_EQ(d.sources(), sources);
  EXPECT_EQ(d.sinks(), sinks);
  std::sort(all.begin(), all.end(), [](const Edge& a, const Edge& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
  EXPECT_EQ(d.edges(), all);
}

TEST(DagTest, ThousandWideFanOutAndFanIn) {
  // 0 -> w -> 1001 for w = 1..1000, the two wide lists growing in turn.
  Dag d(1002);
  for (NodeId w = 1; w <= 1000; ++w) {
    d.add_edge(0, w);
    d.add_edge(w, 1001);
  }
  ASSERT_EQ(d.out_degree(0), 1000u);
  ASSERT_EQ(d.in_degree(1001), 1000u);
  for (NodeId w = 1; w <= 1000; ++w) {
    EXPECT_EQ(d.successors(0)[w - 1], w);
    EXPECT_EQ(d.predecessors(1001)[w - 1], w);
    EXPECT_TRUE(std::ranges::equal(d.predecessors(w), std::vector<NodeId>{0}));
    EXPECT_TRUE(std::ranges::equal(d.successors(w), std::vector<NodeId>{1001}));
  }
  EXPECT_TRUE(d.has_edge(0, 1000));
  EXPECT_THROW(d.add_edge(0, 1000), std::invalid_argument);
  EXPECT_EQ(d.sources(), (std::vector<NodeId>{0}));
  EXPECT_EQ(d.sinks(), (std::vector<NodeId>{1001}));
  EXPECT_EQ(topological_order(d).size(), 1002u);
}

TEST(DagTest, MutatingACopyLeavesTheOriginal) {
  const Dag original = diamond();
  Dag copy = original;
  copy.add_edge(0, 3);
  for (int i = 0; i < 10; ++i) {
    const auto last = static_cast<NodeId>(copy.size() - 1);
    copy.add_edge(last, copy.add_node());
  }
  EXPECT_EQ(copy.size(), 14u);
  EXPECT_TRUE(std::ranges::equal(copy.successors(0), std::vector<NodeId>{1, 2, 3}));

  EXPECT_EQ(original.size(), 4u);
  EXPECT_EQ(original.edge_count(), 4u);
  EXPECT_EQ(original.edges(), diamond().edges());
  EXPECT_TRUE(std::ranges::equal(original.successors(0), std::vector<NodeId>{1, 2}));
  EXPECT_TRUE(std::ranges::equal(original.predecessors(3), std::vector<NodeId>{1, 2}));
  EXPECT_FALSE(original.has_edge(0, 3));
  EXPECT_EQ(original.sinks(), (std::vector<NodeId>{3}));
}

TEST(DagTest, AcyclicDetection) {
  // Insertion accepts a back edge; the order-requiring algorithm rejects it.
  Dag d(3);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  EXPECT_NO_THROW(topological_order(d));
  d.add_edge(2, 0);
  EXPECT_THROW(topological_order(d), CycleError);
}

TEST(TopologicalOrderTest, RespectsEdges) {
  const Dag d = diamond();
  const auto order = topological_order(d);
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const Edge& e : d.edges()) EXPECT_LT(pos[e.from], pos[e.to]);
}

TEST(TopologicalOrderTest, ThrowsOnCycle) {
  Dag d(2);
  d.add_edge(0, 1);
  d.add_edge(1, 0);
  EXPECT_THROW(topological_order(d), CycleError);
}

TEST(LongestPathTest, Diamond) {
  const Dag d = diamond();
  const std::vector<double> w{1.0, 10.0, 2.0, 1.0};
  const auto result = longest_path(d, w);
  EXPECT_DOUBLE_EQ(result.length, 12.0);
  EXPECT_EQ(result.path, (std::vector<NodeId>{0, 1, 3}));
}

TEST(LongestPathTest, SingleNodeAndEmpty) {
  Dag d(1);
  const auto r = longest_path(d, {7.5});
  EXPECT_DOUBLE_EQ(r.length, 7.5);
  EXPECT_EQ(r.path, (std::vector<NodeId>{0}));

  Dag empty;
  const auto e = longest_path(empty, {});
  EXPECT_DOUBLE_EQ(e.length, 0.0);
  EXPECT_TRUE(e.path.empty());
}

TEST(LongestPathTest, WeightMismatchThrows) {
  const Dag d = diamond();
  EXPECT_THROW(longest_path(d, {1.0}), std::invalid_argument);
}

TEST(TotalWeightTest, Sums) {
  EXPECT_DOUBLE_EQ(total_weight({1.0, 2.5, 3.5}), 7.0);
  EXPECT_DOUBLE_EQ(total_weight({}), 0.0);
}

TEST(ConnectivityTest, WeaklyConnected) {
  // Edge direction is ignored: 3 reaches 0 only against the edges.
  EXPECT_EQ(weak_component(diamond(), 3), std::vector<bool>(4, true));
  Dag d(3);
  d.add_edge(0, 1);  // node 2 isolated
  EXPECT_EQ(weak_component(d, 1), (std::vector<bool>{true, true, false}));
  EXPECT_EQ(weak_component(d, 2), (std::vector<bool>{false, false, true}));
  Dag one(1);
  EXPECT_EQ(weak_component(one, 0), std::vector<bool>{true});
}

TEST(ReachabilityTest, Diamond) {
  const Dag d = diamond();
  const Reachability r(d);
  EXPECT_TRUE(r.reaches(0, 3));
  EXPECT_TRUE(r.reaches(0, 1));
  EXPECT_FALSE(r.reaches(3, 0));
  EXPECT_FALSE(r.reaches(1, 2));
  EXPECT_TRUE(r.concurrent(1, 2));
  EXPECT_FALSE(r.concurrent(0, 3));
  EXPECT_FALSE(r.concurrent(1, 1));
  EXPECT_EQ(r.ancestors(3).count(), 3u);
  EXPECT_EQ(r.descendants(0).count(), 3u);
}

TEST(ReachabilityTest, MatchesBruteForceOnRandomDags) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 30;
    Dag d(n);
    // Random DAG: edges only forward in id order.
    for (NodeId i = 0; i < n; ++i)
      for (NodeId j = i + 1; j < n; ++j)
        if (rng.bernoulli(0.12)) d.add_edge(i, j);
    const Reachability r(d);

    // Brute force: DFS per node.
    for (NodeId s = 0; s < n; ++s) {
      std::vector<bool> seen(n, false);
      std::vector<NodeId> stack{s};
      while (!stack.empty()) {
        const NodeId v = stack.back();
        stack.pop_back();
        for (NodeId w : d.successors(v)) {
          if (!seen[w]) {
            seen[w] = true;
            stack.push_back(w);
          }
        }
      }
      for (NodeId t = 0; t < n; ++t) {
        if (t == s) continue;
        EXPECT_EQ(r.reaches(s, t), seen[t]) << "s=" << s << " t=" << t;
      }
    }
  }
}

TEST(ReachabilityTest, UnorderedMaskMatchesDefinition) {
  // unordered_mask(v) = all u != v with neither u ⤳ v nor v ⤳ u — i.e.
  // exactly the nodes `concurrent` with v.
  util::Rng rng(4047);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 40;
    Dag d(n);
    for (NodeId i = 0; i < n; ++i)
      for (NodeId j = i + 1; j < n; ++j)
        if (rng.bernoulli(0.1)) d.add_edge(i, j);
    const Reachability r(d);
    util::DynamicBitset mask;  // scratch, resized by the first call
    for (NodeId v = 0; v < n; ++v) {
      r.unordered_mask(v, mask);
      ASSERT_EQ(mask.size(), n);
      for (NodeId u = 0; u < n; ++u) {
        const bool expected = u != v && !r.reaches(u, v) && !r.reaches(v, u);
        EXPECT_EQ(mask.test(u), expected) << "v=" << v << " u=" << u;
        EXPECT_EQ(mask.test(u), r.concurrent(u, v)) << "v=" << v << " u=" << u;
      }
    }
  }
}

TEST(LongestPathTest, LengthOnlyKernelMatchesFullDp) {
  // longest_path_length (cached-order, scratch-buffer variant) must be
  // bit-identical to longest_path().length on random weighted DAGs.
  util::Rng rng(555);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 25;
    Dag d(n);
    std::vector<double> w(n);
    for (NodeId i = 0; i < n; ++i) {
      w[i] = rng.uniform(0.5, 7.0);
      for (NodeId j = i + 1; j < n; ++j)
        if (rng.bernoulli(0.15)) d.add_edge(i, j);
    }
    const std::vector<NodeId> order = topological_order(d);
    std::vector<double> scratch;
    EXPECT_EQ(longest_path_length(d, order, w, scratch),
              longest_path(d, w).length)
        << "trial=" << trial;
  }
}

TEST(LongestPathTest, MatchesBruteForceOnRandomDags) {
  // Exhaustive path enumeration on small random DAGs must agree with the
  // DP longest-path (both length and that the returned path is realizable).
  util::Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 10;
    Dag d(n);
    std::vector<double> w(n);
    for (NodeId i = 0; i < n; ++i) {
      w[i] = rng.uniform(1.0, 9.0);
      for (NodeId j = i + 1; j < n; ++j)
        if (rng.bernoulli(0.25)) d.add_edge(i, j);
    }

    // Brute force: DFS over all paths from every node.
    double best = 0.0;
    std::function<void(NodeId, double)> dfs = [&](NodeId v, double acc) {
      best = std::max(best, acc + w[v]);
      for (NodeId s : d.successors(v)) dfs(s, acc + w[v]);
    };
    for (NodeId v = 0; v < n; ++v) {
      if (d.in_degree(v) == 0) dfs(v, 0.0);
    }

    const auto result = longest_path(d, w);
    EXPECT_NEAR(result.length, best, 1e-9) << "trial=" << trial;

    // The returned path must be realizable and sum to the length.
    double sum = 0.0;
    for (std::size_t k = 0; k < result.path.size(); ++k) {
      sum += w[result.path[k]];
      if (k > 0) {
        EXPECT_TRUE(d.has_edge(result.path[k - 1], result.path[k]));
      }
    }
    EXPECT_NEAR(sum, result.length, 1e-9);
  }
}

TEST(DotTest, RendersNodesAndEdges) {
  const Dag d = diamond();
  const std::string dot = to_dot(d, {"src", "a", "b", "snk"}, "g");
  EXPECT_NE(dot.find("digraph g {"), std::string::npos);
  EXPECT_NE(dot.find("n0 [label=\"src\"]"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1;"), std::string::npos);
  EXPECT_NE(dot.find("n2 -> n3;"), std::string::npos);
}

TEST(DotTest, EscapesQuotes) {
  Dag d(1);
  const std::string dot = to_dot(d, {"a\"b"});
  EXPECT_NE(dot.find("a\\\"b"), std::string::npos);
}

TEST(DotTest, LabelCountMismatchThrows) {
  const Dag d = diamond();
  EXPECT_THROW(to_dot(d, {"only-one"}), std::invalid_argument);
}

}  // namespace
}  // namespace rtpool::graph
