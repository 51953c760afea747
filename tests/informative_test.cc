#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/fixtures.h"
#include "graph/graph_nfa.h"
#include "interact/certain.h"
#include "interact/informative.h"
#include "interact/strategy.h"
#include "util/random.h"
#include "workloads/workloads.h"

namespace rpqlearn {
namespace {

SubsetCoverage CoverageOf(const Graph& g, const std::vector<NodeId>& negs,
                          uint32_t k) {
  Nfa negatives = GraphToNfa(g, negs);
  SubsetCoverage::Options options;
  options.k = k;
  auto cov = SubsetCoverage::Build(negatives, options);
  EXPECT_TRUE(cov.ok());
  return std::move(cov).value();
}

/// Reference for ComputeKInformative: a backward layered BFS over the
/// product of the graph with the coverage automaton, from every pair whose
/// coverage subset is empty, k reverse steps deep. A node is k-informative
/// iff its pair with the initial subset is reached.
BitVector KInformativeReference(const Graph& graph,
                                const SubsetCoverage& coverage) {
  const uint32_t nv = graph.num_nodes();
  const uint32_t nc = coverage.num_states();
  const uint32_t k = coverage.k();

  // reached[(v, s)] = from product state (v, s) some (·, ∅) is reachable
  // within the remaining budget. Layer 0 = all pairs with the empty subset.
  BitVector reached(static_cast<size_t>(nv) * nc);
  std::vector<std::pair<NodeId, StateId>> frontier;
  const StateId empty = coverage.empty_state();
  for (NodeId v = 0; v < nv; ++v) {
    reached.Set(static_cast<size_t>(v) * nc + empty);
    frontier.emplace_back(v, empty);
  }

  // Reverse coverage transitions, restricted to states with materialized
  // rows (depth < k).
  std::vector<std::vector<std::vector<StateId>>> rev(
      graph.num_symbols(), std::vector<std::vector<StateId>>(nc));
  for (StateId s = 0; s < nc; ++s) {
    if (coverage.DepthOf(s) >= k && !coverage.IsEmptySubset(s)) continue;
    for (Symbol a = 0; a < coverage.num_symbols(); ++a) {
      rev[a][coverage.Next(s, a)].push_back(s);
    }
  }

  for (uint32_t step = 0; step < k && !frontier.empty(); ++step) {
    std::vector<std::pair<NodeId, StateId>> next;
    for (auto [v, s] : frontier) {
      for (const LabeledEdge& e : graph.InEdges(v)) {
        for (StateId p : rev[e.label][s]) {
          size_t idx = static_cast<size_t>(e.node) * nc + p;
          if (!reached.Test(idx)) {
            reached.Set(idx);
            next.emplace_back(e.node, p);
          }
        }
      }
    }
    frontier = std::move(next);
  }

  BitVector informative(nv);
  const StateId init = coverage.initial();
  for (NodeId v = 0; v < nv; ++v) {
    if (reached.Test(static_cast<size_t>(v) * nc + init)) informative.Set(v);
  }
  return informative;
}

/// A random graph over 90 labels, so a label mask takes two 64-bit words.
/// Most edges carry one of a few labels on both sides of the word boundary,
/// so negatives share paths with other nodes; the rest spread over the
/// whole alphabet. Out-degrees are 1..4.
Graph WideAlphabetGraph(uint32_t num_nodes, uint64_t seed) {
  constexpr uint32_t kNumLabels = 90;
  constexpr Symbol kCommon[] = {0, 1, 62, 63, 64, 65, 89};
  GraphBuilder b;
  std::vector<std::string> labels;
  for (uint32_t a = 0; a < kNumLabels; ++a) {
    labels.push_back("l" + std::to_string(a));
  }
  b.InternLabels(labels);
  b.AddNodes(num_nodes);
  Rng rng(seed);
  for (NodeId v = 0; v < num_nodes; ++v) {
    const uint64_t degree = 1 + rng.NextBelow(4);
    for (uint64_t i = 0; i < degree; ++i) {
      const Symbol a =
          rng.NextBernoulli(0.7)
              ? kCommon[rng.NextBelow(std::size(kCommon))]
              : static_cast<Symbol>(rng.NextBelow(kNumLabels));
      b.AddEdge(v, a, static_cast<NodeId>(rng.NextBelow(num_nodes)));
    }
  }
  return b.Build();
}

/// True iff some node has out-edges labelled both below 64 and at 64 or
/// above, so its out-label mask has a bit set in each of two words.
bool SomeNodeSpansTwoMaskWords(const Graph& g) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    bool low = false;
    bool high = false;
    for (const LabeledEdge& e : g.OutEdges(v)) {
      (e.label < 64 ? low : high) = true;
    }
    if (low && high) return true;
  }
  return false;
}

TEST(InformativeTest, MatchesDefinitionOnFig3) {
  // k-informative ⟺ some path of length ≤ k is uncovered by S−.
  Graph g = Figure3G0();
  for (uint32_t k = 1; k <= 3; ++k) {
    SubsetCoverage cov = CoverageOf(g, {1, 6}, k);
    BitVector informative = ComputeKInformative(g, cov);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      bool expected = false;
      for (const Word& w : AllWordsUpTo(3, k)) {
        if (g.HasPathFrom(v, w) && !g.HasPathFrom(1, w) &&
            !g.HasPathFrom(6, w)) {
          expected = true;
          break;
        }
      }
      EXPECT_EQ(informative.Test(v), expected) << "k=" << k << " v=" << v;
    }
  }
}

TEST(InformativeTest, ForwardSearchMatchesBackwardReference) {
  // Eight synthetic graphs (24 labels) and, as seed 9, one whose label
  // masks take two words.
  std::vector<Graph> graphs;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    graphs.push_back(BuildSyntheticDataset(300, seed).graph);
  }
  graphs.push_back(WideAlphabetGraph(120, 9));
  ASSERT_TRUE(SomeNodeSpansTwoMaskWords(graphs.back()));
  for (uint64_t seed = 1; seed <= graphs.size(); ++seed) {
    const Graph& g = graphs[seed - 1];
    std::vector<NodeId> order(g.num_nodes());
    std::iota(order.begin(), order.end(), NodeId{0});
    Rng rng(seed);
    rng.Shuffle(&order);
    for (size_t num_negatives :
         {size_t{0}, size_t{1}, size_t{10}, size_t{100},
          size_t{g.num_nodes() - 1}}) {
      const std::vector<NodeId> negatives(order.begin(),
                                          order.begin() + num_negatives);
      for (uint32_t k = 0; k <= 4; ++k) {
        SubsetCoverage cov = CoverageOf(g, negatives, k);
        EXPECT_TRUE(ComputeKInformative(g, cov) ==
                    KInformativeReference(g, cov))
            << "seed=" << seed << " negatives=" << num_negatives
            << " k=" << k;
      }
    }
  }
}

/// Two chains whose search reaches one (node, coverage state) pair at two
/// budgets, one too small for the pair's only uncovered path and one just
/// large enough. The negative node 16 loops on a, so every a^j keeps the
/// coverage state {16}, and from nodes 3 and 10 the first uncovered word is
/// aaab (length 4). A root one a-step from the chain asks with budget
/// k − 1, a root two steps away with k − 2, so at k = 5 the budgets are 4
/// (enough) and 3 (one short). Roots run in id order: node 0 (far) before
/// node 1 (near) on the first chain, node 8 (near) before node 9 (far) on
/// the second, so each of the memo's two bounds is read by a later root.
Graph MemoBoundsChains() {
  GraphBuilder b;
  b.InternLabels({"a", "b"});
  b.AddNodes(17);
  for (auto [far, near, hop, u, first] :
       {std::tuple<NodeId, NodeId, NodeId, NodeId, NodeId>{0, 1, 2, 3, 4},
        {9, 8, 11, 10, 12}}) {
    b.AddEdge(far, "a", hop);
    b.AddEdge(hop, "a", u);
    b.AddEdge(near, "a", u);
    b.AddEdge(u, "a", first);
    b.AddEdge(first, "a", first + 1);
    b.AddEdge(first + 1, "a", first + 2);
    b.AddEdge(first + 2, "b", first + 3);
  }
  b.AddEdge(16, "a", 16);
  return b.Build();
}

TEST(InformativeTest, ForwardSearchMatchesBackwardReferenceOnFixtures) {
  const Graph fig5 = Figure5Inconsistent();
  const Graph chains = MemoBoundsChains();
  const std::vector<std::pair<const Graph*, std::vector<NodeId>>> cases = {
      {&fig5, {}},        {&fig5, {1}},   {&fig5, {1, 2}},
      {&fig5, {0, 1, 2}}, {&chains, {16}}, {&chains, {3, 16}},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    const auto& [g, negatives] = cases[c];
    for (uint32_t k = 0; k <= 6; ++k) {
      SubsetCoverage cov = CoverageOf(*g, negatives, k);
      EXPECT_TRUE(ComputeKInformative(*g, cov) ==
                  KInformativeReference(*g, cov))
          << "case " << c << " k=" << k;
    }
  }
  SubsetCoverage cov = CoverageOf(chains, {16}, 5);
  EXPECT_EQ(ComputeKInformative(chains, cov).ToIndices(),
            (std::vector<uint32_t>{1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 14}));
}

TEST(InformativeTest, EmptyNegativesMakeEveryoneInformative) {
  Graph g = Figure3G0();
  SubsetCoverage cov = CoverageOf(g, {}, 2);
  BitVector informative = ComputeKInformative(g, cov);
  EXPECT_EQ(informative.Count(), g.num_nodes());
}

TEST(InformativeTest, KInformativeImpliesInformative) {
  // Sec. 4.2: "If a node is k-informative, then it is also informative."
  Graph g = Figure3G0();
  Sample sample;
  sample.negative = {1, 6};
  SubsetCoverage cov = CoverageOf(g, sample.negative, 3);
  BitVector informative = ComputeKInformative(g, cov);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!informative.Test(v) || sample.IsLabeled(v)) continue;
    auto exact = IsInformativeExact(g, sample, v);
    ASSERT_TRUE(exact.ok());
    EXPECT_TRUE(*exact) << "node " << v;
  }
}

/// Brute force for UncoveredPathCounter: enumerates the node sequences of
/// length ≤ `remaining` from a node and counts those whose word no negative
/// has a path for.
struct UncoveredPathWalker {
  const Graph& g;
  const std::vector<NodeId>& negatives;
  uint64_t count = 0;

  void Walk(NodeId node, Word word, uint32_t remaining) {
    if (std::none_of(negatives.begin(), negatives.end(),
                     [&](NodeId n) { return g.HasPathFrom(n, word); })) {
      ++count;
    }
    if (remaining == 0) return;
    for (const LabeledEdge& e : g.OutEdges(node)) {
      Word next = word;
      next.push_back(e.label);
      Walk(e.node, std::move(next), remaining - 1);
    }
  }
};

TEST(UncoveredPathCounterTest, CountsMatchBruteForce) {
  // k = 0 and 1 never reach the memo, and the root is never memoized, so
  // each budget class takes its own path. The second graph's label masks
  // take two words.
  const Graph fig3 = Figure3G0();
  const Graph wide = WideAlphabetGraph(40, 3);
  ASSERT_TRUE(SomeNodeSpansTwoMaskWords(wide));
  const std::vector<std::pair<const Graph*, std::vector<NodeId>>> cases = {
      {&fig3, {1, 6}}, {&wide, {0, 7, 19, 33}}};
  for (const auto& [g, negatives] : cases) {
    for (uint32_t k = 0; k <= 4; ++k) {
      SubsetCoverage cov = CoverageOf(*g, negatives, k);
      UncoveredPathCounter counter(*g, cov);
      for (NodeId v = 0; v < g->num_nodes(); ++v) {
        UncoveredPathWalker walker{*g, negatives};
        walker.Walk(v, {}, k);
        EXPECT_EQ(counter.Count(v), walker.count)
            << g->num_symbols() << " labels, k=" << k << " node " << v;
      }
    }
  }
}

TEST(UncoveredPathCounterTest, MemoKeysDoNotAliasAtLargeK) {
  // k = 300 takes budgets past 8 bits. Node 0 loops on a, as does the
  // negative node 1, so every path from 0 is covered, with the coverage
  // state {1} at every budget. Node 3 reaches 0 by b, which node 1 follows
  // into the sink node 2; the following a-steps leave the empty subset at
  // budgets 298 down to 1. Counted after node 0, a memo key that packs the
  // budget into 8 bits would read those as node 0's covered entries.
  GraphBuilder b;
  b.InternLabels({"a", "b"});
  b.AddNodes(4);
  b.AddEdge(0, "a", 0);
  b.AddEdge(1, "a", 1);
  b.AddEdge(1, "b", 2);
  b.AddEdge(3, "b", 0);
  Graph g = b.Build();
  const uint32_t k = 300;
  SubsetCoverage cov = CoverageOf(g, {1}, k);
  UncoveredPathCounter counter(g, cov);
  EXPECT_EQ(counter.Count(0), 0u);
  EXPECT_EQ(counter.Count(1), 0u);
  EXPECT_EQ(counter.Count(2), 0u);
  // b·a^j for j = 1..k-1.
  EXPECT_EQ(counter.Count(3), k - 1);
}

TEST(UncoveredPathCounterTest, ZeroForFullyCoveredNode) {
  // ν4's only path is ε, covered once any negative exists.
  Graph g = Figure3G0();
  SubsetCoverage cov = CoverageOf(g, {1, 6}, 3);
  UncoveredPathCounter counter(g, cov);
  EXPECT_EQ(counter.Count(3), 0u);
}

TEST(StrategyTest, BothStrategiesReturnInformativeUnlabeledNodes) {
  Graph g = Figure3G0();
  Sample sample;
  sample.negative = {1, 6};
  SubsetCoverage cov = CoverageOf(g, sample.negative, 3);
  BitVector informative = ComputeKInformative(g, cov);
  Rng rng(5);
  for (StrategyKind kind :
       {StrategyKind::kRandom, StrategyKind::kSmallestPaths}) {
    auto pick = PickNextNode(g, sample, cov, informative, kind, &rng);
    ASSERT_TRUE(pick.has_value());
    EXPECT_TRUE(informative.Test(*pick));
    EXPECT_FALSE(sample.IsLabeled(*pick));
  }
}

TEST(StrategyTest, KSmallestPicksMinimalCount) {
  Graph g = Figure3G0();
  Sample sample;
  sample.negative = {1, 6};
  SubsetCoverage cov = CoverageOf(g, sample.negative, 3);
  BitVector informative = ComputeKInformative(g, cov);
  Rng rng(6);
  auto pick = PickNextNode(g, sample, cov, informative,
                           StrategyKind::kSmallestPaths, &rng);
  ASSERT_TRUE(pick.has_value());
  UncoveredPathCounter counter(g, cov);
  uint64_t picked_count = counter.Count(*pick);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (informative.Test(v) && !sample.IsLabeled(v)) {
      EXPECT_LE(picked_count, counter.Count(v)) << "node " << v;
    }
  }
}

TEST(StrategyTest, NoCandidatesReturnsNullopt) {
  // Fig. 5 with both negatives labeled: the positive node is the only
  // remaining one and all of its paths are covered.
  Graph g = Figure5Inconsistent();
  Sample sample;
  sample.negative = {1, 2};
  sample.positive = {};
  SubsetCoverage cov = CoverageOf(g, sample.negative, 4);
  BitVector informative = ComputeKInformative(g, cov);
  Rng rng(7);
  auto pick = PickNextNode(g, sample, cov, informative,
                           StrategyKind::kRandom, &rng);
  EXPECT_FALSE(pick.has_value());
}

}  // namespace
}  // namespace rpqlearn
