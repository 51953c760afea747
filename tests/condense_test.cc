#include "graph/condense.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "automata/dfa.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "query/eval.h"
#include "query/eval_reference.h"
#include "query/path_query.h"
#include "util/bit_vector.h"
#include "util/random.h"

namespace rpqlearn {
namespace {

// Structural invariants of the per-label SCC condensation (components vs a
// brute-force mutual-reachability model, member/DAG conservation, summary
// consistency) plus the evaluation-level differential: star-heavy queries
// across condense × threads × force modes against the seed
// reference, with engagement counters proving the component path ran.

Graph RandomGraph(uint64_t seed, uint32_t num_nodes, size_t num_edges,
                  uint32_t num_labels) {
  ErdosRenyiOptions options;
  options.num_nodes = num_nodes;
  options.num_edges = num_edges;
  options.num_labels = num_labels;
  options.seed = seed;
  return GenerateErdosRenyi(options);
}

/// Nodes reachable from `src` over edges labeled `a` (including src).
BitVector LabelReachable(const Graph& graph, Symbol a, NodeId src) {
  BitVector reached(graph.num_nodes());
  std::vector<NodeId> stack{src};
  reached.Set(src);
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId u : graph.OutNeighbors(v, a)) {
      if (!reached.Test(u)) {
        reached.Set(u);
        stack.push_back(u);
      }
    }
  }
  return reached;
}

void CheckLabelCondensation(const Graph& graph, Symbol a,
                            const LabelCondensation& label) {
  const uint32_t nv = graph.num_nodes();
  ASSERT_EQ(label.num_nodes(), nv);
  const uint32_t num_comps = label.num_components();

  // Components match mutual reachability (the SCC definition), checked
  // against a brute-force per-node BFS model.
  std::vector<BitVector> reach;
  reach.reserve(nv);
  for (NodeId v = 0; v < nv; ++v) {
    reach.push_back(LabelReachable(graph, a, v));
  }
  for (NodeId u = 0; u < nv; ++u) {
    ASSERT_LT(label.ComponentOf(u), num_comps);
    for (NodeId v = 0; v < nv; ++v) {
      const bool mutual = reach[u].Test(v) && reach[v].Test(u);
      EXPECT_EQ(label.ComponentOf(u) == label.ComponentOf(v), mutual)
          << "label " << a << " nodes " << u << "," << v;
    }
  }

  // Members partition the node set, ascending per component, consistent
  // with the component map.
  size_t total_members = 0;
  for (uint32_t c = 0; c < num_comps; ++c) {
    const auto members = label.Members(c);
    ASSERT_FALSE(members.empty()) << "empty component " << c;
    total_members += members.size();
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    for (NodeId v : members) EXPECT_EQ(label.ComponentOf(v), c);
  }
  EXPECT_EQ(total_members, nv);

  // DAG conservation: every graph edge is intra-component or a DAG edge;
  // every DAG edge has a witness graph edge; DagIn is the exact transpose;
  // component ids are reverse topological (every DagOut target is lower).
  std::vector<std::pair<uint32_t, uint32_t>> expected_dag;
  for (NodeId v = 0; v < nv; ++v) {
    for (NodeId u : graph.OutNeighbors(v, a)) {
      const uint32_t cv = label.ComponentOf(v);
      const uint32_t cu = label.ComponentOf(u);
      if (cv != cu) expected_dag.emplace_back(cv, cu);
    }
  }
  std::sort(expected_dag.begin(), expected_dag.end());
  expected_dag.erase(std::unique(expected_dag.begin(), expected_dag.end()),
                     expected_dag.end());

  std::vector<std::pair<uint32_t, uint32_t>> actual_dag;
  std::vector<std::pair<uint32_t, uint32_t>> transposed;
  for (uint32_t c = 0; c < num_comps; ++c) {
    const auto out = label.DagOut(c);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    for (uint32_t succ : out) {
      EXPECT_LT(succ, c) << "DAG edge not reverse-topological";
      actual_dag.emplace_back(c, succ);
    }
    const auto in = label.DagIn(c);
    EXPECT_TRUE(std::is_sorted(in.begin(), in.end()));
    for (uint32_t pred : in) {
      EXPECT_GT(pred, c);
      transposed.emplace_back(pred, c);
    }
  }
  std::sort(actual_dag.begin(), actual_dag.end());
  std::sort(transposed.begin(), transposed.end());
  EXPECT_EQ(actual_dag, expected_dag);
  EXPECT_EQ(transposed, expected_dag);
  EXPECT_EQ(label.num_dag_edges(), expected_dag.size());

  // Summary recomputation from the member CSR.
  const CondensationSummary& summary = label.summary();
  EXPECT_EQ(summary.num_components, num_comps);
  uint32_t largest = nv == 0 ? 0 : 1;
  uint32_t nontrivial = 0, collapsed = 0;
  for (uint32_t c = 0; c < num_comps; ++c) {
    const uint32_t size = static_cast<uint32_t>(label.Members(c).size());
    largest = std::max(largest, size);
    if (size >= 2) {
      ++nontrivial;
      collapsed += size;
    }
  }
  EXPECT_EQ(summary.largest_component, largest);
  EXPECT_EQ(summary.nontrivial_components, nontrivial);
  EXPECT_EQ(summary.collapsed_nodes, collapsed);
  EXPECT_DOUBLE_EQ(summary.collapse_ratio,
                   nv == 0 ? 0.0 : static_cast<double>(collapsed) / nv);
}

TEST(CondenseTest, MatchesBruteForceSccOnRandomGraphs) {
  for (uint64_t seed : {1u, 7u, 23u, 91u}) {
    for (uint32_t nodes : {2u, 9u, 30u, 48u}) {
      const Graph graph =
          RandomGraph(seed * 1000 + nodes, nodes, 4 * nodes, 3);
      const CondensedGraph cond = CondensedGraph::Build(graph);
      ASSERT_EQ(cond.num_nodes(), graph.num_nodes());
      for (Symbol a = 0; a < graph.num_symbols(); ++a) {
        ASSERT_TRUE(cond.HasLabel(a));
        CheckLabelCondensation(graph, a, cond.Label(a));
      }
    }
  }
}

TEST(CondenseTest, HandcraftedCycleAndDag) {
  // 0 →a 1 →a 2 →a 0 is one component; 3 →a 0 hangs off it; 4 is isolated
  // under a (it only has a b-self-loop, which makes it cyclic under b).
  GraphBuilder builder;
  builder.InternLabels({"a", "b"});
  builder.AddNodes(5);
  builder.AddEdge(0, "a", 1);
  builder.AddEdge(1, "a", 2);
  builder.AddEdge(2, "a", 0);
  builder.AddEdge(3, "a", 0);
  builder.AddEdge(4, "b", 4);
  const Graph graph = builder.Build();
  const CondensedGraph cond = CondensedGraph::Build(graph);

  const LabelCondensation& a = cond.Label(0);
  EXPECT_EQ(a.num_components(), 3u);
  EXPECT_EQ(a.ComponentOf(0), a.ComponentOf(1));
  EXPECT_EQ(a.ComponentOf(0), a.ComponentOf(2));
  EXPECT_NE(a.ComponentOf(0), a.ComponentOf(3));
  EXPECT_NE(a.ComponentOf(0), a.ComponentOf(4));
  EXPECT_EQ(a.summary().largest_component, 3u);
  EXPECT_EQ(a.summary().nontrivial_components, 1u);
  EXPECT_EQ(a.summary().collapsed_nodes, 3u);
  // 3's component points at the cycle's component in the DAG.
  const uint32_t c3 = a.ComponentOf(3);
  ASSERT_EQ(a.DagOut(c3).size(), 1u);
  EXPECT_EQ(a.DagOut(c3)[0], a.ComponentOf(0));
  CheckLabelCondensation(graph, 0, a);

  // Under b, everything is a singleton; 4's self-loop stays intra-component
  // (no DAG self-edges).
  const LabelCondensation& b = cond.Label(1);
  EXPECT_EQ(b.num_components(), 5u);
  EXPECT_EQ(b.num_dag_edges(), 0u);
  EXPECT_EQ(b.summary().nontrivial_components, 0u);
  CheckLabelCondensation(graph, 1, b);
}

TEST(CondenseTest, EmptyAndLabelSubsetBuilds) {
  const Graph empty;
  const CondensedGraph cond_empty = CondensedGraph::Build(empty);
  EXPECT_EQ(cond_empty.num_nodes(), 0u);
  EXPECT_EQ(cond_empty.num_symbols(), 0u);
  EXPECT_FALSE(cond_empty.HasLabel(0));

  const Graph graph = RandomGraph(5, 20, 60, 3);
  const Symbol only = 1;
  const CondensedGraph cond = CondensedGraph::Build(graph, {&only, 1});
  EXPECT_FALSE(cond.HasLabel(0));
  ASSERT_TRUE(cond.HasLabel(1));
  EXPECT_FALSE(cond.HasLabel(2));
  CheckLabelCondensation(graph, 1, cond.Label(1));

  // The subset build's condensation is identical to the full build's.
  const CondensedGraph full = CondensedGraph::Build(graph);
  const LabelCondensation& subset_label = cond.Label(1);
  const LabelCondensation& full_label = full.Label(1);
  ASSERT_EQ(subset_label.num_components(), full_label.num_components());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    EXPECT_EQ(subset_label.ComponentOf(v), full_label.ComponentOf(v));
  }
}

// ------------------------------------------------------- eval differential

Dfa StarQuery(const Graph& graph, const std::string& pattern) {
  Alphabet alphabet = graph.alphabet();
  auto q = PathQuery::Parse(pattern, &alphabet, graph.num_symbols());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q->dfa();
}

/// A cyclic fixture with large per-label SCCs: a ring of l0-cliques bridged
/// by l0 edges (one giant l0 SCC), an l1 ring over half the nodes, and l2
/// chords that a star-concat query must traverse per edge.
Graph RingOfCliques() {
  GraphBuilder builder;
  builder.InternLabels({"l0", "l1", "l2"});
  constexpr uint32_t kCliques = 6;
  constexpr uint32_t kCliqueSize = 5;
  builder.AddNodes(kCliques * kCliqueSize);
  for (uint32_t c = 0; c < kCliques; ++c) {
    const NodeId base = c * kCliqueSize;
    for (uint32_t i = 0; i < kCliqueSize; ++i) {
      for (uint32_t j = 0; j < kCliqueSize; ++j) {
        if (i != j) builder.AddEdge(base + i, "l0", base + j);
      }
    }
    const NodeId next_base = ((c + 1) % kCliques) * kCliqueSize;
    builder.AddEdge(base, "l0", next_base);
    builder.AddEdge(next_base + 1, "l0", base + 1);
  }
  const uint32_t nv = kCliques * kCliqueSize;
  for (NodeId v = 0; v < nv / 2; ++v) {
    builder.AddEdge(v, "l1", (v + 1) % (nv / 2));
  }
  for (NodeId v = 0; v < nv; v += 3) {
    builder.AddEdge(v, "l2", (v * 7 + 11) % nv);
  }
  return builder.Build();
}

std::vector<std::pair<NodeId, NodeId>> ReferenceBinary(const Graph& graph,
                                                       const Dfa& query) {
  return EvalBinaryReference(graph, query);
}

TEST(EvalCondenseTest, StarQueriesMatchReferenceAcrossTheKnobCube) {
  const Graph fixtures[] = {RingOfCliques(), RandomGraph(17, 40, 200, 3)};
  const char* patterns[] = {"l0*", "(l0+l1)*", "(l0+l1)*.l2", "l2.l0*"};
  for (const Graph& graph : fixtures) {
    for (const char* pattern : patterns) {
      const Dfa query = StarQuery(graph, pattern);
      const auto expected_pairs = ReferenceBinary(graph, query);
      const BitVector expected_monadic = EvalMonadicReference(graph, query);
      for (CondenseMode condense :
           {CondenseMode::kOff, CondenseMode::kOn, CondenseMode::kAuto}) {
        for (uint32_t threads : {1u, 8u}) {
          for (EvalMode mode :
               {EvalMode::kAuto, EvalMode::kSparse, EvalMode::kDense}) {
            EvalOptions options;
            options.condense = condense;
            options.threads = threads;
            options.force_mode = mode;
            options.dense_threshold = 0.05;
            options.parallel_threshold_pairs = 0;
            const auto config = [&] {
              return std::string(pattern) + " condense=" +
                     std::to_string(static_cast<int>(condense)) +
                     " threads=" + std::to_string(threads) +
                     " mode=" + std::to_string(static_cast<int>(mode));
            };
            auto pairs = EvalBinary(graph, query, options);
            ASSERT_TRUE(pairs.ok()) << config();
            EXPECT_EQ(*pairs, expected_pairs) << config();
            auto monadic = EvalMonadic(graph, query, options);
            ASSERT_TRUE(monadic.ok()) << config();
            EXPECT_TRUE(*monadic == expected_monadic) << config();
          }
        }
      }
    }
  }
}

TEST(EvalCondenseTest, EngagementCountersProveTheComponentPathRan) {
  const Graph graph = RingOfCliques();
  const Dfa query = StarQuery(graph, "(l0+l1)*.l2");

  EvalStats on_stats;
  EvalOptions on;
  on.threads = 1;
  on.condense = CondenseMode::kOn;
  on.stats = &on_stats;
  ASSERT_TRUE(EvalBinary(graph, query, on).ok());
  EXPECT_GT(on_stats.condensed_expansions.load(), 0u);
  EXPECT_GT(on_stats.components_collapsed.load(), 0u);

  // The fixture's giant l0 SCC satisfies the kAuto summary gate too (the
  // fixture holds ≥ kAutoCondenseMinEdges edges).
  ASSERT_GE(graph.num_edges(), 64u);
  EvalStats auto_stats;
  EvalOptions auto_mode;
  auto_mode.threads = 1;
  auto_mode.condense = CondenseMode::kAuto;
  auto_mode.stats = &auto_stats;
  ASSERT_TRUE(EvalBinary(graph, query, auto_mode).ok());
  EXPECT_GT(auto_stats.condensed_expansions.load(), 0u);

  EvalStats off_stats;
  EvalOptions off;
  off.threads = 1;
  off.condense = CondenseMode::kOff;
  off.stats = &off_stats;
  ASSERT_TRUE(EvalBinary(graph, query, off).ok());
  EXPECT_EQ(off_stats.condensed_expansions.load(), 0u);
  EXPECT_EQ(off_stats.components_collapsed.load(), 0u);

  // Monadic sweeps engage through the same plan.
  EvalStats monadic_stats;
  EvalOptions monadic_on = on;
  monadic_on.stats = &monadic_stats;
  ASSERT_TRUE(EvalMonadic(graph, query, monadic_on).ok());
  EXPECT_GT(monadic_stats.condensed_expansions.load(), 0u);
}

TEST(EvalCondenseTest, BoundedMonadicNeverCondensesAndStaysLevelExact) {
  // Collapsing an SCC would merge BFS levels, so the bounded sweep must
  // ignore the condense knob entirely: counters stay zero and every bound
  // matches the seed reference even with condense pinned on.
  const Graph graph = RingOfCliques();
  const Dfa query = StarQuery(graph, "(l0+l1)*.l2");
  for (uint32_t bound : {0u, 1u, 2u, 5u, 9u}) {
    EvalStats stats;
    EvalOptions on;
    on.threads = 1;
    on.condense = CondenseMode::kOn;
    on.stats = &stats;
    StatusOr<BitVector> bounded =
        EvalMonadicBounded(graph, query, bound, on);
    ASSERT_TRUE(bounded.ok());
    EXPECT_TRUE(*bounded == EvalMonadicBoundedReference(graph, query, bound))
        << "bound " << bound;
    EXPECT_EQ(stats.condensed_expansions.load(), 0u) << "bound " << bound;
  }
}

TEST(EvalCondenseTest, CachesAreConsultedAndMismatchesIgnored) {
  const Graph graph = RingOfCliques();
  const Dfa query = StarQuery(graph, "(l0+l1)*.l2");
  const auto expected = ReferenceBinary(graph, query);

  // Matching caches: same results, and the condensation cache actually
  // engages (counters prove the component path ran without a per-call
  // build).
  const CondensedGraph condensed = CondensedGraph::Build(graph);
  EvalStats stats;
  EvalOptions options;
  options.threads = 1;
  options.condense = CondenseMode::kOn;
  options.condensed_cache = &condensed;
  options.stats = &stats;
  auto cached = EvalBinary(graph, query, options);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*cached, expected);
  EXPECT_GT(stats.condensed_expansions.load(), 0u);

  // Mismatching caches (built for a different graph) are ignored, not
  // trusted: results still match the reference.
  const Graph other = RandomGraph(3, 11, 30, 3);
  const CondensedGraph other_condensed = CondensedGraph::Build(other);
  EvalOptions mismatched = options;
  mismatched.condensed_cache = &other_condensed;
  mismatched.stats = nullptr;
  auto fresh = EvalBinary(graph, query, mismatched);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, expected);
}

// --- incremental maintenance under edge updates -----------------------

/// Checks the maintained condensation against a rebuild-from-scratch: the
/// component *partition* must match up to a bijection of component ids (a
/// kDagRebuilt repair freezes the old id assignment, which is one of many
/// valid reverse-topological orders), members/DAG/summary must agree
/// through that bijection, the reverse-topological id invariant must hold
/// on the maintained ids, and the version stamp must track the graph.
void CheckEquivalentToFresh(const Graph& graph, const CondensedGraph& cond) {
  ASSERT_EQ(cond.num_nodes(), graph.num_nodes());
  ASSERT_EQ(cond.num_graph_edges(), graph.num_edges());
  ASSERT_EQ(cond.graph_version(), graph.version());
  const CondensedGraph fresh = CondensedGraph::Build(graph);
  for (Symbol a = 0; a < graph.num_symbols(); ++a) {
    if (!cond.HasLabel(a)) continue;
    const LabelCondensation& maintained = cond.Label(a);
    const LabelCondensation& rebuilt = fresh.Label(a);
    ASSERT_EQ(maintained.num_components(), rebuilt.num_components())
        << "label " << a;
    const uint32_t num_comps = maintained.num_components();

    // Bijection maintained id -> fresh id, consistent on every node.
    constexpr uint32_t kUnmapped = 0xffffffffu;
    std::vector<uint32_t> to_fresh(num_comps, kUnmapped);
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      uint32_t& mapped = to_fresh[maintained.ComponentOf(v)];
      if (mapped == kUnmapped) mapped = rebuilt.ComponentOf(v);
      ASSERT_EQ(mapped, rebuilt.ComponentOf(v))
          << "label " << a << " node " << v;
    }

    std::set<std::pair<uint32_t, uint32_t>> maintained_dag, rebuilt_dag;
    for (uint32_t c = 0; c < num_comps; ++c) {
      // Members agree through the bijection (both runs are ascending).
      const auto members = maintained.Members(c);
      const auto fresh_members = rebuilt.Members(to_fresh[c]);
      ASSERT_EQ(std::vector<NodeId>(members.begin(), members.end()),
                std::vector<NodeId>(fresh_members.begin(),
                                    fresh_members.end()))
          << "label " << a << " component " << c;
      for (uint32_t d : maintained.DagOut(c)) {
        // Reverse-topological invariant on the maintained ids.
        ASSERT_LT(d, c) << "label " << a;
        maintained_dag.emplace(to_fresh[c], to_fresh[d]);
      }
      for (uint32_t d : rebuilt.DagOut(c)) rebuilt_dag.emplace(c, d);
      // DagIn is the exact transpose of DagOut.
      for (uint32_t d : maintained.DagIn(c)) {
        const auto outs = maintained.DagOut(d);
        ASSERT_TRUE(std::binary_search(outs.begin(), outs.end(), c))
            << "label " << a;
      }
    }
    ASSERT_EQ(maintained_dag, rebuilt_dag) << "label " << a;
    ASSERT_EQ(maintained.num_dag_edges(), rebuilt.num_dag_edges());

    const CondensationSummary& ms = maintained.summary();
    const CondensationSummary& rs = rebuilt.summary();
    EXPECT_EQ(ms.num_components, rs.num_components);
    EXPECT_EQ(ms.largest_component, rs.largest_component);
    EXPECT_EQ(ms.nontrivial_components, rs.nontrivial_components);
    EXPECT_EQ(ms.collapsed_nodes, rs.collapsed_nodes);
  }
}

TEST(DynamicCondenseTest, IncrementalRepairMatchesFreshBuildOnRandomTraces) {
  Rng rng(0x5cc0);
  for (int round = 0; round < 6; ++round) {
    Graph graph = RandomGraph(/*seed=*/400 + round, /*num_nodes=*/30,
                              /*num_edges=*/80, /*num_labels=*/3);
    CondensedGraph cond = CondensedGraph::Build(graph);
    for (int step = 0; step < 120; ++step) {
      const NodeId src = static_cast<NodeId>(rng.NextBelow(graph.num_nodes()));
      const NodeId dst = static_cast<NodeId>(rng.NextBelow(graph.num_nodes()));
      const Symbol a = static_cast<Symbol>(rng.NextBelow(graph.num_symbols()));
      const bool insert = rng.NextBernoulli(0.5);
      const bool mutated = insert ? graph.InsertEdge(src, a, dst)
                                  : graph.DeleteEdge(src, a, dst);
      if (!mutated) continue;
      cond.ApplyEdgeUpdate(graph, a, src, dst, insert);
      if (step % 15 == 0) CheckEquivalentToFresh(graph, cond);
    }
    CheckEquivalentToFresh(graph, cond);
  }
}

TEST(DynamicCondenseTest, RepairPathsClassifyHandcraftedUpdates) {
  GraphBuilder builder;
  const Symbol a = builder.InternLabel("a");
  const Symbol b = builder.InternLabel("b");
  builder.AddNodes(5);
  builder.AddEdge(0, a, 1);
  builder.AddEdge(1, a, 2);
  Graph graph = builder.Build();
  const std::vector<Symbol> only_a{a};
  CondensedGraph cond = CondensedGraph::Build(graph, only_a);

  auto apply = [&](Symbol label, NodeId src, NodeId dst, bool insert) {
    const bool mutated = insert ? graph.InsertEdge(src, label, dst)
                                : graph.DeleteEdge(src, label, dst);
    EXPECT_TRUE(mutated);
    return cond.ApplyEdgeUpdate(graph, label, src, dst, insert);
  };

  // Label b was never condensed: bookkeeping only.
  EXPECT_EQ(apply(b, 3, 4, true), CondenseRepair::kUntouchedLabel);
  EXPECT_EQ(cond.graph_version(), graph.version());

  // Forward chord along the chain 0 -> 1 -> 2: ids are reverse topological
  // (sinks complete first), so c(0) > c(2) and the edge cannot close a
  // cycle — components frozen, DAG rebuilt.
  EXPECT_EQ(apply(a, 0, 2, true), CondenseRepair::kDagRebuilt);
  CheckEquivalentToFresh(graph, cond);

  // Back edge 2 -> 0 merges the whole chain into one SCC: re-Tarjan.
  EXPECT_EQ(apply(a, 2, 0, true), CondenseRepair::kLabelRetarjaned);
  EXPECT_EQ(cond.Label(a).num_components(), 3u);  // {0,1,2}, {3}, {4}
  CheckEquivalentToFresh(graph, cond);

  // Intra-component insert: absorbed, nothing structural.
  EXPECT_EQ(apply(a, 1, 0, true), CondenseRepair::kNoStructuralChange);
  CheckEquivalentToFresh(graph, cond);

  // Self-loops live inside their component in both directions.
  EXPECT_EQ(apply(a, 3, 3, true), CondenseRepair::kNoStructuralChange);
  EXPECT_EQ(apply(a, 3, 3, false), CondenseRepair::kNoStructuralChange);

  // Cross-component insert and delete both stay on the frozen map.
  EXPECT_EQ(apply(a, 3, 0, true), CondenseRepair::kDagRebuilt);
  CheckEquivalentToFresh(graph, cond);
  EXPECT_EQ(apply(a, 3, 0, false), CondenseRepair::kDagRebuilt);
  CheckEquivalentToFresh(graph, cond);

  // Intra-component delete may split the SCC: conservative re-Tarjan (here
  // the component survives via the chord, which the rebuild confirms).
  EXPECT_EQ(apply(a, 1, 2, false), CondenseRepair::kLabelRetarjaned);
  EXPECT_EQ(cond.Label(a).num_components(), 3u);
  CheckEquivalentToFresh(graph, cond);
}

TEST(DynamicCondenseTest, UpdatesTouchingOneLabelLeaveOtherLabelsFrozen) {
  Graph graph = RandomGraph(/*seed=*/21, /*num_nodes=*/25, /*num_edges=*/70,
                            /*num_labels=*/3);
  CondensedGraph cond = CondensedGraph::Build(graph);
  const Symbol touched = 0;
  const Symbol frozen = 1;

  // Identity and storage of the untouched label's snapshot must survive
  // arbitrary repairs of the touched label (per-label invalidation keying:
  // an update carrying label `a` may not disturb label `b`).
  const LabelCondensation* frozen_before = &cond.Label(frozen);
  const NodeId* members_before = cond.Label(frozen).Members(0).data();
  const uint64_t frozen_label_version = graph.label_version(frozen);

  Rng rng(0xf02e);
  int applied = 0;
  while (applied < 40) {
    const NodeId src = static_cast<NodeId>(rng.NextBelow(graph.num_nodes()));
    const NodeId dst = static_cast<NodeId>(rng.NextBelow(graph.num_nodes()));
    const bool insert = rng.NextBernoulli(0.5);
    const bool mutated = insert ? graph.InsertEdge(src, touched, dst)
                                : graph.DeleteEdge(src, touched, dst);
    if (!mutated) continue;
    cond.ApplyEdgeUpdate(graph, touched, src, dst, insert);
    ++applied;
  }

  EXPECT_EQ(&cond.Label(frozen), frozen_before);
  EXPECT_EQ(cond.Label(frozen).Members(0).data(), members_before);
  EXPECT_EQ(graph.label_version(frozen), frozen_label_version);
  EXPECT_GT(graph.label_version(touched), 0u);
  CheckEquivalentToFresh(graph, cond);
}

TEST(EvalCondenseTest, MutatedGraphRejectsStaleCachesEvenAtSameEdgeCount) {
  Graph graph = RingOfCliques();
  const Dfa query = StarQuery(graph, "(l0+l1)*.l2");
  const Symbol l0 = 0;

  // Caches built pre-mutation, then a delete+insert pair that returns the
  // edge count (and node count) to the cached values — only the version
  // betrays them.
  CondensedGraph condensed = CondensedGraph::Build(graph);
  const size_t edges_before = graph.num_edges();
  ASSERT_TRUE(graph.DeleteEdge(0, l0, 1));
  ASSERT_TRUE(graph.InsertEdge(0, l0, 7));
  ASSERT_EQ(graph.num_edges(), edges_before);
  ASSERT_NE(condensed.graph_version(), graph.version());

  const auto expected = ReferenceBinary(graph, query);
  EvalOptions options;
  options.threads = 1;
  options.condense = CondenseMode::kOn;
  options.condensed_cache = &condensed;
  auto stale = EvalBinary(graph, query, options);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(*stale, expected);  // stale caches rejected, not trusted

  // The same caches maintained through ApplyEdgeUpdate match the live
  // version and engage.
  condensed.ApplyEdgeUpdate(graph, l0, 0, 1, /*inserted=*/false);
  // (graph mutated twice before the first repair call; re-sync via the
  // second update, which carries the final version.)
  condensed.ApplyEdgeUpdate(graph, l0, 0, 7, /*inserted=*/true);
  ASSERT_EQ(condensed.graph_version(), graph.version());
  EvalStats stats;
  options.stats = &stats;
  auto maintained = EvalBinary(graph, query, options);
  ASSERT_TRUE(maintained.ok());
  EXPECT_EQ(*maintained, expected);
  EXPECT_GT(stats.condensed_expansions.load(), 0u);
}

}  // namespace
}  // namespace rpqlearn
