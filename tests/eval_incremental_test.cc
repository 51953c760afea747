// Unit tests of the incremental-maintenance layer
// (src/query/eval_incremental.h): a materialized monadic query, registered
// on a DynamicGraph or held over a bare Graph, must stay bit-identical to
// from-scratch evaluation across inserts (delta-frontier repair), deletes
// (per-label invalidation + lazy rebuild), and compactions; the telemetry
// must name the repair path every update took; and the pending-delta
// auto-compaction policy must fire exactly at its threshold without ever
// perturbing results.

#include "query/eval_incremental.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "graph/dynamic.h"
#include "graph/graph.h"
#include "query/eval.h"
#include "query/path_query.h"
#include "util/random.h"
#include "eval_test_util.h"

namespace rpqlearn {
namespace {

Dfa CompileQuery(const std::string& pattern, const Graph& graph) {
  Alphabet alphabet = graph.alphabet();
  auto q = PathQuery::Parse(pattern, &alphabet, graph.num_symbols());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q->dfa();
}

/// 8-node, 3-label graph with room for result-changing inserts.
Graph SmallGraph() {
  GraphBuilder builder;
  builder.AddNodes(8);
  builder.AddEdge(0, "a", 1);
  builder.AddEdge(1, "a", 2);
  builder.AddEdge(2, "b", 3);
  builder.AddEdge(4, "a", 5);
  builder.AddEdge(5, "b", 6);
  builder.AddEdge(6, "c", 7);
  return builder.Build();
}

/// "a.b" as a hand-built two-symbol DFA over the three-label SmallGraph:
/// label "c" (symbol 2) lies outside the query alphabet entirely.
Dfa AThenBOverTwoSymbols() {
  Dfa query(2);
  const StateId q0 = query.AddState(false);
  const StateId q1 = query.AddState(false);
  const StateId q2 = query.AddState(true);
  query.SetTransition(q0, 0, q1);
  query.SetTransition(q1, 1, q2);
  return query;
}

TEST(MaterializedMonadicTest, InitialBuildMatchesFromScratch) {
  Graph graph = SmallGraph();
  Dfa query = CompileQuery("a*.b", graph);
  auto mm = MaterializedMonadic::Create(graph, query);
  ASSERT_TRUE(mm.ok()) << mm.status().ToString();
  auto selected = (*mm)->Results();
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(**selected, EvalMonadicOrDie(graph, query));
  EXPECT_EQ((*mm)->stats().full_evals, 1u);
}

TEST(MaterializedMonadicTest, InsertRepairIsBitIdentical) {
  DynamicGraph dynamic(SmallGraph());
  Dfa query = CompileQuery("a*.b", dynamic.graph());
  const Symbol a = *dynamic.graph().alphabet().Find("a");
  const Symbol b = *dynamic.graph().alphabet().Find("b");
  auto mm = dynamic.MaterializeMonadic(query);
  ASSERT_TRUE(mm.ok()) << mm.status().ToString();

  // Result-growing inserts (7 -a-> 0 selects 7 through 0's a*b path,
  // 3 -a-> 4 selects 3) and inserts out of already-selected nodes, whose
  // delta frontier is empty.
  const std::vector<std::tuple<NodeId, Symbol, NodeId>> inserts = {
      {7, a, 0}, {7, b, 7}, {3, a, 4}, {2, a, 4}};
  for (const auto& [u, label, v] : inserts) {
    ASSERT_TRUE(dynamic.InsertEdge(u, label, v));
    auto selected = (*mm)->Results();
    ASSERT_TRUE(selected.ok());
    EXPECT_EQ(**selected, EvalMonadicOrDie(dynamic.graph(), query));
  }
  // Every insert was repaired in place — no rebuild beyond the initial one.
  EXPECT_EQ((*mm)->stats().full_evals, 1u);
  EXPECT_EQ((*mm)->stats().insert_repairs + (*mm)->stats().insert_noops, 4u);
  EXPECT_GT((*mm)->stats().insert_repairs, 0u);
  EXPECT_GT((*mm)->stats().insert_noops, 0u);
  EXPECT_GT((*mm)->stats().delta_cells_seeded, 0u);
}

TEST(MaterializedMonadicTest, InsertAndDeleteStayBitIdentical) {
  DynamicGraph dynamic(SmallGraph());
  Dfa query = CompileQuery("a*.b", dynamic.graph());
  const Symbol a = *dynamic.graph().alphabet().Find("a");
  const Symbol b = *dynamic.graph().alphabet().Find("b");
  auto mm = dynamic.MaterializeMonadic(query);
  ASSERT_TRUE(mm.ok()) << mm.status().ToString();

  const std::vector<std::tuple<NodeId, Symbol, NodeId, bool>> trace = {
      {0, a, 4, true},   // insert: 0 gains a path into 4's a*b suffix
      {7, a, 0, true},   // insert: 7 newly selected through 0
      {1, a, 2, false},  // delete: fallback rebuild
      {3, b, 3, true},   // insert: b self-loop selects 3 (and a-predecessors)
  };
  for (const auto& [u, label, v, insert] : trace) {
    if (insert) {
      ASSERT_TRUE(dynamic.InsertEdge(u, label, v));
    } else {
      ASSERT_TRUE(dynamic.DeleteEdge(u, label, v));
    }
    auto selected = (*mm)->Results();
    ASSERT_TRUE(selected.ok());
    EXPECT_EQ(**selected, EvalMonadicOrDie(dynamic.graph(), query));
  }
  EXPECT_GT((*mm)->stats().insert_repairs, 0u);
  EXPECT_EQ((*mm)->stats().delete_fallbacks, 1u);
  EXPECT_EQ((*mm)->stats().full_evals, 2u);
}

TEST(MaterializedMonadicTest, DeleteFallsBackToRebuild) {
  DynamicGraph dynamic(SmallGraph());
  Dfa query = CompileQuery("a*.b", dynamic.graph());
  const Symbol a = *dynamic.graph().alphabet().Find("a");
  auto mm = dynamic.MaterializeMonadic(query);
  ASSERT_TRUE(mm.ok());

  // 0 reaches b only through 1 -a-> 2: the delete deselects 0 and 1.
  ASSERT_TRUE(dynamic.DeleteEdge(1, a, 2));
  EXPECT_FALSE((*mm)->in_sync());
  EXPECT_EQ((*mm)->stats().delete_fallbacks, 1u);
  EXPECT_EQ((*mm)->stats().full_evals, 1u);  // the rebuild is lazy
  auto selected = (*mm)->Results();
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(**selected, EvalMonadicOrDie(dynamic.graph(), query));
  EXPECT_FALSE((*selected)->Test(0));
  EXPECT_EQ((*mm)->stats().full_evals, 2u);  // initial + the fallback rebuild
  EXPECT_TRUE((*mm)->in_sync());
}

TEST(MaterializedMonadicTest, UpdatesOutsideTheQueryAlphabetAreUntouched) {
  DynamicGraph dynamic(SmallGraph());
  const Dfa query = AThenBOverTwoSymbols();
  const Symbol c = *dynamic.graph().alphabet().Find("c");
  auto mm = dynamic.MaterializeMonadic(query);
  ASSERT_TRUE(mm.ok()) << mm.status().ToString();
  const BitVector before = **(*mm)->Results();

  ASSERT_TRUE(dynamic.InsertEdge(0, c, 3));
  ASSERT_TRUE(dynamic.DeleteEdge(6, c, 7));
  EXPECT_TRUE((*mm)->in_sync());  // provably untouched, no invalidation
  auto selected = (*mm)->Results();
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(**selected, before);
  EXPECT_EQ(**selected, EvalMonadicOrDie(dynamic.graph(), query));
  EXPECT_EQ((*mm)->stats().untouched_updates, 2u);
  EXPECT_EQ((*mm)->stats().insert_repairs + (*mm)->stats().insert_noops, 0u);
  EXPECT_EQ((*mm)->stats().delete_fallbacks, 0u);
  EXPECT_EQ((*mm)->stats().full_evals, 1u);
}

TEST(MaterializedMonadicTest, UnroutedIrrelevantMutationWarmHits) {
  // A MaterializedMonadic on a bare Graph (no DynamicGraph routing):
  // mutations it never hears about must be caught by the version check on
  // Results().
  Graph graph = SmallGraph();
  const Dfa query = AThenBOverTwoSymbols();
  const Symbol a = *graph.alphabet().Find("a");
  const Symbol c = *graph.alphabet().Find("c");
  auto mm = MaterializedMonadic::Create(graph, query);
  ASSERT_TRUE(mm.ok());
  const BitVector before = **(*mm)->Results();
  const uint64_t warm_before = (*mm)->stats().warm_hits;

  // Unrouted mutation of an irrelevant label: version() drifts but the
  // per-label versions prove the result unchanged — re-sync, no rebuild.
  ASSERT_TRUE(graph.InsertEdge(3, c, 0));
  auto selected = (*mm)->Results();
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(**selected, before);
  EXPECT_GT((*mm)->stats().warm_hits, warm_before);
  EXPECT_EQ((*mm)->stats().full_evals, 1u);

  // Unrouted mutation of a label the query reads: must force a rebuild
  // (0 -a-> 5 -b-> 6 newly selects 0).
  ASSERT_TRUE(graph.InsertEdge(0, a, 5));
  auto after = (*mm)->Results();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(**after, EvalMonadicOrDie(graph, query));
  EXPECT_TRUE((*after)->Test(0));
  EXPECT_EQ((*mm)->stats().full_evals, 2u);
}

TEST(MaterializedMonadicTest, WithheldReseedIsDetectable) {
  // The fuzz campaign's sensitivity contract: withholding one delta-frontier
  // re-seed must produce a result that differs from the from-scratch oracle
  // (and the version bookkeeping must NOT auto-heal the corruption).
  DynamicGraph dynamic(SmallGraph());
  Dfa query = CompileQuery("a*.b", dynamic.graph());
  const Symbol a = *dynamic.graph().alphabet().Find("a");
  auto mm = dynamic.MaterializeMonadic(query);
  ASSERT_TRUE(mm.ok());

  (*mm)->SkipNextInsertReseedForTesting();
  ASSERT_TRUE(dynamic.InsertEdge(7, a, 0));  // 7 should become selected
  auto selected = (*mm)->Results();
  ASSERT_TRUE(selected.ok());
  EXPECT_NE(**selected, EvalMonadicOrDie(dynamic.graph(), query));
}

TEST(MaterializedMonadicTest, RandomizedUpdateTraceStaysBitIdentical) {
  // Six 10-node chains of l0/l1 edges and no l2 edge: every node starts
  // unselected, and an l2 insert selects its whole upstream chain over
  // several repair rounds.
  constexpr uint32_t kNodes = 60;
  GraphBuilder builder;
  builder.InternLabels({"l0", "l1", "l2"});
  builder.AddNodes(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) {
    if (v % 10 != 9) builder.AddEdge(v, v % 2 == 0 ? "l0" : "l1", v + 1);
  }
  DynamicGraph dynamic(builder.Build());
  dynamic.set_auto_compact_threshold(0);  // compactions come from the trace
  Dfa query = CompileQuery("(l0+l1)*.l2", dynamic.graph());
  auto mm = dynamic.MaterializeMonadic(query);
  ASSERT_TRUE(mm.ok()) << mm.status().ToString();

  Rng rng(0x1eaf);
  std::vector<std::tuple<NodeId, Symbol, NodeId>> inserted;
  for (int step = 0; step < 160; ++step) {
    // Insert-heavy mix with occasional deletes and compactions.
    const uint64_t kind = rng.NextBelow(10);
    if (kind < 8 || inserted.empty()) {
      const NodeId u = static_cast<NodeId>(rng.NextBelow(kNodes));
      const NodeId v = static_cast<NodeId>(rng.NextBelow(kNodes));
      const Symbol label = static_cast<Symbol>(rng.NextBelow(3));
      if (dynamic.InsertEdge(u, label, v)) inserted.emplace_back(u, label, v);
    } else if (kind < 9) {
      // Delete an edge the trace inserted, so every delete lands.
      const size_t i = rng.NextBelow(inserted.size());
      const auto [u, label, v] = inserted[i];
      inserted.erase(inserted.begin() + static_cast<ptrdiff_t>(i));
      ASSERT_TRUE(dynamic.DeleteEdge(u, label, v));
    } else {
      dynamic.Compact();
    }
    auto selected = (*mm)->Results();
    ASSERT_TRUE(selected.ok());
    ASSERT_EQ(**selected, EvalMonadicOrDie(dynamic.graph(), query))
        << "diverged at step " << step;
  }
  EXPECT_GT((*mm)->stats().insert_repairs, 0u);
  EXPECT_GT((*mm)->stats().delete_fallbacks, 0u);
  EXPECT_GT((*mm)->stats().compactions_observed, 0u);
}

TEST(DfaFingerprintTest, DiscriminatesAndMatchesStructure) {
  Graph graph = SmallGraph();
  const Dfa q1 = CompileQuery("a*.b", graph);
  const Dfa q2 = CompileQuery("a*.b", graph);
  const Dfa q3 = CompileQuery("a.b", graph);
  const FrozenDfa f1(q1), f2(q2), f3(q3);
  EXPECT_EQ(DfaFingerprint(f1), DfaFingerprint(f2));
  EXPECT_TRUE(FrozenDfaStructurallyEqual(f1, f2));
  EXPECT_NE(DfaFingerprint(f1), DfaFingerprint(f3));
  EXPECT_FALSE(FrozenDfaStructurallyEqual(f1, f3));
}

TEST(AutoCompactTest, DefaultThresholdMatchesTelemetryDerivedCrossover) {
  DynamicGraph dynamic(SmallGraph());
  EXPECT_EQ(dynamic.auto_compact_threshold(),
            DynamicGraph::kDefaultAutoCompactThreshold);
  EXPECT_EQ(DynamicGraph::kDefaultAutoCompactThreshold, 256u);
}

TEST(AutoCompactTest, FiresExactlyAtTheThreshold) {
  GraphBuilder builder;
  builder.AddNodes(20);
  builder.AddEdge(0, "a", 1);
  DynamicGraph dynamic(builder.Build());
  dynamic.set_auto_compact_threshold(5);
  const Symbol a = *dynamic.graph().alphabet().Find("a");

  NodeId next = 2;
  while (dynamic.graph().num_pending_deltas() < 4) {
    ASSERT_TRUE(dynamic.InsertEdge(0, a, next++));
  }
  EXPECT_EQ(dynamic.stats().auto_compactions, 0u);
  // The threshold-crossing update triggers the compaction, which folds the
  // overlay back to zero pending deltas.
  ASSERT_TRUE(dynamic.InsertEdge(0, a, next++));
  EXPECT_EQ(dynamic.stats().auto_compactions, 1u);
  EXPECT_EQ(dynamic.graph().num_pending_deltas(), 0u);
}

TEST(AutoCompactTest, ZeroDisablesThePolicy) {
  GraphBuilder builder;
  builder.AddNodes(64);
  builder.AddEdge(0, "a", 1);
  DynamicGraph dynamic(builder.Build());
  dynamic.set_auto_compact_threshold(0);
  const Symbol a = *dynamic.graph().alphabet().Find("a");
  for (NodeId v = 2; v < 40; ++v) {
    ASSERT_TRUE(dynamic.InsertEdge(0, a, v));
  }
  EXPECT_EQ(dynamic.stats().auto_compactions, 0u);
  EXPECT_GT(dynamic.graph().num_pending_deltas(), 30u);
}

TEST(AutoCompactTest, PreservesVersionsAndMaterializedResults) {
  DynamicGraph dynamic(SmallGraph());
  dynamic.set_auto_compact_threshold(3);
  Dfa query = CompileQuery("a*.b", dynamic.graph());
  const Symbol a = *dynamic.graph().alphabet().Find("a");
  auto mm = dynamic.MaterializeMonadic(query);
  ASSERT_TRUE(mm.ok());

  const std::vector<std::pair<NodeId, NodeId>> inserts = {
      {0, 4}, {3, 4}, {2, 4}, {7, 0}, {6, 2}};
  for (const auto& [u, v] : inserts) {
    const uint64_t version_before = dynamic.graph().version();
    const uint64_t label_before = dynamic.graph().label_version(a);
    const bool will_compact =
        dynamic.auto_compact_threshold() != 0 &&
        dynamic.graph().num_pending_deltas() + 1 >=
            dynamic.auto_compact_threshold();
    ASSERT_TRUE(dynamic.InsertEdge(u, a, v));
    if (will_compact) {
      // Compact() preserves version() and every label_version() — only the
      // pending overlay folds (the insert itself bumped both versions once).
      EXPECT_EQ(dynamic.graph().num_pending_deltas(), 0u);
      EXPECT_GT(dynamic.graph().version(), version_before);
      EXPECT_GT(dynamic.graph().label_version(a), label_before);
    }
    auto selected = (*mm)->Results();
    ASSERT_TRUE(selected.ok());
    ASSERT_EQ(**selected, EvalMonadicOrDie(dynamic.graph(), query));
  }
  EXPECT_GT(dynamic.stats().auto_compactions, 0u);
  EXPECT_GT((*mm)->stats().compactions_observed, 0u);
  // Compactions never invalidated the fixed point: the only rebuild is the
  // initial one.
  EXPECT_EQ((*mm)->stats().full_evals, 1u);
}

}  // namespace
}  // namespace rpqlearn
