// Unit tests of the incremental-maintenance layer
// (src/query/eval_incremental.h): materialized binary and monadic queries
// registered on a DynamicGraph must stay bit-identical to from-scratch
// evaluation across inserts (delta-frontier repair), deletes (per-label
// invalidation + lazy rebuild), and compactions; the telemetry must name the
// repair path every update took; and the pending-delta auto-compaction
// policy must fire exactly at its threshold without ever perturbing results.

#include "query/eval_incremental.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "graph/dynamic.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "query/eval.h"
#include "query/path_query.h"
#include "util/random.h"

namespace rpqlearn {
namespace {

using PairVec = std::vector<std::pair<NodeId, NodeId>>;

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

PairVec Oracle(const Graph& graph, const Dfa& query,
               std::span<const NodeId> sources) {
  auto result = EvalBinaryFromSources(graph, query, sources);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

TEST(MaterializedQueryTest, InitialBuildMatchesFromScratch) {
  Graph graph = SmallGraph();
  Dfa query = CompileQuery("a*.b", graph);
  const std::vector<NodeId> sources = {0, 1, 4, 0};  // duplicate answered twice
  auto mq = MaterializedQuery::Create(graph, query, sources);
  ASSERT_TRUE(mq.ok()) << mq.status().ToString();
  auto results = (*mq)->Results();
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(*results, Oracle(graph, query, sources));
  EXPECT_EQ((*mq)->stats().full_evals, 1u);
  EXPECT_EQ((*mq)->num_results(), results->size());
}

TEST(MaterializedQueryTest, OutOfRangeSourceIsInvalidArgument) {
  Graph graph = SmallGraph();
  Dfa query = CompileQuery("a", graph);
  const std::vector<NodeId> sources = {0, 99};
  auto mq = MaterializedQuery::Create(graph, query, sources);
  EXPECT_FALSE(mq.ok());
  EXPECT_EQ(mq.status().code(), StatusCode::kInvalidArgument);
}

TEST(MaterializedQueryTest, InsertRepairIsBitIdentical) {
  DynamicGraph dynamic(SmallGraph());
  Dfa query = CompileQuery("a*.b", dynamic.graph());
  const Symbol a = *dynamic.graph().alphabet().Find("a");
  const Symbol b = *dynamic.graph().alphabet().Find("b");
  const std::vector<NodeId> sources = {0, 1, 4};
  auto mq = dynamic.Materialize(query, sources);
  ASSERT_TRUE(mq.ok()) << mq.status().ToString();

  // A result-growing insert (0 -a-> 4 exposes 4's a*b suffix to source 0), a
  // no-op insert (7 is a sink for the query), and a cascading insert.
  const std::vector<std::tuple<NodeId, Symbol, NodeId>> inserts = {
      {0, a, 4}, {7, b, 7}, {3, a, 4}, {2, a, 4}};
  for (const auto& [u, label, v] : inserts) {
    ASSERT_TRUE(dynamic.InsertEdge(u, label, v));
    auto results = (*mq)->Results();
    ASSERT_TRUE(results.ok());
    EXPECT_EQ(*results, Oracle(dynamic.graph(), query, sources));
  }
  // Every insert was repaired in place — no rebuild beyond the initial one.
  EXPECT_EQ((*mq)->stats().full_evals, 1u);
  EXPECT_EQ((*mq)->stats().insert_repairs + (*mq)->stats().insert_noops, 4u);
  EXPECT_GT((*mq)->stats().insert_repairs, 0u);
  EXPECT_GT((*mq)->stats().delta_cells_seeded, 0u);
}

TEST(MaterializedQueryTest, DeleteFallsBackToRebuild) {
  DynamicGraph dynamic(SmallGraph());
  Dfa query = CompileQuery("a*.b", dynamic.graph());
  const Symbol a = *dynamic.graph().alphabet().Find("a");
  const std::vector<NodeId> sources = {0, 4};
  auto mq = dynamic.Materialize(query, sources);
  ASSERT_TRUE(mq.ok());

  ASSERT_TRUE(dynamic.DeleteEdge(1, a, 2));
  EXPECT_FALSE((*mq)->in_sync());
  auto results = (*mq)->Results();
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(*results, Oracle(dynamic.graph(), query, sources));
  EXPECT_EQ((*mq)->stats().delete_fallbacks, 1u);
  EXPECT_EQ((*mq)->stats().full_evals, 2u);  // initial + the fallback rebuild
}

TEST(MaterializedQueryTest, UpdatesOutsideTheQueryAlphabetAreUntouched) {
  DynamicGraph dynamic(SmallGraph());
  // Hand-built two-symbol DFA for "a.b" over a three-label graph: label "c"
  // (symbol 2) lies outside the query alphabet entirely.
  Dfa query(2);
  const StateId q0 = query.AddState(false);
  const StateId q1 = query.AddState(false);
  const StateId q2 = query.AddState(true);
  query.SetTransition(q0, 0, q1);
  query.SetTransition(q1, 1, q2);
  const Symbol c = *dynamic.graph().alphabet().Find("c");
  const std::vector<NodeId> sources = {0, 1};
  auto mq = dynamic.Materialize(query, sources);
  ASSERT_TRUE(mq.ok()) << mq.status().ToString();
  const PairVec before = *(*mq)->Results();

  ASSERT_TRUE(dynamic.InsertEdge(0, c, 3));
  ASSERT_TRUE(dynamic.DeleteEdge(6, c, 7));
  EXPECT_TRUE((*mq)->in_sync());  // provably untouched, no invalidation
  auto results = (*mq)->Results();
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(*results, before);
  EXPECT_EQ((*mq)->stats().untouched_updates, 2u);
  EXPECT_EQ((*mq)->stats().delete_fallbacks, 0u);
  EXPECT_EQ((*mq)->stats().full_evals, 1u);
}

TEST(MaterializedQueryTest, UnroutedIrrelevantMutationWarmHits) {
  // A MaterializedQuery on a bare Graph (no DynamicGraph routing): mutations
  // it never hears about must be caught by the version check on Results().
  Graph graph = SmallGraph();
  Dfa query(2);  // "a.b" as above; "c" is outside the alphabet
  const StateId q0 = query.AddState(false);
  const StateId q1 = query.AddState(false);
  const StateId q2 = query.AddState(true);
  query.SetTransition(q0, 0, q1);
  query.SetTransition(q1, 1, q2);
  const Symbol a = *graph.alphabet().Find("a");
  const Symbol c = *graph.alphabet().Find("c");
  const std::vector<NodeId> sources = {0};
  auto mq = MaterializedQuery::Create(graph, query, sources);
  ASSERT_TRUE(mq.ok());
  const PairVec before = *(*mq)->Results();
  const uint64_t warm_before = (*mq)->stats().warm_hits;

  // Unrouted mutation of an irrelevant label: version() drifts but the
  // per-label versions prove the result unchanged — re-sync, no rebuild.
  ASSERT_TRUE(graph.InsertEdge(3, c, 0));
  auto results = (*mq)->Results();
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(*results, before);
  EXPECT_GT((*mq)->stats().warm_hits, warm_before);
  EXPECT_EQ((*mq)->stats().full_evals, 1u);

  // Unrouted mutation of a label the query reads: must force a rebuild.
  ASSERT_TRUE(graph.InsertEdge(0, a, 4));
  auto after = (*mq)->Results();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, Oracle(graph, query, sources));
  EXPECT_EQ((*mq)->stats().full_evals, 2u);
}

TEST(MaterializedQueryTest, WithheldReseedIsDetectable) {
  // The fuzz campaign's sensitivity contract: withholding one delta-frontier
  // re-seed must produce a result that differs from the from-scratch oracle
  // (and the version bookkeeping must NOT auto-heal the corruption).
  DynamicGraph dynamic(SmallGraph());
  Dfa query = CompileQuery("a*.b", dynamic.graph());
  const Symbol a = *dynamic.graph().alphabet().Find("a");
  const std::vector<NodeId> sources = {0};
  auto mq = dynamic.Materialize(query, sources);
  ASSERT_TRUE(mq.ok());

  (*mq)->SkipNextInsertReseedForTesting();
  ASSERT_TRUE(dynamic.InsertEdge(0, a, 4));  // result-changing insert
  auto results = (*mq)->Results();
  ASSERT_TRUE(results.ok());
  EXPECT_NE(*results, Oracle(dynamic.graph(), query, sources));
}

TEST(MaterializedQueryTest, RandomizedUpdateTraceStaysBitIdentical) {
  ErdosRenyiOptions options;
  options.num_nodes = 60;
  options.num_edges = 180;
  options.num_labels = 3;
  options.seed = 11;
  DynamicGraph dynamic(GenerateErdosRenyi(options));
  Dfa query = CompileQuery("(l0+l1)*.l2", dynamic.graph());
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < 10; ++v) sources.push_back(v);
  auto mq = dynamic.Materialize(query, sources);
  ASSERT_TRUE(mq.ok()) << mq.status().ToString();

  Rng rng(0x1eaf);
  for (int step = 0; step < 120; ++step) {
    const NodeId u = static_cast<NodeId>(rng.NextBelow(options.num_nodes));
    const NodeId v = static_cast<NodeId>(rng.NextBelow(options.num_nodes));
    const Symbol label = static_cast<Symbol>(rng.NextBelow(3));
    // Insert-heavy mix with occasional deletes and compactions.
    const uint64_t kind = rng.NextBelow(10);
    if (kind < 7) {
      dynamic.InsertEdge(u, label, v);
    } else if (kind < 9) {
      dynamic.DeleteEdge(u, label, v);
    } else {
      dynamic.Compact();
    }
    if (step % 10 == 9) {
      auto results = (*mq)->Results();
      ASSERT_TRUE(results.ok());
      ASSERT_EQ(*results, Oracle(dynamic.graph(), query, sources))
          << "diverged at step " << step;
    }
  }
  EXPECT_GT((*mq)->stats().insert_repairs, 0u);
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
    EXPECT_EQ(**selected, EvalMonadic(dynamic.graph(), query));
  }
  EXPECT_GT((*mm)->stats().insert_repairs, 0u);
  EXPECT_EQ((*mm)->stats().delete_fallbacks, 1u);
  EXPECT_EQ((*mm)->stats().full_evals, 2u);
}

TEST(MaterializedMonadicTest, WithheldReseedIsDetectable) {
  DynamicGraph dynamic(SmallGraph());
  Dfa query = CompileQuery("a*.b", dynamic.graph());
  const Symbol a = *dynamic.graph().alphabet().Find("a");
  auto mm = dynamic.MaterializeMonadic(query);
  ASSERT_TRUE(mm.ok());

  (*mm)->SkipNextInsertReseedForTesting();
  ASSERT_TRUE(dynamic.InsertEdge(7, a, 0));  // 7 should become selected
  auto selected = (*mm)->Results();
  ASSERT_TRUE(selected.ok());
  EXPECT_NE(**selected, EvalMonadic(dynamic.graph(), query));
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
  const std::vector<NodeId> sources = {0, 1, 4};
  auto mq = dynamic.Materialize(query, sources);
  ASSERT_TRUE(mq.ok());

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
    auto results = (*mq)->Results();
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(*results, Oracle(dynamic.graph(), query, sources));
  }
  EXPECT_GT(dynamic.stats().auto_compactions, 0u);
  EXPECT_GT((*mq)->stats().compactions_observed, 0u);
  // Compactions never invalidated the fixed point: the only rebuild is the
  // initial one.
  EXPECT_EQ((*mq)->stats().full_evals, 1u);
}

}  // namespace
}  // namespace rpqlearn
