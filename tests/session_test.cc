#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "automata/dfa_csr.h"
#include "automata/equivalence.h"
#include "graph/condense.h"
#include "graph/dynamic.h"
#include "graph/fixtures.h"
#include "interact/session.h"
#include "query/eval.h"
#include "query/eval_incremental.h"
#include "query/metrics.h"
#include "query/path_query.h"
#include "util/exec_context.h"
#include "util/fault.h"
#include "workloads/workloads.h"

namespace rpqlearn {
namespace {

Dfa QueryOn(const Graph& graph, const std::string& regex) {
  Alphabet alphabet = graph.alphabet();
  auto q = PathQuery::Parse(regex, &alphabet, graph.num_symbols());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q->dfa();
}

TEST(SessionTest, ConvergesOnFig3Goal) {
  Graph g = Figure3G0();
  Dfa goal = QueryOn(g, "(a.b)*.c");
  Oracle oracle = Oracle::FromQuery(g, goal);
  SessionOptions options;
  options.seed = 3;
  SessionResult result = RunInteractiveSession(g, oracle, options);
  ASSERT_TRUE(result.reached_goal);
  BitVector learned_set = EvalMonadic(g, result.final_query);
  EXPECT_TRUE(learned_set == oracle.goal());
  EXPECT_LE(result.interactions.size(), g.num_nodes());
}

TEST(SessionTest, ConvergesOnGeoGoal) {
  Graph g = Figure1Geographic();
  Dfa goal = QueryOn(g, "(tram+bus)*.cinema");
  Oracle oracle = Oracle::FromQuery(g, goal);
  for (StrategyKind kind :
       {StrategyKind::kRandom, StrategyKind::kSmallestPaths}) {
    SessionOptions options;
    options.strategy = kind;
    options.seed = 11;
    SessionResult result = RunInteractiveSession(g, oracle, options);
    ASSERT_TRUE(result.reached_goal) << "strategy " << static_cast<int>(kind);
    EXPECT_TRUE(EvalMonadic(g, result.final_query) == oracle.goal());
  }
}

TEST(SessionTest, LabelsMatchOracle) {
  Graph g = Figure3G0();
  Dfa goal = QueryOn(g, "a");
  Oracle oracle = Oracle::FromQuery(g, goal);
  SessionOptions options;
  options.seed = 5;
  SessionResult result = RunInteractiveSession(g, oracle, options);
  for (const InteractionRecord& r : result.interactions) {
    EXPECT_EQ(r.positive, oracle.Label(r.node));
  }
}

TEST(SessionTest, NoNodeLabeledTwice) {
  Graph g = Figure3G0();
  Dfa goal = QueryOn(g, "(a.b)*.c");
  Oracle oracle = Oracle::FromQuery(g, goal);
  SessionOptions options;
  options.seed = 7;
  SessionResult result = RunInteractiveSession(g, oracle, options);
  std::set<NodeId> seen;
  for (const InteractionRecord& r : result.interactions) {
    EXPECT_TRUE(seen.insert(r.node).second) << "node " << r.node;
  }
}

TEST(SessionTest, FewerLabelsThanFullGraph) {
  // The point of Sec. 4: interactions should need far fewer labels than
  // labeling everything.
  Graph g = Figure1Geographic();
  Dfa goal = QueryOn(g, "(tram+bus)*.cinema");
  Oracle oracle = Oracle::FromQuery(g, goal);
  SessionOptions options;
  options.seed = 13;
  SessionResult result = RunInteractiveSession(g, oracle, options);
  ASSERT_TRUE(result.reached_goal);
  EXPECT_LT(result.interactions.size(), g.num_nodes());
}

TEST(SessionTest, RespectsInteractionBudget) {
  Graph g = Figure3G0();
  Dfa goal = QueryOn(g, "(a.b)*.c");
  Oracle oracle = Oracle::FromQuery(g, goal);
  SessionOptions options;
  options.max_interactions = 1;
  options.seed = 17;
  SessionResult result = RunInteractiveSession(g, oracle, options);
  EXPECT_LE(result.interactions.size(), 1u);
}

TEST(SessionTest, EmptyGoalConvergesToEmptyQuery) {
  // Goal selecting nothing: after enough negative labels the learner's
  // empty query has F1 = 1 (both sets empty).
  Graph g = Figure3G0();
  Dfa goal = QueryOn(g, "c.c.c");  // selects no node on G0
  Oracle oracle = Oracle::FromQuery(g, goal);
  SessionOptions options;
  options.seed = 19;
  SessionResult result = RunInteractiveSession(g, oracle, options);
  ASSERT_TRUE(result.reached_goal);
  EXPECT_TRUE(EvalMonadic(g, result.final_query).None());
}

/// Interaction traces and learned selections must be bit-identical: the
/// session is deterministic given the seed, so any divergence proves a
/// cache influenced evaluation.
void CheckSessionsIdentical(const Graph& graph, const SessionResult& a,
                            const SessionResult& b) {
  ASSERT_EQ(a.interactions.size(), b.interactions.size());
  for (size_t i = 0; i < a.interactions.size(); ++i) {
    EXPECT_EQ(a.interactions[i].node, b.interactions[i].node);
    EXPECT_EQ(a.interactions[i].positive, b.interactions[i].positive);
    EXPECT_EQ(a.interactions[i].f1, b.interactions[i].f1);
  }
  EXPECT_EQ(a.reached_goal, b.reached_goal);
  EXPECT_TRUE(EvalMonadic(graph, a.final_query) ==
              EvalMonadic(graph, b.final_query));
}

TEST(SessionTest, StaleEvalCachesCannotLeakIntoAMutatedGraphSession) {
  Graph g = Figure1Geographic();

  // Snapshot the cache, then mutate the graph with a delete+insert pair
  // that restores the edge count — only the mutation counter distinguishes
  // the snapshot from the live graph, which is exactly what the eval-side
  // cache match must check.
  const CondensedGraph stale_condensed = CondensedGraph::Build(g);
  const size_t edges_before = g.num_edges();
  const LabeledEdge victim = g.OutEdges(0)[0];
  ASSERT_TRUE(g.DeleteEdge(0, victim.label, victim.node));
  NodeId fresh_dst = 0;
  while (g.HasEdge(0, victim.label, fresh_dst)) ++fresh_dst;
  ASSERT_TRUE(g.InsertEdge(0, victim.label, fresh_dst));
  ASSERT_EQ(g.num_edges(), edges_before);
  ASSERT_NE(stale_condensed.graph_version(), g.version());

  const Dfa goal = QueryOn(g, "(tram+bus)*.cinema");
  const Oracle oracle = Oracle::FromQuery(g, goal);
  SessionOptions options;
  options.seed = 11;
  options.eval.condense = CondenseMode::kOn;
  const SessionResult ground_truth = RunInteractiveSession(g, oracle, options);

  SessionOptions with_stale = options;
  with_stale.eval.condensed_cache = &stale_condensed;
  const SessionResult result = RunInteractiveSession(g, oracle, with_stale);
  CheckSessionsIdentical(g, ground_truth, result);
}

TEST(SessionTest, MaintainedDynamicGraphCachesMatchACacheFreeSession) {
  DynamicGraph dynamic(Figure1Geographic());
  dynamic.MaintainCondensation();

  // Mutate through the holder so the snapshot is repaired in place.
  const Graph& g = dynamic.graph();
  const LabeledEdge victim = g.OutEdges(0)[0];
  ASSERT_TRUE(dynamic.DeleteEdge(0, victim.label, victim.node));
  NodeId fresh_dst = 0;
  while (g.HasEdge(0, victim.label, fresh_dst)) ++fresh_dst;
  ASSERT_TRUE(dynamic.InsertEdge(0, victim.label, fresh_dst));
  EXPECT_EQ(dynamic.stats().inserts, 1u);
  EXPECT_EQ(dynamic.stats().deletes, 1u);
  ASSERT_EQ(dynamic.condensed()->graph_version(), g.version());

  const Dfa goal = QueryOn(g, "(tram+bus)*.cinema");
  const Oracle oracle = Oracle::FromQuery(g, goal);
  SessionOptions options;
  options.seed = 11;
  options.eval.condense = CondenseMode::kOn;
  const SessionResult ground_truth = RunInteractiveSession(g, oracle, options);

  SessionOptions cached = options;
  cached.eval = dynamic.WithCaches(cached.eval);
  ASSERT_EQ(cached.eval.condensed_cache, dynamic.condensed());
  const SessionResult result = RunInteractiveSession(g, oracle, cached);
  CheckSessionsIdentical(g, ground_truth, result);
}

/// One recorded session of PinnedSessionsOnSyntheticGraph.
struct PinnedSession {
  const char* goal;
  StrategyKind strategy;
  std::vector<NodeId> nodes;
  /// One character per interaction: '+' positive, '-' negative.
  std::string labels;
  std::vector<double> f1;
  uint32_t final_k;
  bool reached_goal;
  /// DfaFingerprint of the final query.
  uint64_t query_fingerprint;
};

TEST(SessionTest, PinnedSessionsOnSyntheticGraph) {
  // Node choices, labels, per-interaction F1, final k and final query of
  // kR and kS sessions, recorded with the backward-BFS informativeness
  // check (the reference in informative_test.cc), a fully memoized kS
  // counter and an ordered-map coverage lookup. DeterministicGivenSeed
  // compares the code only with itself; this pins the sessions themselves,
  // so a speed-up that changes a pick, a label or a learned query fails
  // here. The syn2 sessions abstain at k = 2 (F1 -1) and reach the goal
  // only after the k increase.
  const Dataset dataset = BuildSyntheticDataset(60, 1);
  const Graph& g = dataset.graph;
  const std::vector<PinnedSession> pinned = {
      {"syn2", StrategyKind::kRandom,
       {54, 35, 30, 41, 12, 10, 8, 44, 24, 48, 19, 34, 53, 9, 49, 20, 18, 47, 50, 46, 43, 51, 22, 31, 40, 5, 32, 21, 13, 52, 28, 39, 59, 56, 37, 36, 45},
       "----+-----------+-------+-++-+-----+-",
       {0.000000, 0.000000, 0.000000, 0.000000, 0.363636, 0.363636, 0.363636, 0.363636, 0.363636, 0.363636, 0.363636, 0.363636, 0.363636, 0.363636, 0.363636, 0.400000, 0.571429, 0.571429, 0.571429, 0.666667, 0.666667, 0.666667, 0.666667, 0.666667, 0.769231, 0.769231, 0.769231, 0.857143, 0.857143, 0.857143, -1.000000, -1.000000, -1.000000, -1.000000, -1.000000, -1.000000, -1.000000},
       3, true, 4501887813869121235ull},
      {"syn2", StrategyKind::kSmallestPaths,
       {1, 26, 15, 0, 8, 55, 56, 47, 58, 38, 19, 23, 43, 40, 52, 13, 12, 10, 5, 31, 45, 30, 48, 34, 9, 24, 44, 39, 35, 53, 32, 41, 49, 37, 50, 51, 21, 20, 36, 54, 22, 59, 18, 46, 28},
       "-------------++-+-------------+-----+-+---+--",
       {0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.320000, 0.444444, 0.444444, 0.444444, 0.315789, 0.571429, 0.571429, 0.571429, 0.571429, 0.571429, 0.571429, 0.571429, 0.571429, 0.571429, 0.571429, 0.571429, 0.571429, 0.555556, 0.555556, 0.555556, 0.666667, 0.714286, 0.714286, 0.800000, 0.857143, 0.823529, 0.823529, 0.823529, 0.933333, 0.933333, 0.933333, -1.000000},
       3, true, 4501887813869121235ull},
      {"syn3", StrategyKind::kRandom,
       {54, 35, 30, 41, 51, 28, 20, 34, 9, 44, 43, 49, 0, 24, 13, 32, 21, 52, 53, 47},
       "-+-+++++-+-+-++---++",
       {0.000000, 0.322581, 0.322581, 0.739130, 0.739130, 0.739130, 0.739130, 0.739130, 0.739130, 0.840000, 0.916667, 0.916667, 0.916667, 0.916667, 0.960000, 0.960000, 0.960000, 0.960000, 0.960000, 1.000000},
       2, true, 417445292675057972ull},
      {"syn3", StrategyKind::kSmallestPaths,
       {1, 26, 15, 0, 8, 55, 56, 58, 38, 19, 52, 12, 13, 30, 43, 40, 47, 31, 45, 23, 48},
       "----++---+--+---+--++",
       {0.000000, 0.000000, 0.000000, 0.000000, 0.594595, 0.893617, 0.893617, 0.893617, 0.893617, 0.960000, 0.960000, 0.960000, 0.980392, 0.980392, 0.980392, 0.980392, 0.980392, 0.980392, 0.980392, 0.980392, 1.000000},
       2, true, 417445292675057972ull},
  };
  for (const PinnedSession& expected : pinned) {
    const Workload* goal = nullptr;
    for (const Workload& w : dataset.queries) {
      if (w.name == expected.goal) goal = &w;
    }
    ASSERT_NE(goal, nullptr) << expected.goal;
    SessionOptions options;
    options.strategy = expected.strategy;
    options.seed = 7;
    options.k_start = 2;
    options.k_max = 3;
    options.max_interactions = 100;
    options.learner.max_k = 3;
    options.learner.coverage_state_cap = 20000;
    const SessionResult result =
        RunInteractiveSession(g, Oracle::FromQuery(g, goal->query), options);
    const std::string where =
        std::string(expected.goal) +
        (expected.strategy == StrategyKind::kRandom ? " kR" : " kS");
    ASSERT_EQ(result.interactions.size(), expected.nodes.size()) << where;
    for (size_t i = 0; i < expected.nodes.size(); ++i) {
      const InteractionRecord& r = result.interactions[i];
      EXPECT_EQ(r.node, expected.nodes[i]) << where << " #" << i;
      EXPECT_EQ(r.positive, expected.labels[i] == '+') << where << " #" << i;
      EXPECT_NEAR(r.f1, expected.f1[i], 1e-6) << where << " #" << i;
    }
    EXPECT_EQ(result.final_k, expected.final_k) << where;
    EXPECT_EQ(result.reached_goal, expected.reached_goal) << where;
    EXPECT_EQ(DfaFingerprint(FrozenDfa(result.final_query)),
              expected.query_fingerprint)
        << where;
  }
}

TEST(SessionTest, TripKeepsRecordedInteractions) {
  // A session under an ExecContext that cancels halfway through its
  // checkpoints stops with kCancelled and keeps the interactions it had
  // recorded: the same nodes and labels as the untripped session, and the
  // same F1 for all but the interaction whose relearn tripped.
  const Dataset dataset = BuildSyntheticDataset(60, 1);
  const Graph& g = dataset.graph;
  const Oracle oracle = Oracle::FromQuery(g, dataset.queries[1].query);
  SessionOptions options;
  options.strategy = StrategyKind::kSmallestPaths;
  options.seed = 7;
  options.k_max = 3;
  options.learner.max_k = 3;

  ExecContext counting;
  options.eval.exec = &counting;
  const SessionResult full = RunInteractiveSession(g, oracle, options);
  ASSERT_TRUE(full.status.ok());
  ASSERT_GE(full.interactions.size(), 4u);

  ExecContext exec;
  FaultInjector cancel({FaultKind::kCancel, counting.checkpoints() / 2});
  exec.set_fault_injector(&cancel);
  options.eval.exec = &exec;
  const SessionResult cut = RunInteractiveSession(g, oracle, options);
  EXPECT_TRUE(cancel.fired());
  EXPECT_EQ(cut.status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(cut.reached_goal);
  ASSERT_GE(cut.interactions.size(), 1u);
  ASSERT_LE(cut.interactions.size(), full.interactions.size());
  for (size_t i = 0; i < cut.interactions.size(); ++i) {
    const InteractionRecord& r = cut.interactions[i];
    EXPECT_EQ(r.node, full.interactions[i].node) << "#" << i;
    EXPECT_EQ(r.positive, full.interactions[i].positive) << "#" << i;
    if (i + 1 < cut.interactions.size()) {
      EXPECT_EQ(r.f1, full.interactions[i].f1) << "#" << i;
    }
  }
}

TEST(SessionTest, DeterministicGivenSeed) {
  Graph g = Figure3G0();
  Dfa goal = QueryOn(g, "(a.b)*.c");
  Oracle oracle = Oracle::FromQuery(g, goal);
  SessionOptions options;
  options.seed = 23;
  SessionResult r1 = RunInteractiveSession(g, oracle, options);
  SessionResult r2 = RunInteractiveSession(g, oracle, options);
  ASSERT_EQ(r1.interactions.size(), r2.interactions.size());
  for (size_t i = 0; i < r1.interactions.size(); ++i) {
    EXPECT_EQ(r1.interactions[i].node, r2.interactions[i].node);
  }
}

}  // namespace
}  // namespace rpqlearn
