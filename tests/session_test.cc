#include <gtest/gtest.h>

#include "automata/equivalence.h"
#include "graph/condense.h"
#include "graph/dynamic.h"
#include "graph/fixtures.h"
#include "interact/session.h"
#include "query/eval.h"
#include "query/metrics.h"
#include "query/path_query.h"

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
