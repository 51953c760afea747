#include "query/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "graph/dynamic.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "query/eval.h"
#include "query/path_query.h"
#include "eval_test_util.h"

namespace rpqlearn {
namespace {

// The Engine facade contract: every result bit-identical to the free
// functions it drives, plan-cache hits / evictions / warm monadic results
// observable through the counters, and mutation-aware invalidation whether
// the engine serves a plain Graph or a DynamicGraph.

Graph SmallScaleFree() {
  ScaleFreeOptions options;
  options.num_nodes = 500;
  options.num_edges = 1500;
  options.num_labels = 6;
  options.seed = 11;
  return GenerateScaleFree(options);
}

Dfa ParseQuery(const Graph& graph, const std::string& regex) {
  Alphabet alphabet = graph.alphabet();
  auto q = PathQuery::Parse(regex, &alphabet, graph.num_symbols());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q->dfa();
}

TEST(EngineTest, WarmAndColdMonadicRunsMatchTheFreeFunction) {
  const Graph graph = SmallScaleFree();
  const Dfa query = ParseQuery(graph, "(l0+l1)*.l2");
  const BitVector reference = EvalMonadicOrDie(graph, query);

  Engine warm(graph);
  EngineOptions cold_options;
  cold_options.plan_cache_capacity = 0;
  Engine cold(graph, cold_options);

  for (Engine* engine : {&warm, &cold}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      auto plan = engine->Plan(query);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      auto nodes = (*plan)->RunMonadic();
      ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();
      EXPECT_TRUE(**nodes == reference);
    }
  }
  // The warm engine answered repeats from the retained fixed point; the
  // cold engine built a fresh plan, and so swept, on every call.
  EXPECT_GT(warm.counters().monadic_warm_hits, 0u);
  EXPECT_EQ(cold.counters().monadic_warm_hits, 0u);
  EXPECT_EQ(cold.counters().plan_hits, 0u);
}

TEST(EngineTest, PlanCacheHitsEquivalentQueriesAndEvictsAtCapacity) {
  const Graph graph = SmallScaleFree();
  EngineOptions options;
  options.plan_cache_capacity = 1;
  Engine engine(graph, options);

  auto first = engine.Plan(ParseQuery(graph, "l0.l1"));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(engine.counters().plan_misses, 1u);

  // A structurally equivalent query (parsed independently) is a cache hit
  // on the same plan object.
  auto again = engine.Plan(ParseQuery(graph, "l0.l1"));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first->get(), again->get());
  EXPECT_EQ(engine.counters().plan_hits, 1u);

  // A different query overflows capacity 1 and evicts; replanning the first
  // is a miss again.
  ASSERT_TRUE(engine.Plan(ParseQuery(graph, "l2*")).ok());
  EXPECT_EQ(engine.counters().plan_evictions, 1u);
  ASSERT_TRUE(engine.Plan(ParseQuery(graph, "l0.l1")).ok());
  EXPECT_EQ(engine.counters().plan_misses, 3u);

  // Eviction only drops the engine's reference: the held plan still runs.
  auto nodes = (*first)->RunMonadic();
  ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();
}

TEST(EngineTest, ConcurrentMonadicRunsShareTheRetainedFixedPoint) {
  // The server's executors run one plan concurrently: the first run builds
  // the retained fixed point, and every later one reads it while others
  // may be running.
  const Graph graph = SmallScaleFree();
  const Dfa query = ParseQuery(graph, "(l0+l1)*.l2");
  const BitVector reference = EvalMonadicOrDie(graph, query);
  Engine engine(graph);
  auto plan = engine.Plan(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      for (int r = 0; r < 25; ++r) {
        auto nodes = (*plan)->RunMonadic();
        if (!nodes.ok() || !(**nodes == reference)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // One run built the fixed point; the other 99 were warm hits.
  EXPECT_GE(engine.counters().monadic_warm_hits, 99u);
}

TEST(EngineTest, PlanFromRegexRequiresGraphLabels) {
  const Graph graph = SmallScaleFree();
  Engine engine(graph);
  EXPECT_TRUE(engine.Plan("(l0+l1)*.l2").ok());
  EXPECT_FALSE(engine.Plan("no_such_label").ok());
}

TEST(EngineTest, BinaryRunsMatchTheFreeFunction) {
  const Graph graph = SmallScaleFree();
  const Dfa query = ParseQuery(graph, "l0.l1*.l2");
  Engine engine(graph);
  auto plan = engine.Plan(query);
  ASSERT_TRUE(plan.ok());

  // Every node a source (the all-pairs result), then a subset with a
  // duplicate, answered once per occurrence.
  const std::vector<NodeId> every_node = AllNodes(graph);
  auto all_pairs = (*plan)->RunBinary(every_node);
  ASSERT_TRUE(all_pairs.ok()) << all_pairs.status().ToString();
  EXPECT_EQ(*all_pairs, EvalAllPairsOrDie(graph, query));

  const std::vector<NodeId> sources = {7, 3, 7, 499};
  auto some_pairs = (*plan)->RunBinary(sources);
  ASSERT_TRUE(some_pairs.ok()) << some_pairs.status().ToString();
  auto expected = EvalBinaryFromSources(graph, query, sources);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*some_pairs, *expected);
}

TEST(EngineTest, OutOfRangeSourcesAreRejected) {
  const Graph graph = SmallScaleFree();
  Engine engine(graph);
  auto plan = engine.Plan(ParseQuery(graph, "l0"));
  ASSERT_TRUE(plan.ok());
  const std::vector<NodeId> bad = {0, graph.num_nodes()};
  EXPECT_FALSE((*plan)->RunBinary(std::span<const NodeId>(bad)).ok());
}

TEST(EngineTest, QueryAlphabetWiderThanTheGraphIsInvalidArgument) {
  // A 1-label graph and a 2-symbol DFA: planning and EvalMonadic report
  // the mismatch instead of aborting.
  GraphBuilder b;
  b.AddNodes(2);
  b.AddEdge(0, "a", 1);
  const Graph graph = b.Build();
  ASSERT_EQ(graph.num_symbols(), 1u);
  Dfa query(2);
  query.AddState(/*accepting=*/false);
  query.AddState(/*accepting=*/true);
  query.SetTransition(0, 1, 1);

  Engine engine(graph);
  EXPECT_EQ(engine.Plan(query).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(EvalMonadic(graph, query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, PlainGraphMutationNeverServesStale) {
  // No DynamicGraph routes the update here: the engine must notice the new
  // Graph::version() on its own and re-sweep instead of serving the
  // retained monadic fixed point.
  GraphBuilder b;
  b.AddNodes(8);
  b.AddEdge(0, "a", 1);
  b.AddEdge(1, "a", 2);
  b.AddEdge(2, "b", 3);
  b.AddEdge(4, "a", 5);
  b.AddEdge(5, "b", 6);
  b.AddEdge(6, "c", 7);
  Graph graph = b.Build();
  const Dfa query = ParseQuery(graph, "a*.b");
  const std::vector<NodeId> sources = {0, 4, 7};

  Engine engine(graph);
  auto plan = engine.Plan(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto first = (*plan)->RunMonadic();
  ASSERT_TRUE(first.ok());
  const BitVector before = **first;
  ASSERT_TRUE((*plan)->RunMonadic().ok());
  const EngineCounters warm = engine.counters();
  EXPECT_EQ(warm.monadic_warm_hits, 1u);

  auto a = graph.alphabet().Find("a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(graph.InsertEdge(7, *a, 0));

  auto monadic = (*plan)->RunMonadic();
  ASSERT_TRUE(monadic.ok());
  EXPECT_TRUE(**monadic == EvalMonadicOrDie(graph, query));
  EXPECT_FALSE(**monadic == before);  // the insert selects node 7
  auto pairs = (*plan)->RunBinary(sources);
  ASSERT_TRUE(pairs.ok());
  auto expected_pairs = EvalBinaryFromSources(graph, query, sources);
  ASSERT_TRUE(expected_pairs.ok());
  EXPECT_EQ(*pairs, *expected_pairs);

  const EngineCounters refreshed = engine.counters();
  EXPECT_EQ(refreshed.monadic_warm_hits, warm.monadic_warm_hits);
}

TEST(EngineTest, DynamicGraphMutationRefreshesWarmResults) {
  GraphBuilder b;
  b.AddNode("n0");
  b.AddNode("n1");
  b.AddNode("n2");
  b.AddEdge(1, "a", 2);
  DynamicGraph dynamic(b.Build());

  Engine engine(dynamic);
  auto plan = engine.Plan(ParseQuery(dynamic.graph(), "a"));
  ASSERT_TRUE(plan.ok());

  auto before = (*plan)->RunMonadic();
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE((*before)->Test(0));
  EXPECT_TRUE((*before)->Test(1));

  // The warm fixed point must not survive the version bump: after the
  // insert, node 0 gains an outgoing `a` path.
  auto symbol = dynamic.graph().alphabet().Find("a");
  ASSERT_TRUE(symbol.ok());
  ASSERT_TRUE(dynamic.InsertEdge(0, *symbol, 1));
  auto after = (*plan)->RunMonadic();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE((*after)->Test(0));
  EXPECT_TRUE((*after)->Test(1));

  ASSERT_TRUE(dynamic.DeleteEdge(0, *symbol, 1));
  auto reverted = (*plan)->RunMonadic();
  ASSERT_TRUE(reverted.ok());
  EXPECT_FALSE((*reverted)->Test(0));
}

}  // namespace
}  // namespace rpqlearn
