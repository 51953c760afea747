#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/generators.h"
#include "query/eval.h"
#include "query/eval_reference.h"
#include "query/path_query.h"
#include "util/random.h"
#include "eval_test_util.h"

namespace rpqlearn {
namespace {

// A regression test pinning the sequential engines to the seed reference on
// the paper-scale fixture. Option validation is covered where both entry
// points are (EvalParallelOracleTest.ZeroThreadsIsInvalidArgumentEverywhere).

Graph PaperScaleFixture() {
  // The bench_hotpath evaluation fixture: the paper's synthetic setup
  // (Sec. 5.1) — scale-free topology, Zipfian labels, 10k nodes, 3× edges.
  ScaleFreeOptions options;
  options.num_nodes = 10000;
  options.num_edges = 30000;
  options.num_labels = 8;
  options.seed = 7;
  return GenerateScaleFree(options);
}

Dfa SaturatingQuery(const Graph& graph) {
  Alphabet alphabet = graph.alphabet();
  auto q = PathQuery::Parse("(l0+l1)*.l2", &alphabet, graph.num_symbols());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q->dfa();
}

TEST(EvalOptionsTest, SequentialDefaultsMatchSeedReferenceAtPaperScale) {
  // Regression anchor for the round engines: threads = 1 with otherwise
  // default options on the paper-scale fixture must reproduce the seed
  // reference exactly. All-pairs reference evaluation is too slow for a
  // unit test, so binary semantics are checked from a 200-source random
  // sample (crossing several 64-lane batch boundaries) against the
  // per-source seed reference, and monadic semantics over the full graph.
  Graph g = PaperScaleFixture();
  Dfa q = SaturatingQuery(g);

  EvalOptions sequential;
  sequential.threads = 1;

  Rng rng(2025);
  std::vector<NodeId> sources;
  for (int i = 0; i < 200; ++i) {
    sources.push_back(static_cast<NodeId>(rng.NextBelow(g.num_nodes())));
  }

  auto actual = EvalBinaryFromSources(g, q, sources, sequential);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  std::vector<std::pair<NodeId, NodeId>> expected;
  for (NodeId src : sources) {
    BitVector targets = EvalBinaryFromReference(g, q, src);
    for (uint32_t dst : targets.ToIndices()) {
      expected.emplace_back(src, dst);
    }
  }
  EXPECT_EQ(*actual, expected);

  StatusOr<BitVector> monadic = EvalMonadic(g, q, sequential);
  ASSERT_TRUE(monadic.ok());
  EXPECT_TRUE(*monadic == EvalMonadicReference(g, q));
}

}  // namespace
}  // namespace rpqlearn
