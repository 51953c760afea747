#include <gtest/gtest.h>

#include <cmath>
#include <limits>
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

// Validation coverage for the direction-optimizing EvalOptions knobs
// (dense_threshold, force_mode) and a regression test pinning the dense
// engine to the seed reference on the paper-scale fixture.

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

TEST(EvalOptionsTest, DenseThresholdOutsideUnitIntervalIsInvalidArgument) {
  for (double bad : {-0.01, -5.0, 1.01, 100.0,
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    EvalOptions options;
    options.dense_threshold = bad;
    StatusOr<EvalOptions> validated = ValidateEvalOptions(options);
    ASSERT_FALSE(validated.ok()) << "dense_threshold " << bad;
    EXPECT_EQ(validated.status().code(), StatusCode::kInvalidArgument)
        << "dense_threshold " << bad;
  }
  // Both endpoints are legal: 0 forces every round dense, 1 effectively
  // none.
  for (double good : {0.0, 0.05, 0.5, 1.0}) {
    EvalOptions options;
    options.dense_threshold = good;
    EXPECT_TRUE(ValidateEvalOptions(options).ok())
        << "dense_threshold " << good;
  }
}

TEST(EvalOptionsTest, InvalidDenseThresholdSurfacesFromEveryEntryPoint) {
  ErdosRenyiOptions graph_options;
  graph_options.num_nodes = 20;
  graph_options.num_edges = 50;
  graph_options.num_labels = 3;
  graph_options.seed = 5;
  Graph g = GenerateErdosRenyi(graph_options);
  Dfa q = SaturatingQuery(g);

  EvalOptions bad;
  bad.dense_threshold = 1.5;

  StatusOr<BitVector> monadic = EvalMonadic(g, q, bad);
  ASSERT_FALSE(monadic.ok());
  EXPECT_EQ(monadic.status().code(), StatusCode::kInvalidArgument);

  const std::vector<NodeId> sources{0, 1};
  auto from_sources = EvalBinaryFromSources(g, q, sources, bad);
  ASSERT_FALSE(from_sources.ok());
  EXPECT_EQ(from_sources.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvalOptionsTest, UnknownForceModeIsInvalidArgument) {
  EvalOptions options;
  options.force_mode = static_cast<EvalMode>(7);
  StatusOr<EvalOptions> validated = ValidateEvalOptions(options);
  ASSERT_FALSE(validated.ok());
  EXPECT_EQ(validated.status().code(), StatusCode::kInvalidArgument);

  for (EvalMode mode : {EvalMode::kAuto, EvalMode::kSparse, EvalMode::kDense}) {
    EvalOptions good;
    good.force_mode = mode;
    EXPECT_TRUE(ValidateEvalOptions(good).ok());
  }
}

TEST(EvalOptionsTest, UnknownCondenseModeIsInvalidArgument) {
  EvalOptions options;
  options.condense = static_cast<CondenseMode>(9);
  StatusOr<EvalOptions> validated = ValidateEvalOptions(options);
  ASSERT_FALSE(validated.ok());
  EXPECT_EQ(validated.status().code(), StatusCode::kInvalidArgument);

  for (CondenseMode mode :
       {CondenseMode::kAuto, CondenseMode::kOn, CondenseMode::kOff}) {
    EvalOptions good;
    good.condense = mode;
    EXPECT_TRUE(ValidateEvalOptions(good).ok());
  }

  // The invalid knob surfaces from the evaluation entry points too.
  ErdosRenyiOptions graph_options;
  graph_options.num_nodes = 12;
  graph_options.num_edges = 30;
  graph_options.num_labels = 3;
  graph_options.seed = 5;
  Graph g = GenerateErdosRenyi(graph_options);
  Dfa q = SaturatingQuery(g);
  auto binary = EvalAllPairs(g, q, options);
  ASSERT_FALSE(binary.ok());
  EXPECT_EQ(binary.status().code(), StatusCode::kInvalidArgument);
  StatusOr<BitVector> monadic = EvalMonadic(g, q, options);
  ASSERT_FALSE(monadic.ok());
  EXPECT_EQ(monadic.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvalOptionsTest, ForceModeIsHonored) {
  // force_mode must actually pin the round kind: all-sparse runs zero dense
  // rounds, all-dense runs zero sparse rounds, and auto with threshold 0
  // behaves like forced dense.
  ErdosRenyiOptions graph_options;
  graph_options.num_nodes = 120;
  graph_options.num_edges = 600;
  graph_options.num_labels = 3;
  graph_options.seed = 17;
  Graph g = GenerateErdosRenyi(graph_options);
  Dfa q = SaturatingQuery(g);

  EvalStats stats;
  EvalOptions options;
  options.threads = 1;
  options.stats = &stats;

  options.force_mode = EvalMode::kSparse;
  auto sparse = EvalAllPairs(g, q, options);
  ASSERT_TRUE(sparse.ok());
  EXPECT_GT(stats.sparse_rounds.load(), 0u);
  EXPECT_EQ(stats.dense_rounds.load(), 0u);
  EXPECT_EQ(stats.dense_batches.load(), 0u);

  stats.Reset();
  options.force_mode = EvalMode::kDense;
  auto dense = EvalAllPairs(g, q, options);
  ASSERT_TRUE(dense.ok());
  EXPECT_GT(stats.dense_rounds.load(), 0u);
  EXPECT_EQ(stats.sparse_rounds.load(), 0u);
  EXPECT_GT(stats.dense_batches.load(), 0u);

  stats.Reset();
  options.force_mode = EvalMode::kAuto;
  options.dense_threshold = 0.0;
  auto auto_dense = EvalAllPairs(g, q, options);
  ASSERT_TRUE(auto_dense.ok());
  EXPECT_GT(stats.dense_rounds.load(), 0u);
  EXPECT_EQ(stats.sparse_rounds.load(), 0u);

  EXPECT_EQ(*sparse, *dense);
  EXPECT_EQ(*sparse, *auto_dense);
}

TEST(EvalOptionsTest, HybridSwitchesBothWaysOnSaturatingQuery) {
  // A mid-range threshold on the saturating kleene query exercises the full
  // hybrid trajectory: sparse rounds while the frontier grows, dense rounds
  // at the peak, sparse again as it drains — and the result stays identical
  // to both pinned modes.
  ErdosRenyiOptions graph_options;
  graph_options.num_nodes = 200;
  graph_options.num_edges = 1400;
  graph_options.num_labels = 3;
  graph_options.seed = 29;
  Graph g = GenerateErdosRenyi(graph_options);
  Dfa q = SaturatingQuery(g);

  EvalOptions sparse_only;
  sparse_only.threads = 1;
  sparse_only.force_mode = EvalMode::kSparse;
  // Condensation would collapse the saturating star frontier before it ever
  // crosses the dense threshold; pin it off so this test keeps exercising
  // the sparse↔dense crossover itself.
  sparse_only.condense = CondenseMode::kOff;
  auto expected = EvalAllPairs(g, q, sparse_only);
  ASSERT_TRUE(expected.ok());

  EvalStats stats;
  EvalOptions hybrid;
  hybrid.threads = 1;
  hybrid.dense_threshold = 0.02;
  hybrid.condense = CondenseMode::kOff;
  hybrid.stats = &stats;
  auto result = EvalAllPairs(g, q, hybrid);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, *expected);
  EXPECT_GT(stats.dense_rounds.load(), 0u)
      << "hybrid never engaged dense rounds; threshold or fixture is off";
  EXPECT_GT(stats.sparse_rounds.load(), 0u)
      << "hybrid never ran sparse rounds; threshold or fixture is off";
}

TEST(EvalOptionsTest, MonadicRoundCountersTrackForceMode) {
  // The direction-optimized monadic sweep fills the dedicated monadic
  // counters: a pinned mode runs only its round kind, and the result is
  // unchanged (scheduling only).
  ErdosRenyiOptions graph_options;
  graph_options.num_nodes = 80;
  graph_options.num_edges = 320;
  graph_options.num_labels = 3;
  graph_options.seed = 11;
  Graph g = GenerateErdosRenyi(graph_options);
  Dfa q = SaturatingQuery(g);
  const BitVector expected = EvalMonadicOrDie(g, q);

  EvalStats sparse_stats;
  EvalOptions sparse;
  sparse.threads = 1;
  sparse.force_mode = EvalMode::kSparse;
  sparse.stats = &sparse_stats;
  StatusOr<BitVector> sparse_result = EvalMonadic(g, q, sparse);
  ASSERT_TRUE(sparse_result.ok());
  EXPECT_TRUE(*sparse_result == expected);
  EXPECT_GT(sparse_stats.monadic_sparse_rounds.load(), 0u);
  EXPECT_EQ(sparse_stats.monadic_dense_rounds.load(), 0u);

  EvalStats dense_stats;
  EvalOptions dense;
  dense.threads = 1;
  dense.force_mode = EvalMode::kDense;
  dense.stats = &dense_stats;
  StatusOr<BitVector> dense_result = EvalMonadic(g, q, dense);
  ASSERT_TRUE(dense_result.ok());
  EXPECT_TRUE(*dense_result == expected);
  EXPECT_GT(dense_stats.monadic_dense_rounds.load(), 0u);
  EXPECT_EQ(dense_stats.monadic_sparse_rounds.load(), 0u);

  // The binary round counters stay monadic-free and vice versa.
  EXPECT_EQ(dense_stats.sparse_rounds.load(), 0u);
  EXPECT_EQ(dense_stats.dense_rounds.load(), 0u);
}

TEST(EvalOptionsTest, DenseRegressionMatchesSeedReferenceAtPaperScale) {
  // Regression anchor for the dense engine: threads = 1, force_mode = dense
  // on the paper-scale fixture must reproduce the seed reference exactly.
  // All-pairs reference evaluation is too slow for a unit test, so binary
  // semantics are checked from a 200-source random sample (crossing several
  // 64-lane batch boundaries) against the per-source seed reference, and
  // monadic semantics over the full graph.
  Graph g = PaperScaleFixture();
  Dfa q = SaturatingQuery(g);

  EvalStats stats;
  EvalOptions dense;
  dense.threads = 1;
  dense.force_mode = EvalMode::kDense;
  dense.stats = &stats;

  Rng rng(2025);
  std::vector<NodeId> sources;
  for (int i = 0; i < 200; ++i) {
    sources.push_back(static_cast<NodeId>(rng.NextBelow(g.num_nodes())));
  }

  auto actual = EvalBinaryFromSources(g, q, sources, dense);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  std::vector<std::pair<NodeId, NodeId>> expected;
  for (NodeId src : sources) {
    BitVector targets = EvalBinaryFromReference(g, q, src);
    for (uint32_t dst : targets.ToIndices()) {
      expected.emplace_back(src, dst);
    }
  }
  EXPECT_EQ(*actual, expected);
  EXPECT_GT(stats.dense_rounds.load(), 0u);

  StatusOr<BitVector> monadic = EvalMonadic(g, q, dense);
  ASSERT_TRUE(monadic.ok());
  EXPECT_TRUE(*monadic == EvalMonadicReference(g, q));
}

}  // namespace
}  // namespace rpqlearn
