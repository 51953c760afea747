#include <gtest/gtest.h>

#include "automata/equivalence.h"
#include "graph/fixtures.h"
#include "learn/binary.h"
#include "learn/nary.h"
#include "query/eval.h"
#include "util/exec_context.h"
#include "eval_test_util.h"

namespace rpqlearn {
namespace {

TEST(BinaryLearnerTest, LearnsOnFig3Pairs) {
  // Label pairs consistently with (a·b)*·c under binary semantics:
  // positives (ν1,ν4), (ν3,ν4); negatives (ν2,ν3), (ν1,ν2).
  Graph g = Figure3G0();
  PairSample sample;
  sample.positive = {{0, 3}, {2, 3}};
  sample.negative = {{1, 2}, {0, 1}};
  LearnerOptions options;
  options.max_k = 4;
  LearnOutcome outcome = LearnBinaryPathQuery(g, sample, options);
  ASSERT_FALSE(outcome.is_null);
  for (const auto& [s, t] : sample.positive) {
    EXPECT_TRUE(PairSelectedByReference(g, outcome.query, s, t));
  }
  for (const auto& [s, t] : sample.negative) {
    EXPECT_FALSE(PairSelectedByReference(g, outcome.query, s, t));
  }
}

TEST(BinaryLearnerTest, DestinationConstrainsScp) {
  // Under monadic semantics ν1's SCP with no negatives is ε; under binary
  // semantics with target ν4 the learner must find a word landing at ν4.
  // The negative (ν1, ν1) pair covers ε, so the learned query cannot
  // select trivial self-pairs.
  Graph g = Figure3G0();
  PairSample sample;
  sample.positive = {{0, 3}};
  sample.negative = {{0, 0}};
  LearnOutcome outcome = LearnBinaryPathQuery(g, sample, {});
  ASSERT_FALSE(outcome.is_null);
  EXPECT_TRUE(PairSelectedByReference(g, outcome.query, 0, 3));
  EXPECT_FALSE(PairSelectedByReference(g, outcome.query, 0, 0));
  EXPECT_FALSE(outcome.query.Accepts({}));
}

TEST(BinaryLearnerTest, AbstainsWhenPairUnreachable) {
  // ν4 is a sink: no path ν4 → ν1, so a positive (ν4, ν1) is hopeless.
  Graph g = Figure3G0();
  PairSample sample;
  sample.positive = {{3, 0}};
  LearnOutcome outcome = LearnBinaryPathQuery(g, sample, {});
  EXPECT_TRUE(outcome.is_null);
}

TEST(BinaryLearnerTest, GeoCommuteExample) {
  // "From N2 one reaches C1": learn from the pair example.
  Graph g = Figure1Geographic();
  NodeId n2 = g.FindNodeByName("N2");
  NodeId c1 = g.FindNodeByName("C1");
  NodeId r2 = g.FindNodeByName("R2");
  PairSample sample;
  sample.positive = {{n2, c1}};
  sample.negative = {{n2, r2}};
  LearnOutcome outcome = LearnBinaryPathQuery(g, sample, {});
  ASSERT_FALSE(outcome.is_null);
  EXPECT_TRUE(PairSelectedByReference(g, outcome.query, n2, c1));
  EXPECT_FALSE(PairSelectedByReference(g, outcome.query, n2, r2));
}

TEST(BinaryLearnerTest, CheckTripAbstainsWithTheStatus) {
  // With generalization off, the consistency check's evaluation is the
  // first step to poll the context: a cancelled context surfaces as the
  // outcome's status, with no query.
  Graph g = Figure3G0();
  PairSample sample;
  sample.positive = {{0, 3}, {2, 3}};
  sample.negative = {{1, 2}};
  LearnerOptions options;
  options.generalize = false;
  ASSERT_FALSE(LearnBinaryPathQuery(g, sample, options).is_null);

  ExecContext exec;
  exec.Cancel();
  options.exec = &exec;
  LearnOutcome outcome = LearnBinaryPathQuery(g, sample, options);
  EXPECT_TRUE(outcome.is_null);
  EXPECT_EQ(outcome.status.code(), StatusCode::kCancelled)
      << outcome.status.ToString();
}

TEST(NaryLearnerTest, LearnsTripleOnGeo) {
  // Tuples (N2, N4, C1): transport then cinema.
  Graph g = Figure1Geographic();
  NodeId n1 = g.FindNodeByName("N1");
  NodeId n2 = g.FindNodeByName("N2");
  NodeId n4 = g.FindNodeByName("N4");
  NodeId c1 = g.FindNodeByName("C1");
  NodeId r1 = g.FindNodeByName("R1");
  NodeId n5 = g.FindNodeByName("N5");
  TupleSample sample;
  sample.positive = {{n2, n4, c1}, {n1, n4, c1}};
  sample.negative = {{n5, n5, r1}};
  NaryOutcome outcome = LearnNaryPathQuery(g, sample, {});
  ASSERT_FALSE(outcome.is_null);
  ASSERT_EQ(outcome.queries.size(), 2u);
  EXPECT_TRUE(TupleSelectedPairwise(g, outcome.queries, {n2, n4, c1}));
  EXPECT_TRUE(TupleSelectedPairwise(g, outcome.queries, {n1, n4, c1}));
}

TEST(NaryLearnerTest, AbstainPropagates) {
  Graph g = Figure3G0();
  TupleSample sample;
  sample.positive = {{3, 0, 1}};  // ν4 is a sink: first hop impossible
  NaryOutcome outcome = LearnNaryPathQuery(g, sample, {});
  EXPECT_TRUE(outcome.is_null);
  EXPECT_TRUE(outcome.queries.empty());
}

TEST(NaryLearnerTest, ArityTwoMatchesBinary) {
  Graph g = Figure3G0();
  TupleSample tuples;
  tuples.positive = {{0, 3}, {2, 3}};
  tuples.negative = {{1, 2}};
  PairSample pairs;
  pairs.positive = {{0, 3}, {2, 3}};
  pairs.negative = {{1, 2}};
  NaryOutcome nary = LearnNaryPathQuery(g, tuples, {});
  LearnOutcome binary = LearnBinaryPathQuery(g, pairs, {});
  ASSERT_FALSE(nary.is_null);
  ASSERT_FALSE(binary.is_null);
  ASSERT_EQ(nary.queries.size(), 1u);
  EXPECT_TRUE(AreEquivalent(nary.queries[0], binary.query));
}

}  // namespace
}  // namespace rpqlearn
