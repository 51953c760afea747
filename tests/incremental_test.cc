#include <gtest/gtest.h>

#include <set>

#include "automata/equivalence.h"
#include "graph/fixtures.h"
#include "graph/graph_nfa.h"
#include "learn/incremental.h"
#include "learn/learner.h"
#include "learn/scp.h"
#include "query/eval.h"
#include "util/exec_context.h"
#include "util/fault.h"
#include "util/random.h"
#include "workloads/workloads.h"

namespace rpqlearn {
namespace {

/// Same status code, abstain flag, query and every LearnerStats field.
void ExpectSameOutcome(const LearnOutcome& actual,
                       const LearnOutcome& expected) {
  EXPECT_EQ(actual.status.code(), expected.status.code());
  EXPECT_EQ(actual.is_null, expected.is_null);
  if (!actual.is_null && !expected.is_null) {
    EXPECT_TRUE(actual.query == expected.query);
  }
  EXPECT_EQ(actual.stats.k_used, expected.stats.k_used);
  EXPECT_EQ(actual.stats.num_scps, expected.stats.num_scps);
  EXPECT_EQ(actual.stats.positives_with_scp,
            expected.stats.positives_with_scp);
  EXPECT_EQ(actual.stats.pta_states, expected.stats.pta_states);
  EXPECT_EQ(actual.stats.merges_attempted, expected.stats.merges_attempted);
  EXPECT_EQ(actual.stats.merges_accepted, expected.stats.merges_accepted);
}

/// Lines 1–2 of Algorithm 1 on their own: the SCP words of `sample` at `k`.
std::set<Word, CanonicalWordLess> ScpWords(const Graph& g,
                                           const Sample& sample, uint32_t k) {
  SubsetCoverage::Options options;
  options.k = k;
  auto coverage = SubsetCoverage::Build(GraphToNfa(g, sample.negative),
                                        options);
  EXPECT_TRUE(coverage.ok());
  const Nfa all = GraphToNfa(g, {});
  std::set<Word, CanonicalWordLess> words;
  for (NodeId v : sample.positive) {
    auto scp = SmallestConsistentPath(all, {v}, *coverage);
    EXPECT_TRUE(scp.ok());
    if (scp->path.has_value()) words.insert(*scp->path);
  }
  return words;
}

TEST(IncrementalLearnerTest, MatchesBatchOnFig3Walkthrough) {
  Graph g = Figure3G0();
  LearnerOptions options;
  options.k = 3;
  options.auto_k = false;
  IncrementalLearner incremental(g, options);
  incremental.AddPositive(0);
  incremental.AddPositive(2);
  incremental.AddNegative(1);
  incremental.AddNegative(6);

  LearnOutcome inc = incremental.LearnAtK(3);
  Sample sample;
  sample.positive = {0, 2};
  sample.negative = {1, 6};
  LearnOutcome batch = LearnPathQuery(g, sample, options);
  ASSERT_FALSE(inc.is_null);
  ASSERT_FALSE(batch.is_null);
  EXPECT_TRUE(inc.query == batch.query);
  EXPECT_EQ(inc.stats.num_scps, batch.stats.num_scps);
}

TEST(IncrementalLearnerTest, CachedScpSurvivesPositiveLabels) {
  // Adding positives must not invalidate anything: results identical before
  // and after interleaving positive additions.
  Graph g = Figure3G0();
  LearnerOptions options;
  options.k = 3;
  options.auto_k = false;
  IncrementalLearner learner(g, options);
  learner.AddNegative(1);
  learner.AddNegative(6);
  learner.AddPositive(2);
  LearnOutcome first = learner.LearnAtK(3);
  ASSERT_FALSE(first.is_null);
  learner.AddPositive(0);  // positive only: caches stay valid
  LearnOutcome second = learner.LearnAtK(3);
  ASSERT_FALSE(second.is_null);
  EXPECT_TRUE(AreEquivalent(second.query, first.query) ||
              second.query.num_states() >= first.query.num_states());
  // And it still matches the batch learner exactly.
  Sample sample;
  sample.positive = {2, 0};
  sample.negative = {1, 6};
  LearnOutcome batch = LearnPathQuery(g, sample, options);
  EXPECT_TRUE(second.query == batch.query);
}

TEST(IncrementalLearnerTest, ScpRevalidationOnNewNegatives) {
  // A new negative that covers the previous SCP must force recomputation:
  // the incremental result still equals the batch result.
  Graph g = Figure3G0();
  LearnerOptions options;
  options.k = 3;
  options.auto_k = false;
  IncrementalLearner learner(g, options);
  learner.AddPositive(2);  // SCP with no negatives: ε
  LearnOutcome loose = learner.LearnAtK(3);
  ASSERT_FALSE(loose.is_null);
  EXPECT_TRUE(loose.query.Accepts({}));

  learner.AddNegative(1);  // covers ε, a, b, ... — SCP must move to c
  learner.AddNegative(6);
  LearnOutcome tight = learner.LearnAtK(3);
  ASSERT_FALSE(tight.is_null);
  EXPECT_FALSE(tight.query.Accepts({}));
  EXPECT_TRUE(tight.query.Accepts({2}));

  Sample sample;
  sample.positive = {2};
  sample.negative = {1, 6};
  LearnOutcome batch = LearnPathQuery(g, sample, options);
  EXPECT_TRUE(tight.query == batch.query);
}

TEST(IncrementalLearnerTest, DynamicKSweepMatchesBatch) {
  Graph g = Figure3G0();
  LearnerOptions options;  // defaults: k=2, auto_k, max_k=8
  IncrementalLearner learner(g, options);
  learner.AddPositive(0);
  learner.AddPositive(2);
  learner.AddNegative(1);
  learner.AddNegative(6);
  LearnOutcome inc = learner.Learn();
  Sample sample;
  sample.positive = {0, 2};
  sample.negative = {1, 6};
  LearnOutcome batch = LearnPathQuery(g, sample, options);
  ASSERT_FALSE(inc.is_null);
  ASSERT_FALSE(batch.is_null);
  EXPECT_TRUE(inc.query == batch.query);
  EXPECT_EQ(inc.stats.k_used, batch.stats.k_used);
}

TEST(IncrementalLearnerTest, AbstainsLikeBatchOnInconsistency) {
  Graph g = Figure5Inconsistent();
  IncrementalLearner learner(g, {});
  learner.AddPositive(0);
  learner.AddNegative(1);
  learner.AddNegative(2);
  EXPECT_TRUE(learner.Learn().is_null);
}

TEST(IncrementalLearnerTest, NegativeSelectedByHypothesisDropsMemo) {
  // Fig. 3 at k = 2 with S+ = {ν2}, S− = {ν6}: the SCP is bc and RPNI
  // generalizes it to b*c, which selects ν3 (ν3 -c-> ν4). Labelling ν3
  // negative leaves the SCP at bc, but b*c is no longer consistent, so the
  // stored generalization must not be reused: RPNI reruns and keeps bc.
  Graph g = Figure3G0();
  LearnerOptions options;
  options.k = 2;
  options.auto_k = false;
  IncrementalLearner learner(g, options);
  Sample sample;
  learner.AddPositive(1);
  sample.AddPositive(1);
  learner.AddNegative(5);
  sample.AddNegative(5);
  const LearnOutcome before = learner.LearnAtK(2);
  ASSERT_FALSE(before.is_null);
  ASSERT_TRUE(EvalMonadic(g, before.query).Test(2));  // b*c selects ν3
  const auto words_before = ScpWords(g, sample, 2);

  learner.AddNegative(2);
  sample.AddNegative(2);
  ASSERT_EQ(ScpWords(g, sample, 2), words_before);  // same RPNI input
  const LearnOutcome after = learner.LearnAtK(2);
  ExpectSameOutcome(after, LearnPathQuery(g, sample, options));
  ASSERT_FALSE(after.is_null);
  EXPECT_FALSE(after.query == before.query);
  EXPECT_FALSE(EvalMonadic(g, after.query).Test(2));
  EXPECT_EQ(after.stats.merges_accepted, 0u);
}

TEST(IncrementalLearnerTest, TripAbstainsWithTheLatchedStatus) {
  // The first checkpoint of a learner call is RPNI's first merge trial.
  Graph g = Figure3G0();
  ExecContext exec;
  FaultInjector cancel_first({FaultKind::kCancel, 1});
  exec.set_fault_injector(&cancel_first);
  LearnerOptions options;
  options.k = 3;
  options.auto_k = false;
  options.exec = &exec;
  IncrementalLearner learner(g, options);
  learner.AddPositive(0);
  learner.AddPositive(2);
  learner.AddNegative(1);
  learner.AddNegative(6);

  const LearnOutcome tripped = learner.LearnAtK(3);
  EXPECT_TRUE(cancel_first.fired());
  EXPECT_EQ(tripped.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(tripped.is_null);
  // The context stays tripped.
  const LearnOutcome again = learner.LearnAtK(3);
  EXPECT_EQ(again.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(again.is_null);

  // Rearmed, the learner answers as the batch learner does: a trip leaves
  // no partial hypothesis behind to reuse.
  exec.set_fault_injector(nullptr);
  exec.Reset();
  Sample sample;
  sample.positive = {0, 2};
  sample.negative = {1, 6};
  options.exec = nullptr;
  ExpectSameOutcome(learner.LearnAtK(3), LearnPathQuery(g, sample, options));
}

TEST(IncrementalLearnerTest, ReuseOnTrippedContextReportsTheTrip) {
  Graph g = Figure3G0();
  ExecContext exec;
  LearnerOptions options;
  options.k = 3;
  options.auto_k = false;
  options.exec = &exec;
  IncrementalLearner learner(g, options);
  learner.AddPositive(0);
  learner.AddPositive(2);
  learner.AddNegative(1);
  learner.AddNegative(6);
  const LearnOutcome learned = learner.LearnAtK(3);
  ASSERT_TRUE(learned.status.ok());
  ASSERT_FALSE(learned.is_null);

  // Cancel at the next checkpoint: the first merge trial at k = 4.
  FaultInjector cancel_next({FaultKind::kCancel, exec.checkpoints() + 1});
  exec.set_fault_injector(&cancel_next);
  const LearnOutcome other_k = learner.LearnAtK(4);
  EXPECT_TRUE(cancel_next.fired());
  EXPECT_EQ(other_k.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(other_k.is_null);

  // No label since: k = 3 reuses its generalization, which polls no
  // checkpoint, and still reports the latched trip.
  const uint64_t polled = exec.checkpoints();
  const LearnOutcome reused = learner.LearnAtK(3);
  EXPECT_EQ(exec.checkpoints(), polled);
  EXPECT_EQ(reused.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(reused.is_null);

  // Rearmed, the same reuse returns the learned outcome.
  exec.set_fault_injector(nullptr);
  exec.Reset();
  ExpectSameOutcome(learner.LearnAtK(3), learned);
  EXPECT_EQ(exec.checkpoints(), 0u);
}

TEST(IncrementalLearnerTest, CoverageAtKIsShared) {
  Graph g = Figure3G0();
  IncrementalLearner learner(g, {});
  learner.AddNegative(1);
  const SubsetCoverage* cov = learner.CoverageAtK(2);
  ASSERT_NE(cov, nullptr);
  EXPECT_EQ(cov->k(), 2u);
  EXPECT_TRUE(cov->IsCovering(cov->initial()));  // ε covered
  // Same pointer while negatives unchanged.
  learner.AddPositive(0);
  EXPECT_EQ(learner.CoverageAtK(2), cov);
}

class IncrementalEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IncrementalEquivalenceTest, RandomLabelStreamsMatchBatch) {
  // Property: after every label of a random label stream, the incremental
  // learner's outcome at k = 2 and at k = 3 equals the batch learner's on
  // the same sample, statistics included, whether it reused a stored
  // generalization or ran RPNI again.
  Dataset dataset = BuildSyntheticDataset(300, /*seed=*/GetParam());
  const Graph& g = dataset.graph;
  BitVector goal = EvalMonadic(g, dataset.queries[1].query);
  Rng rng(GetParam() * 7919 + 1);

  LearnerOptions options;
  options.auto_k = false;
  IncrementalLearner incremental(g, options);
  Sample sample;
  while (sample.size() < 40) {
    NodeId v = static_cast<NodeId>(rng.NextBelow(g.num_nodes()));
    if (sample.IsLabeled(v)) continue;
    if (goal.Test(v)) {
      incremental.AddPositive(v);
      sample.AddPositive(v);
    } else {
      incremental.AddNegative(v);
      sample.AddNegative(v);
    }
    for (uint32_t k : {2u, 3u}) {
      SCOPED_TRACE("label " + std::to_string(sample.size()) + ", k " +
                   std::to_string(k));
      options.k = k;
      ExpectSameOutcome(incremental.LearnAtK(k),
                        LearnPathQuery(g, sample, options));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, IncrementalEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace rpqlearn
