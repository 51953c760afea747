#include <gtest/gtest.h>

#include "automata/prefix_free.h"
#include "graph/generators.h"
#include "learn/consistency.h"
#include "learn/learner.h"
#include "query/eval.h"
#include "regex/random_regex.h"
#include "regex/to_nfa.h"
#include "util/random.h"
#include "eval_test_util.h"

namespace rpqlearn {
namespace {

/// End-to-end soundness sweep of Algorithm 1 (Definition 3.4, clause 1):
/// on random graphs with random goal queries and random oracle-labeled
/// samples, the learner must either abstain or return a query that is
/// consistent with the sample, prefix-free, and canonical.
class LearnerSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LearnerSoundnessTest, SoundWithAbstainOnRandomInstances) {
  Rng rng(GetParam());
  ErdosRenyiOptions graph_options;
  graph_options.num_nodes = 25 + static_cast<uint32_t>(rng.NextBelow(50));
  graph_options.num_edges = graph_options.num_nodes * 3;
  graph_options.num_labels = 3;
  graph_options.seed = GetParam() * 131;
  Graph graph = GenerateErdosRenyi(graph_options);

  RandomRegexOptions regex_options;
  regex_options.num_symbols = 3;
  regex_options.max_depth = 3;

  for (int round = 0; round < 5; ++round) {
    RegexPtr goal_regex = RandomRegex(&rng, regex_options);
    Dfa goal = RegexToCanonicalDfa(goal_regex, 3);
    BitVector goal_set = EvalMonadicOrDie(graph, goal);

    // Oracle-labeled random sample.
    Sample sample;
    size_t labels = 2 + rng.NextBelow(10);
    for (size_t i = 0; i < labels; ++i) {
      NodeId v = static_cast<NodeId>(rng.NextBelow(graph.num_nodes()));
      if (sample.IsLabeled(v)) continue;
      if (goal_set.Test(v)) {
        sample.AddPositive(v);
      } else {
        sample.AddNegative(v);
      }
    }

    LearnerOptions options;
    options.max_k = 6;
    LearnOutcome outcome = LearnPathQuery(graph, sample, options);
    if (outcome.is_null) {
      // Abstain is always allowed; but when no positives exist, the empty
      // query is trivially consistent, so abstain would be a bug.
      EXPECT_FALSE(sample.positive.empty()) << "round " << round;
      continue;
    }
    BitVector selected = EvalMonadicOrDie(graph, outcome.query);
    for (NodeId v : sample.positive) {
      EXPECT_TRUE(selected.Test(v)) << "round " << round << " node " << v;
    }
    for (NodeId v : sample.negative) {
      EXPECT_FALSE(selected.Test(v)) << "round " << round << " node " << v;
    }
    EXPECT_TRUE(IsPrefixFree(outcome.query)) << "round " << round;
  }
}

/// Oracle-labeled samples are always consistent (the goal query witnesses
/// it), so the bounded consistency check must never contradict that at the
/// k the learner succeeded with.
TEST_P(LearnerSoundnessTest, OracleSamplesAreConsistent) {
  Rng rng(GetParam() + 500);
  ErdosRenyiOptions graph_options;
  graph_options.num_nodes = 30;
  graph_options.num_edges = 90;
  graph_options.num_labels = 2;
  graph_options.seed = GetParam() * 17;
  Graph graph = GenerateErdosRenyi(graph_options);

  RandomRegexOptions regex_options;
  regex_options.num_symbols = 2;
  regex_options.max_depth = 3;
  RegexPtr goal_regex = RandomRegex(&rng, regex_options);
  Dfa goal = RegexToCanonicalDfa(goal_regex, 2);
  BitVector goal_set = EvalMonadicOrDie(graph, goal);

  Sample sample;
  for (NodeId v = 0; v < graph.num_nodes(); v += 3) {
    if (goal_set.Test(v)) {
      sample.AddPositive(v);
    } else {
      sample.AddNegative(v);
    }
  }
  auto consistent = IsSampleConsistent(graph, sample);
  ASSERT_TRUE(consistent.ok());
  EXPECT_TRUE(*consistent);
}

/// Monotonicity of abstention in k: if the learner succeeds at k, the
/// dynamic-k learner starting below must also succeed (with k_used ≤ k's
/// first success).
TEST_P(LearnerSoundnessTest, DynamicKFindsFirstWorkingK) {
  Rng rng(GetParam() + 900);
  ErdosRenyiOptions graph_options;
  graph_options.num_nodes = 30;
  graph_options.num_edges = 80;
  graph_options.num_labels = 2;
  graph_options.seed = GetParam() * 23 + 1;
  Graph graph = GenerateErdosRenyi(graph_options);

  RandomRegexOptions regex_options;
  regex_options.num_symbols = 2;
  regex_options.max_depth = 3;
  Dfa goal = RegexToCanonicalDfa(RandomRegex(&rng, regex_options), 2);
  BitVector goal_set = EvalMonadicOrDie(graph, goal);

  Sample sample;
  for (int i = 0; i < 8; ++i) {
    NodeId v = static_cast<NodeId>(rng.NextBelow(graph.num_nodes()));
    if (sample.IsLabeled(v)) continue;
    if (goal_set.Test(v)) {
      sample.AddPositive(v);
    } else {
      sample.AddNegative(v);
    }
  }

  LearnerOptions dynamic;
  dynamic.k = 1;
  dynamic.max_k = 6;
  LearnOutcome dynamic_outcome = LearnPathQuery(graph, sample, dynamic);
  if (dynamic_outcome.is_null) return;  // nothing to compare

  for (uint32_t k = 1; k < dynamic_outcome.stats.k_used; ++k) {
    LearnerOptions fixed;
    fixed.k = k;
    fixed.auto_k = false;
    EXPECT_TRUE(LearnPathQuery(graph, sample, fixed).is_null)
        << "dynamic-k skipped a working k=" << k;
  }
  LearnerOptions at_used;
  at_used.k = dynamic_outcome.stats.k_used;
  at_used.auto_k = false;
  EXPECT_FALSE(LearnPathQuery(graph, sample, at_used).is_null);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LearnerSoundnessTest,
                         ::testing::Range<uint64_t>(1, 17));

}  // namespace
}  // namespace rpqlearn
