#include <gtest/gtest.h>

#include "automata/equivalence.h"
#include "automata/minimize.h"
#include "automata/prefix_free.h"
#include "automata/random_automata.h"
#include "learn/char_sample.h"
#include "learn/learner.h"
#include "query/eval.h"
#include "query/metrics.h"
#include "query/path_query.h"
#include "util/random.h"
#include "eval_test_util.h"

namespace rpqlearn {
namespace {

Dfa AbStarC() {
  Alphabet alphabet;
  auto q = PathQuery::Parse("(a.b)*.c", &alphabet, 3);
  EXPECT_TRUE(q.ok());
  return q->dfa();
}

Alphabet ThreeSymbolAlphabet() {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  alphabet.Intern("c");
  return alphabet;
}

TEST(CharWordsTest, PaperExampleForAbStarC) {
  // Proof of Thm. 3.5: "we obtain P+ = {c, abc} and
  // P− = {ε, a, ab, ac, bc}".
  WordSample words = BuildRpniCharacteristicWords(AbStarC());
  auto contains = [](const std::vector<Word>& set, const Word& w) {
    return std::find(set.begin(), set.end(), w) != set.end();
  };
  EXPECT_TRUE(contains(words.positive, {2}));        // c
  EXPECT_TRUE(contains(words.positive, {0, 1, 2}));  // abc
  EXPECT_TRUE(contains(words.negative, {}));         // ε
  EXPECT_TRUE(contains(words.negative, {0}));        // a
  EXPECT_TRUE(contains(words.negative, {0, 1}));     // ab
}

TEST(CharGraphTest, BuildsForAbStarC) {
  CharacteristicGraphSample cs =
      BuildCharacteristicGraph(AbStarC(), ThreeSymbolAlphabet());
  EXPECT_GE(cs.sample.positive.size(), 2u);
  EXPECT_EQ(cs.sample.negative.size(), 1u);
  // Positives are selected by the goal, negatives are not.
  Dfa goal = AbStarC();
  BitVector selected = EvalMonadicOrDie(cs.graph, goal);
  for (NodeId v : cs.sample.positive) EXPECT_TRUE(selected.Test(v));
  for (NodeId v : cs.sample.negative) EXPECT_FALSE(selected.Test(v));
}

TEST(CharGraphTest, NegativeNodeCoversNegativeWords) {
  Dfa goal = AbStarC();
  WordSample words = BuildRpniCharacteristicWords(goal);
  CharacteristicGraphSample cs =
      BuildCharacteristicGraph(goal, ThreeSymbolAlphabet());
  NodeId neg = cs.sample.negative.at(0);
  for (const Word& w : words.negative) {
    EXPECT_TRUE(cs.graph.HasPathFrom(neg, w));
  }
}

TEST(CharGraphTest, NegativeNodeCoversExactlyNonPrefixedWords) {
  // paths(neg) = words with no prefix in L(q) — condition (ii)+(iii) of the
  // construction.
  Dfa goal = AbStarC();
  CharacteristicGraphSample cs =
      BuildCharacteristicGraph(goal, ThreeSymbolAlphabet());
  NodeId neg = cs.sample.negative.at(0);
  for (const Word& w : AllWordsUpTo(3, 4)) {
    bool has_prefix_in_l = false;
    for (size_t len = 0; len <= w.size(); ++len) {
      Word prefix(w.begin(), w.begin() + len);
      if (goal.Accepts(prefix)) {
        has_prefix_in_l = true;
        break;
      }
    }
    EXPECT_EQ(cs.graph.HasPathFrom(neg, w), !has_prefix_in_l)
        << "word length " << w.size();
  }
}

TEST(CharGraphTest, LearnerIdentifiesAbStarC) {
  // The headline of Thm. 3.5: on its characteristic graph+sample, the
  // learner returns exactly the goal query.
  Dfa goal = AbStarC();
  CharacteristicGraphSample cs =
      BuildCharacteristicGraph(goal, ThreeSymbolAlphabet());
  LearnerOptions options;
  options.k = 2 * goal.num_states() + 1;  // the theorem's k = 2n+1
  options.auto_k = false;
  LearnOutcome outcome = LearnPathQuery(cs.graph, cs.sample, options);
  ASSERT_FALSE(outcome.is_null);
  EXPECT_TRUE(AreEquivalent(outcome.query, goal));
}

TEST(CharGraphTest, EpsilonQueryDegenerateCase) {
  Dfa eps(2);
  eps.AddState(true);
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  CharacteristicGraphSample cs = BuildCharacteristicGraph(eps, alphabet);
  EXPECT_EQ(cs.sample.positive.size(), 1u);
  EXPECT_TRUE(cs.sample.negative.empty());
  LearnOutcome outcome = LearnPathQuery(cs.graph, cs.sample, {});
  ASSERT_FALSE(outcome.is_null);
  EXPECT_TRUE(outcome.query.Accepts({}));
}

class CharGraphPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CharGraphPropertyTest, LearnerRecoversRandomPrefixFreeQueries) {
  // Thm. 3.5 as a property: for random prefix-free goal queries, learning
  // from the characteristic graph with k = 2n+1 returns a query equivalent
  // to the goal (hence F1 = 1 against it).
  Rng rng(GetParam());
  RandomAutomatonOptions options;
  options.num_states = 4;
  options.num_symbols = 2;
  Dfa goal = RandomPrefixFreeQuery(&rng, options);

  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  CharacteristicGraphSample cs = BuildCharacteristicGraph(goal, alphabet);

  LearnerOptions learner_options;
  learner_options.k = 2 * goal.num_states() + 1;
  learner_options.auto_k = false;
  LearnOutcome outcome = LearnPathQuery(cs.graph, cs.sample, learner_options);
  ASSERT_FALSE(outcome.is_null) << "goal size " << goal.num_states();

  BitVector learned_set = EvalMonadicOrDie(cs.graph, outcome.query);
  BitVector goal_set = EvalMonadicOrDie(cs.graph, goal);
  EXPECT_DOUBLE_EQ(ComputeMetrics(learned_set, goal_set).f1, 1.0);
  EXPECT_TRUE(AreEquivalent(outcome.query, goal))
      << "goal states " << goal.num_states() << " learned states "
      << outcome.query.num_states();
}

INSTANTIATE_TEST_SUITE_P(RandomQueries, CharGraphPropertyTest,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace rpqlearn
