#include <gtest/gtest.h>

#include "automata/equivalence.h"
#include "automata/prefix_free.h"
#include "graph/fixtures.h"
#include "query/eval.h"
#include "query/path_query.h"
#include "regex/parser.h"
#include "regex/to_nfa.h"
#include "eval_test_util.h"

namespace rpqlearn {
namespace {

TEST(PathQueryTest, ParseAndSize) {
  Alphabet alphabet;
  auto q = PathQuery::Parse("(a.b)*.c", &alphabet, 3);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->size(), 3u);  // "the size of the query (a·b)*·c is 3"
  EXPECT_FALSE(q->IsEmpty());
}

TEST(PathQueryTest, ParseErrorPropagates) {
  Alphabet alphabet;
  EXPECT_FALSE(PathQuery::Parse("(a+", &alphabet, 3).ok());
}

TEST(PathQueryTest, RejectsSymbolsBeyondGraphAlphabet) {
  Alphabet alphabet;
  alphabet.Intern("a");
  // Width 1, but the regex introduces a second symbol.
  auto q = PathQuery::Parse("a+b", &alphabet, 1);
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(PathQueryTest, FromDfaCanonicalizes) {
  // A redundant DFA for a* shrinks to one state.
  Dfa redundant(1);
  StateId s0 = redundant.AddState(true);
  StateId s1 = redundant.AddState(true);
  redundant.SetTransition(s0, 0, s1);
  redundant.SetTransition(s1, 0, s0);
  PathQuery q = PathQuery::FromDfa(redundant);
  EXPECT_EQ(q.size(), 1u);
}

TEST(PathQueryTest, PrefixFreeEquivalenceClass) {
  // Sec. 2: a and a·b* are equivalent queries; equal prefix-free forms.
  Alphabet alphabet;
  auto q1 = PathQuery::Parse("a", &alphabet, 2);
  auto q2 = PathQuery::Parse("a.b*", &alphabet, 2);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(q1->dfa() == q2->dfa());
  EXPECT_TRUE(q1->PrefixFree().dfa() == q2->PrefixFree().dfa());
}

TEST(PathQueryTest, EquivalentQueriesSelectSameNodes) {
  // The semantic counterpart of the prefix-free equivalence on a graph.
  Graph g = Figure3G0();
  Alphabet alphabet = g.alphabet();
  auto q1 = PathQuery::Parse("a", &alphabet, g.num_symbols());
  auto q2 = PathQuery::Parse("a.b*", &alphabet, g.num_symbols());
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(EvalMonadicOrDie(g, q1->dfa()) == EvalMonadicOrDie(g, q2->dfa()));
}

TEST(PathQueryTest, ToRegexStringRoundTrips) {
  Alphabet alphabet;
  auto q = PathQuery::Parse("(tram+bus)*.cinema", &alphabet, 3);
  ASSERT_TRUE(q.ok());
  std::string rendered = q->ToRegexString(alphabet);
  auto reparsed = PathQuery::Parse(rendered, &alphabet, 3);
  ASSERT_TRUE(reparsed.ok()) << rendered;
  EXPECT_TRUE(AreEquivalent(q->dfa(), reparsed->dfa()));
}

TEST(PathQueryTest, EmptyQueryDetection) {
  // `empty`-language query via an unsatisfiable regex shape is not
  // expressible in the grammar, so build from a DFA.
  Dfa empty(2);
  empty.AddState(false);
  PathQuery q = PathQuery::FromDfa(empty);
  EXPECT_TRUE(q.IsEmpty());
  EXPECT_EQ(q.size(), 1u);
}

TEST(PathQueryTest, EpsilonQuery) {
  Alphabet alphabet;
  auto q = PathQuery::Parse("eps", &alphabet, 2);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->dfa().Accepts({}));
  EXPECT_EQ(q->size(), 1u);
  EXPECT_TRUE(IsPrefixFree(q->dfa()));
}

}  // namespace
}  // namespace rpqlearn
