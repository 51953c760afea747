#include <gtest/gtest.h>

#include "learn/consistency.h"
#include "learn/hardness.h"
#include "learn/learner.h"
#include "query/eval.h"
#include "eval_test_util.h"

namespace rpqlearn {
namespace {

/// DFA over {a, b} accepting every word.
Dfa UniversalDfa() {
  Dfa dfa(2);
  StateId s = dfa.AddState(true);
  dfa.SetTransition(s, 0, s);
  dfa.SetTransition(s, 1, s);
  return dfa;
}

/// DFA over {a, b} accepting words with an even number of a's.
Dfa EvenAs() {
  Dfa dfa(2);
  StateId even = dfa.AddState(true);
  StateId odd = dfa.AddState(false);
  dfa.SetTransition(even, 0, odd);
  dfa.SetTransition(odd, 0, even);
  dfa.SetTransition(even, 1, even);
  dfa.SetTransition(odd, 1, odd);
  return dfa;
}

/// DFA over {a, b} accepting words with an odd number of a's.
Dfa OddAs() {
  Dfa dfa = EvenAs();
  dfa.SetAccepting(0, false);
  dfa.SetAccepting(1, true);
  return dfa;
}

/// DFA over {a, b} accepting only "a".
Dfa JustA() {
  Dfa dfa(2);
  StateId s0 = dfa.AddState(false);
  StateId s1 = dfa.AddState(true);
  dfa.SetTransition(s0, 0, s1);
  return dfa;
}

Alphabet AbAlphabet() {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  return alphabet;
}

TEST(UniversalityReductionTest, UniversalUnionIsInconsistent) {
  // L(D1) = Σ*: the union is universal, so the sample must be inconsistent
  // (Lemma 3.2's "consistent iff not universal").
  HardnessInstance instance =
      BuildUniversalityReduction({UniversalDfa()}, AbAlphabet());
  auto consistent = IsSampleConsistent(instance.graph, instance.sample);
  ASSERT_TRUE(consistent.ok());
  EXPECT_FALSE(*consistent);
}

TEST(UniversalityReductionTest, ComplementaryPairIsInconsistent) {
  // Even-a's ∪ odd-a's = Σ*.
  HardnessInstance instance =
      BuildUniversalityReduction({EvenAs(), OddAs()}, AbAlphabet());
  auto consistent = IsSampleConsistent(instance.graph, instance.sample);
  ASSERT_TRUE(consistent.ok());
  EXPECT_FALSE(*consistent);
}

TEST(UniversalityReductionTest, NonUniversalSingletonIsConsistent) {
  // L = {a} ≠ Σ*: consistent; e.g. the word s1·b·s2 witnesses it.
  HardnessInstance instance =
      BuildUniversalityReduction({JustA()}, AbAlphabet());
  auto consistent = IsSampleConsistent(instance.graph, instance.sample);
  ASSERT_TRUE(consistent.ok());
  EXPECT_TRUE(*consistent);
}

TEST(UniversalityReductionTest, NonUniversalPairIsConsistent) {
  // Even-a's ∪ {a}: words with an odd number of a's (≥3... actually "aab"?)
  // e.g. "aaa" is in neither language.
  HardnessInstance instance =
      BuildUniversalityReduction({EvenAs(), JustA()}, AbAlphabet());
  auto consistent = IsSampleConsistent(instance.graph, instance.sample);
  ASSERT_TRUE(consistent.ok());
  EXPECT_TRUE(*consistent);
}

TEST(UniversalityReductionTest, LearnerFindsConsistentQueryWhenOneExists) {
  HardnessInstance instance =
      BuildUniversalityReduction({JustA()}, AbAlphabet());
  LearnerOptions options;
  options.max_k = 6;
  LearnOutcome outcome =
      LearnPathQuery(instance.graph, instance.sample, options);
  ASSERT_FALSE(outcome.is_null);
  BitVector selected = EvalMonadicOrDie(instance.graph, outcome.query);
  for (NodeId v : instance.sample.positive) EXPECT_TRUE(selected.Test(v));
  for (NodeId v : instance.sample.negative) EXPECT_FALSE(selected.Test(v));
}

TEST(SatReductionTest, SatisfiableFormulaIsConsistent) {
  // (x1 ∨ x2 ∨ x3) ∧ (¬x1 ∨ x3 ∨ ¬x4) — the paper's φ0 (Fig. 14),
  // satisfiable.
  std::vector<Clause3> phi0 = {{{1, -2, 3}}, {{-1, 3, -4}}};
  HardnessInstance instance = Build3SatReduction(phi0, 4);
  auto consistent = IsSampleConsistent(instance.graph, instance.sample);
  ASSERT_TRUE(consistent.ok());
  EXPECT_TRUE(*consistent);
}

TEST(SatReductionTest, UnsatisfiableFormulaIsInconsistent) {
  // (x1∨x1∨x1) ∧ (¬x1∨¬x1∨¬x1): plainly unsatisfiable.
  std::vector<Clause3> unsat = {{{1, 1, 1}}, {{-1, -1, -1}}};
  HardnessInstance instance = Build3SatReduction(unsat, 1);
  auto consistent = IsSampleConsistent(instance.graph, instance.sample);
  ASSERT_TRUE(consistent.ok());
  EXPECT_FALSE(*consistent);
}

TEST(SatReductionTest, AllCombinationsOfTwoVariables) {
  // Exhaustive mini-check: for every 2-variable formula shape below, the
  // reduction's consistency equals brute-force satisfiability.
  struct Case {
    std::vector<Clause3> clauses;
    bool satisfiable;
  };
  std::vector<Case> cases = {
      {{{{1, 2, 2}}, {{-1, -2, -2}}}, true},   // x1∨x2, ¬x1∨¬x2
      {{{{1, 1, 1}}, {{2, 2, 2}}, {{-1, -2, -2}}}, false},
      {{{{1, 1, 1}}, {{-2, -2, -2}}}, true},
      {{{{1, 1, 1}}, {{-1, -1, -1}}, {{2, 2, 2}}}, false},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    HardnessInstance instance = Build3SatReduction(cases[i].clauses, 2);
    auto consistent = IsSampleConsistent(instance.graph, instance.sample);
    ASSERT_TRUE(consistent.ok()) << "case " << i;
    EXPECT_EQ(*consistent, cases[i].satisfiable) << "case " << i;
  }
}

TEST(SatReductionTest, LearnerExtractsSatisfyingAssignment) {
  // On a satisfiable instance the learner finds a consistent query; by the
  // reduction's structure its witness path encodes a satisfying valuation.
  std::vector<Clause3> phi0 = {{{1, -2, 3}}, {{-1, 3, -4}}};
  HardnessInstance instance = Build3SatReduction(phi0, 4);
  LearnerOptions options;
  options.k = 4;  // s1 + one literal per clause + s2
  options.max_k = 5;
  LearnOutcome outcome =
      LearnPathQuery(instance.graph, instance.sample, options);
  ASSERT_FALSE(outcome.is_null);
  BitVector selected = EvalMonadicOrDie(instance.graph, outcome.query);
  for (NodeId v : instance.sample.positive) EXPECT_TRUE(selected.Test(v));
  for (NodeId v : instance.sample.negative) EXPECT_FALSE(selected.Test(v));
}

}  // namespace
}  // namespace rpqlearn
