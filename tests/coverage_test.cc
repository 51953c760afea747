#include <gtest/gtest.h>

#include "automata/word.h"
#include "graph/fixtures.h"
#include "graph/graph_nfa.h"
#include "learn/coverage.h"
#include "workloads/workloads.h"

namespace rpqlearn {
namespace {

/// Runs the coverage automaton on a word (must have |w| ≤ k).
StateId RunCoverage(const SubsetCoverage& cov, const Word& w) {
  StateId s = cov.initial();
  for (Symbol a : w) s = cov.Next(s, a);
  return s;
}

/// FNV-1a over initial() and, per state, its depth, its covering bit and,
/// below depth k, its transition row: equal fingerprints mean the same
/// automaton with the same state numbering.
uint64_t CoverageFingerprint(const SubsetCoverage& cov) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(cov.initial());
  for (StateId s = 0; s < cov.num_states(); ++s) {
    mix(cov.DepthOf(s));
    mix(cov.IsCovering(s) ? 1 : 0);
    if (cov.DepthOf(s) < cov.k()) {
      for (Symbol a = 0; a < cov.num_symbols(); ++a) mix(cov.Next(s, a));
    }
  }
  return h;
}

TEST(CoverageTest, MonadicCoverageMatchesPaths) {
  // Negatives of the Fig. 3 sample: {ν2, ν7}. covered(w) ⟺ w ∈ paths(S−).
  Graph g = Figure3G0();
  Nfa negatives = GraphToNfa(g, {1, 6});
  SubsetCoverage::Options options;
  options.k = 3;
  auto cov = SubsetCoverage::Build(negatives, options);
  ASSERT_TRUE(cov.ok());

  for (const Word& w : AllWordsUpTo(3, 3)) {
    bool covered = cov->IsCovering(RunCoverage(*cov, w));
    bool expected = g.HasPathFrom(1, w) || g.HasPathFrom(6, w);
    EXPECT_EQ(covered, expected) << WordToString(w, g.alphabet());
  }
}

TEST(CoverageTest, PaperCoverageFacts) {
  // From the Fig. 3 walkthrough: bc is covered by ν2; abc and c are not
  // covered by any negative.
  Graph g = Figure3G0();
  Nfa negatives = GraphToNfa(g, {1, 6});
  SubsetCoverage::Options options;
  options.k = 3;
  auto cov = SubsetCoverage::Build(negatives, options);
  ASSERT_TRUE(cov.ok());
  EXPECT_TRUE(cov->IsCovering(RunCoverage(*cov, {1, 2})));    // bc
  EXPECT_FALSE(cov->IsCovering(RunCoverage(*cov, {0, 1, 2})));  // abc
  EXPECT_FALSE(cov->IsCovering(RunCoverage(*cov, {2})));        // c
  EXPECT_TRUE(cov->IsCovering(RunCoverage(*cov, {})));          // ε
}

TEST(CoverageTest, EmptyNegativesCoverNothing) {
  Graph g = Figure3G0();
  Nfa negatives = GraphToNfa(g, {});
  SubsetCoverage::Options options;
  options.k = 2;
  auto cov = SubsetCoverage::Build(negatives, options);
  ASSERT_TRUE(cov.ok());
  EXPECT_EQ(cov->initial(), cov->empty_state());
  EXPECT_FALSE(cov->IsCovering(cov->initial()));
  EXPECT_FALSE(cov->IsCovering(RunCoverage(*cov, {0, 0})));
}

TEST(CoverageTest, EmptySubsetAbsorbs) {
  Graph g = Figure10Certain();
  Nfa negatives = GraphToNfa(g, {1});  // neg has only path "a"
  SubsetCoverage::Options options;
  options.k = 2;
  auto cov = SubsetCoverage::Build(negatives, options);
  ASSERT_TRUE(cov.ok());
  StateId after_b = cov->Next(cov->initial(), 1);  // 'b' not coverable
  EXPECT_TRUE(cov->IsEmptySubset(after_b));
  EXPECT_TRUE(cov->IsEmptySubset(cov->Next(after_b, 0)));
}

TEST(CoverageTest, BinaryCoverageUsesAcceptance) {
  // paths2(ν1, ν4) on Fig. 3: abc is covered (accepting), ab is not
  // (non-empty subset but not at ν4).
  Graph g = Figure3G0();
  Nfa pairs = GraphToNfaPairs(g, {{0, 3}});
  SubsetCoverage::Options options;
  options.k = 3;
  auto cov = SubsetCoverage::Build(pairs, options);
  ASSERT_TRUE(cov.ok());
  StateId after_abc = RunCoverage(*cov, {0, 1, 2});
  EXPECT_TRUE(cov->IsCovering(after_abc));
  StateId after_ab = RunCoverage(*cov, {0, 1});
  EXPECT_FALSE(cov->IsCovering(after_ab));
  EXPECT_FALSE(cov->IsEmptySubset(after_ab));
}

TEST(CoverageTest, StateCapAborts) {
  Graph g = Figure3G0();
  Nfa negatives = GraphToNfa(g, {0, 1, 2, 3, 4, 5, 6});
  SubsetCoverage::Options options;
  options.k = 3;
  options.max_states = 2;
  auto cov = SubsetCoverage::Build(negatives, options);
  EXPECT_FALSE(cov.ok());
  EXPECT_EQ(cov.status().code(), StatusCode::kResourceExhausted);

  // The cap counts the empty and the initial subset too: at k = 0 the
  // automaton of {ν2, ν7} has exactly those two states.
  Nfa fig3_negatives = GraphToNfa(g, {1, 6});
  options.k = 0;
  for (size_t cap : {0, 1}) {
    options.max_states = cap;
    auto capped = SubsetCoverage::Build(fig3_negatives, options);
    EXPECT_FALSE(capped.ok()) << "cap " << cap;
    EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted)
        << "cap " << cap;
  }
  options.max_states = 2;
  auto at_cap = SubsetCoverage::Build(fig3_negatives, options);
  ASSERT_TRUE(at_cap.ok());
  EXPECT_EQ(at_cap->num_states(), 2u);

  // Without negatives the empty subset is the only state.
  options.max_states = 1;
  auto empty = SubsetCoverage::Build(GraphToNfa(g, {}), options);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_states(), 1u);
}

TEST(CoverageTest, StateCapTripsAtExactCount) {
  // Subset ids are assigned in BFS order, so the cap trips at the same
  // state however subsets are looked up; a trip that moves would move the
  // learner's abstain.
  const Dataset dataset = BuildSyntheticDataset(300, 1);
  std::vector<NodeId> negatives;
  for (NodeId v = 0; v < dataset.graph.num_nodes(); v += 6) {
    negatives.push_back(v);
  }
  ASSERT_EQ(negatives.size(), 50u);
  Nfa nfa = GraphToNfa(dataset.graph, negatives);
  SubsetCoverage::Options options;
  options.k = 3;
  auto uncapped = SubsetCoverage::Build(nfa, options);
  ASSERT_TRUE(uncapped.ok());
  const uint32_t n = uncapped->num_states();
  EXPECT_EQ(n, 1137u);  // pinned: another count moves the abstain point
  // Pinned from the build that kept one vector per subset: the arena build
  // must produce the same table, depths and covering bits in the same order.
  EXPECT_EQ(CoverageFingerprint(*uncapped), 0x202b52021aca4388ull);
  for (StateId s = 1; s < n; ++s) {
    EXPECT_LE(uncapped->DepthOf(s - 1), uncapped->DepthOf(s))
        << "state " << s;
  }

  options.max_states = n;
  auto at_cap = SubsetCoverage::Build(nfa, options);
  ASSERT_TRUE(at_cap.ok());
  EXPECT_EQ(at_cap->num_states(), n);

  options.max_states = n - 1;
  auto below_cap = SubsetCoverage::Build(nfa, options);
  EXPECT_FALSE(below_cap.ok());
  EXPECT_EQ(below_cap.status().code(), StatusCode::kResourceExhausted);
}

TEST(CoverageTest, DepthTracksBfsLevels) {
  Graph g = Figure3G0();
  Nfa negatives = GraphToNfa(g, {1});
  SubsetCoverage::Options options;
  options.k = 2;
  auto cov = SubsetCoverage::Build(negatives, options);
  ASSERT_TRUE(cov.ok());
  EXPECT_EQ(cov->DepthOf(cov->initial()), 0u);
  StateId next = cov->Next(cov->initial(), 0);
  if (!cov->IsEmptySubset(next)) {
    EXPECT_EQ(cov->DepthOf(next), 1u);
  }
}

}  // namespace
}  // namespace rpqlearn
