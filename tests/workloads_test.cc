#include <gtest/gtest.h>

#include "query/eval.h"
#include "workloads/workloads.h"
#include "eval_test_util.h"

namespace rpqlearn {
namespace {

TEST(AlibabaTest, MatchesPublishedShape) {
  Dataset dataset = BuildAlibabaDataset();
  EXPECT_EQ(dataset.graph.num_nodes(), 3000u);
  EXPECT_GE(dataset.graph.num_edges(), 7500u);
  EXPECT_LE(dataset.graph.num_edges(), 8000u);
  EXPECT_EQ(dataset.queries.size(), 6u);
}

TEST(AlibabaTest, QueriesSelectSomething) {
  // The paper kept only queries selecting ≥1 node; ours must too.
  Dataset dataset = BuildAlibabaDataset();
  for (const Workload& w : dataset.queries) {
    BitVector result = EvalMonadicOrDie(dataset.graph, w.query);
    EXPECT_GE(result.Count(), 1u) << w.name;
  }
}

TEST(AlibabaTest, SelectivityOrderingFollowsTable1) {
  // bio1 < bio2 < bio3 < bio4 ≤ bio6 and bio5 ≤ bio6 (bio5 refines bio6).
  Dataset dataset = BuildAlibabaDataset();
  std::vector<double> sel;
  for (const Workload& w : dataset.queries) {
    sel.push_back(
        static_cast<double>(EvalMonadicOrDie(dataset.graph, w.query).Count()) /
        dataset.graph.num_nodes());
  }
  EXPECT_LT(sel[0], sel[2]);  // bio1 < bio3
  EXPECT_LT(sel[1], sel[3]);  // bio2 < bio4
  EXPECT_LT(sel[2], sel[3]);  // bio3 < bio4
  EXPECT_LE(sel[4], sel[5]);  // bio5 ⊆ bio6 semantically
  EXPECT_LT(sel[0], 0.01);    // bio1 highly selective
  EXPECT_GT(sel[5], 0.05);    // bio6 broad
}

TEST(AlibabaTest, Bio5IsRefinementOfBio6) {
  // Every node selected by bio5 = A·A·A*·I·I·I* is selected by
  // bio6 = A·A·A* (prefix).
  Dataset dataset = BuildAlibabaDataset();
  BitVector bio5 = EvalMonadicOrDie(dataset.graph, dataset.queries[4].query);
  BitVector bio6 = EvalMonadicOrDie(dataset.graph, dataset.queries[5].query);
  EXPECT_TRUE(bio5.IsSubsetOf(bio6));
}

TEST(SyntheticTest, SizesScale) {
  for (uint32_t n : {1000u, 2000u}) {
    Dataset dataset = BuildSyntheticDataset(n);
    EXPECT_EQ(dataset.graph.num_nodes(), n);
    EXPECT_GE(dataset.graph.num_edges(), static_cast<size_t>(n) * 2.8);
    EXPECT_EQ(dataset.queries.size(), 3u);
  }
}

TEST(SyntheticTest, SelectivityOrdering) {
  Dataset dataset = BuildSyntheticDataset(5000);
  std::vector<double> sel;
  for (const Workload& w : dataset.queries) {
    sel.push_back(
        static_cast<double>(EvalMonadicOrDie(dataset.graph, w.query).Count()) /
        dataset.graph.num_nodes());
  }
  EXPECT_LT(sel[0], sel[1]);  // syn1 < syn2
  EXPECT_LT(sel[1], sel[2]);  // syn2 < syn3
}

TEST(SyntheticTest, DeterministicBySeed) {
  Dataset a = BuildSyntheticDataset(1000, 5);
  Dataset b = BuildSyntheticDataset(1000, 5);
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
}

}  // namespace
}  // namespace rpqlearn
