#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "automata/dfa_csr.h"
#include "automata/fold.h"
#include "automata/ops.h"
#include "automata/pta.h"
#include "automata/random_automata.h"
#include "graph/generators.h"
#include "graph/graph_nfa.h"
#include "learn/rpni.h"
#include "query/eval.h"
#include "query/eval_reference.h"
#include "util/random.h"
#include "eval_test_util.h"

namespace rpqlearn {
namespace {

// Differential tests: the CSR evaluation engine and the zero-copy RPNI path
// must produce byte-identical results to the retained seed reference
// implementations over randomized graph/query (and sample) pairs.

Graph RandomGraph(Rng* rng, uint32_t max_nodes, uint32_t num_labels) {
  ErdosRenyiOptions options;
  options.num_nodes = 2 + static_cast<uint32_t>(rng->NextBelow(max_nodes - 1));
  options.num_edges = options.num_nodes +
                      rng->NextBelow(3 * static_cast<size_t>(options.num_nodes));
  options.num_labels = num_labels;
  options.seed = rng->Next();
  return GenerateErdosRenyi(options);
}

Dfa RandomQuery(Rng* rng, uint32_t num_symbols) {
  RandomAutomatonOptions options;
  options.num_states = 1 + static_cast<uint32_t>(rng->NextBelow(6));
  options.num_symbols = num_symbols;
  options.transition_density = 0.3 + 0.6 * rng->NextDouble();
  options.accepting_probability = 0.4;
  return RandomDfa(rng, options);
}

Word RandomWord(Rng* rng, uint32_t num_symbols, size_t max_length) {
  Word w;
  const size_t len = rng->NextBelow(max_length + 1);
  for (size_t i = 0; i < len; ++i) {
    w.push_back(static_cast<Symbol>(rng->NextBelow(num_symbols)));
  }
  return w;
}

TEST(EvalCsrOracleTest, FrozenDfaMatchesDfa) {
  Rng rng(11);
  for (int iteration = 0; iteration < 50; ++iteration) {
    Dfa dfa = RandomQuery(&rng, 3);
    FrozenDfa frozen(dfa);
    ASSERT_EQ(frozen.num_states(), dfa.num_states());
    ASSERT_EQ(frozen.initial_state(), dfa.initial_state());
    for (StateId s = 0; s < dfa.num_states(); ++s) {
      EXPECT_EQ(frozen.IsAccepting(s), dfa.IsAccepting(s));
      for (Symbol a = 0; a < dfa.num_symbols(); ++a) {
        EXPECT_EQ(frozen.Next(s, a), dfa.Next(s, a));
      }
    }
    // The reverse CSR index inverts the forward table exactly.
    for (Symbol a = 0; a < dfa.num_symbols(); ++a) {
      for (StateId t = 0; t < dfa.num_states(); ++t) {
        std::vector<StateId> expected;
        for (StateId s = 0; s < dfa.num_states(); ++s) {
          if (dfa.Next(s, a) == t) expected.push_back(s);
        }
        auto sources = frozen.Sources(a, t);
        ASSERT_EQ(std::vector<StateId>(sources.begin(), sources.end()),
                  expected);
      }
    }
  }
}

TEST(EvalCsrOracleTest, LabelRunCsrMatchesEdgeLists) {
  Rng rng(12);
  for (int iteration = 0; iteration < 30; ++iteration) {
    Graph g = RandomGraph(&rng, 40, 4);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (Symbol a = 0; a < g.num_symbols(); ++a) {
        std::vector<NodeId> out_expected;
        for (const LabeledEdge& e : g.OutEdges(v)) {
          if (e.label == a) out_expected.push_back(e.node);
        }
        auto out_run = g.OutNeighbors(v, a);
        ASSERT_EQ(std::vector<NodeId>(out_run.begin(), out_run.end()),
                  out_expected);
        std::vector<NodeId> in_expected;
        for (const LabeledEdge& e : g.InEdges(v)) {
          if (e.label == a) in_expected.push_back(e.node);
        }
        auto in_run = g.InNeighbors(v, a);
        ASSERT_EQ(std::vector<NodeId>(in_run.begin(), in_run.end()),
                  in_expected);
      }
    }
  }
}

TEST(EvalCsrOracleTest, EvaluationMatchesReferenceOn120RandomPairs) {
  Rng rng(13);
  for (int iteration = 0; iteration < 120; ++iteration) {
    const uint32_t num_labels = 2 + static_cast<uint32_t>(rng.NextBelow(3));
    Graph g = RandomGraph(&rng, 60, num_labels);
    const uint32_t query_symbols =
        1 + static_cast<uint32_t>(rng.NextBelow(num_labels));
    Dfa q = RandomQuery(&rng, query_symbols);

    EXPECT_TRUE(EvalMonadicOrDie(g, q) == EvalMonadicReference(g, q))
        << "monadic mismatch, iteration " << iteration;

    // The retired bounded check's draw, kept so every later draw stays put.
    (void)rng.NextBelow(6);

    EXPECT_EQ(EvalAllPairsOrDie(g, q), EvalBinaryReference(g, q))
        << "binary mismatch, iteration " << iteration;

    const NodeId src = static_cast<NodeId>(rng.NextBelow(g.num_nodes()));
    const std::vector<NodeId> source = {src};
    auto from_src = EvalBinaryFromSources(g, q, source);
    ASSERT_TRUE(from_src.ok()) << from_src.status().ToString();
    PairVec expected;
    for (uint32_t dst : EvalBinaryFromReference(g, q, src).ToIndices()) {
      expected.emplace_back(src, dst);
    }
    EXPECT_EQ(*from_src, expected)
        << "binary-from mismatch, iteration " << iteration;
  }
}

TEST(EvalCsrOracleTest, BatchedBinaryCrossesLaneBoundaries) {
  // Graphs larger than one 64-source batch exercise the lane windowing.
  Rng rng(14);
  for (int iteration = 0; iteration < 8; ++iteration) {
    ErdosRenyiOptions options;
    options.num_nodes = 65 + static_cast<uint32_t>(rng.NextBelow(200));
    options.num_edges = 4 * static_cast<size_t>(options.num_nodes);
    options.num_labels = 3;
    options.seed = rng.Next();
    Graph g = GenerateErdosRenyi(options);
    Dfa q = RandomQuery(&rng, 3);
    EXPECT_EQ(EvalAllPairsOrDie(g, q), EvalBinaryReference(g, q))
        << "iteration " << iteration;
  }
}

TEST(EvalCsrOracleTest, MergePartitionMatchesFoldMerge) {
  Rng rng(15);
  for (int iteration = 0; iteration < 60; ++iteration) {
    std::vector<Word> words;
    const size_t count = 1 + rng.NextBelow(8);
    for (size_t i = 0; i < count; ++i) words.push_back(RandomWord(&rng, 2, 6));
    Dfa pta = BuildPta(words, 2);
    if (pta.num_states() < 2) continue;

    MergePartition partition(pta);
    const StateId r = static_cast<StateId>(rng.NextBelow(pta.num_states()));
    const StateId b = static_cast<StateId>(rng.NextBelow(pta.num_states()));
    FoldResult expected = FoldMerge(pta, r, b);

    // A rejected trial first: fold a different pair, roll it back, and the
    // partition must still reproduce the untouched base quotient.
    const StateId r2 = static_cast<StateId>(rng.NextBelow(pta.num_states()));
    const StateId b2 = static_cast<StateId>(rng.NextBelow(pta.num_states()));
    partition.Fold(r2, b2);
    partition.Rollback();

    partition.Fold(r, b);
    FoldResult actual = partition.Materialize();
    EXPECT_TRUE(actual.dfa == expected.dfa) << "iteration " << iteration;
    EXPECT_EQ(actual.old_to_new, expected.old_to_new)
        << "iteration " << iteration;
    partition.Rollback();

    // After rollback the partition is the identity again.
    FoldResult identity = partition.Materialize();
    EXPECT_TRUE(identity.dfa == pta.Trimmed()) << "iteration " << iteration;
  }
}

TEST(EvalCsrOracleTest, ZeroCopyRpniMatchesReferenceOnWordSamples) {
  Rng rng(16);
  for (int iteration = 0; iteration < 60; ++iteration) {
    WordSample sample;
    const size_t npos = 1 + rng.NextBelow(6);
    const size_t nneg = rng.NextBelow(6);
    for (size_t i = 0; i < npos; ++i) {
      sample.positive.push_back(RandomWord(&rng, 2, 6));
    }
    for (size_t i = 0; i < nneg; ++i) {
      Word w = RandomWord(&rng, 2, 6);
      bool clash = false;
      for (const Word& p : sample.positive) clash |= p == w;
      if (!clash) sample.negative.push_back(w);
    }
    Dfa pta = BuildPta(sample.positive, 2);

    RpniStats reference_stats;
    Dfa reference = RpniGeneralize(
        pta,
        [&sample](const Dfa& candidate) {
          for (const Word& w : sample.negative) {
            if (candidate.Accepts(w)) return false;
          }
          return true;
        },
        &reference_stats);

    RpniStats fast_stats;
    Dfa fast = RpniGeneralizeOnPartition(
        pta, WordRejectionOracle(&sample.negative), &fast_stats);

    EXPECT_TRUE(fast == reference) << "iteration " << iteration;
    EXPECT_EQ(fast_stats.merges_attempted, reference_stats.merges_attempted)
        << "iteration " << iteration;
    EXPECT_EQ(fast_stats.merges_accepted, reference_stats.merges_accepted)
        << "iteration " << iteration;
    EXPECT_EQ(fast_stats.promotions, reference_stats.promotions)
        << "iteration " << iteration;
  }
}

TEST(EvalCsrOracleTest, ZeroCopyRpniMatchesReferenceOnGraphSamples) {
  Rng rng(17);
  for (int iteration = 0; iteration < 40; ++iteration) {
    Graph g = RandomGraph(&rng, 30, 2);
    std::vector<NodeId> negative;
    const size_t nneg = rng.NextBelow(4);
    for (size_t i = 0; i < nneg; ++i) {
      negative.push_back(static_cast<NodeId>(rng.NextBelow(g.num_nodes())));
    }
    Nfa negative_nfa = GraphToNfa(g, negative);

    std::vector<Word> positives;
    const size_t npos = 1 + rng.NextBelow(5);
    for (size_t i = 0; i < npos; ++i) {
      positives.push_back(RandomWord(&rng, 2, 5));
    }
    Dfa pta = BuildPta(positives, 2);

    RpniStats reference_stats;
    Dfa reference = RpniGeneralize(
        pta,
        [&negative_nfa](const Dfa& candidate) {
          return IntersectionIsEmpty(candidate.ToNfa(), negative_nfa);
        },
        &reference_stats);

    RpniStats fast_stats;
    NfaDisjointnessOracle oracle(&negative_nfa);
    Dfa fast =
        RpniGeneralizeOnPartition(pta, std::ref(oracle), &fast_stats);

    EXPECT_TRUE(fast == reference) << "iteration " << iteration;
    EXPECT_EQ(fast_stats.merges_attempted, reference_stats.merges_attempted)
        << "iteration " << iteration;
    EXPECT_EQ(fast_stats.merges_accepted, reference_stats.merges_accepted)
        << "iteration " << iteration;
  }
}

}  // namespace
}  // namespace rpqlearn
