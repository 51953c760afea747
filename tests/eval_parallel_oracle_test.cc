#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "automata/random_automata.h"
#include "graph/generators.h"
#include "query/eval.h"
#include "query/eval_reference.h"
#include "query/path_query.h"
#include "util/random.h"
#include "eval_test_util.h"

namespace rpqlearn {
namespace {

// Differential and property tests for the thread-pool evaluation layer:
// every thread count must produce results byte-identical to the
// single-threaded CSR path and to the retained seed references, and binary
// evaluation must be invariant under source-set permutation and call
// splitting (the properties that break when lane or range partitioning
// miscounts).

// Thread counts to sweep: 1 (sequential path), small counts, and 8, which
// exceeds both the batch count and the node-chunk count of the small
// configurations below (so empty / undersized partitions are exercised).
constexpr uint32_t kThreadSweep[] = {1, 2, 3, 8};

/// Options that force the parallel path at test sizes.
EvalOptions ParallelOptions(uint32_t threads) {
  EvalOptions options;
  options.threads = threads;
  options.parallel_threshold_pairs = 0;
  return options;
}

Graph RandomGraph(Rng* rng, uint32_t max_nodes, uint32_t num_labels) {
  ErdosRenyiOptions options;
  options.num_nodes = 2 + static_cast<uint32_t>(rng->NextBelow(max_nodes - 1));
  options.num_edges =
      options.num_nodes +
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

std::vector<NodeId> RandomSources(Rng* rng, uint32_t num_nodes,
                                  size_t count) {
  std::vector<NodeId> sources;
  for (size_t i = 0; i < count; ++i) {
    sources.push_back(static_cast<NodeId>(rng->NextBelow(num_nodes)));
  }
  return sources;
}

/// Oracle for EvalBinaryFromSources: one reference single-source BFS per
/// entry, groups in input order, destinations ascending.
std::vector<std::pair<NodeId, NodeId>> BinaryFromSourcesReference(
    const Graph& graph, const Dfa& query, const std::vector<NodeId>& sources) {
  std::vector<std::pair<NodeId, NodeId>> expected;
  for (NodeId src : sources) {
    BitVector targets = EvalBinaryFromReference(graph, query, src);
    for (uint32_t dst : targets.ToIndices()) {
      expected.emplace_back(src, dst);
    }
  }
  return expected;
}

TEST(EvalParallelOracleTest, MonadicMatchesSequentialAndReference) {
  Rng rng(21);
  for (int iteration = 0; iteration < 40; ++iteration) {
    const uint32_t num_labels = 2 + static_cast<uint32_t>(rng.NextBelow(3));
    Graph g = RandomGraph(&rng, 60, num_labels);
    Dfa q = RandomQuery(
        &rng, 1 + static_cast<uint32_t>(rng.NextBelow(num_labels)));
    const BitVector reference = EvalMonadicReference(g, q);
    const BitVector sequential = EvalMonadicOrDie(g, q);
    EXPECT_TRUE(sequential == reference) << "iteration " << iteration;
    for (uint32_t threads : kThreadSweep) {
      StatusOr<BitVector> parallel =
          EvalMonadic(g, q, ParallelOptions(threads));
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_TRUE(*parallel == sequential)
          << "iteration " << iteration << ", threads " << threads;
    }
  }
}

TEST(EvalParallelOracleTest, BinaryMatchesSequentialAndReference) {
  Rng rng(23);
  for (int iteration = 0; iteration < 30; ++iteration) {
    Graph g = RandomGraph(&rng, 60, 3);
    Dfa q = RandomQuery(&rng, 3);
    const auto reference = EvalBinaryReference(g, q);
    const auto sequential = EvalAllPairsOrDie(g, q);
    EXPECT_EQ(sequential, reference) << "iteration " << iteration;
    for (uint32_t threads : kThreadSweep) {
      auto parallel = EvalAllPairs(g, q, ParallelOptions(threads));
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(*parallel, sequential)
          << "iteration " << iteration << ", threads " << threads;
    }
  }
}

TEST(EvalParallelOracleTest, BinaryCrossesLaneBoundariesEveryThreadCount) {
  // Graphs larger than one 64-source batch: several batches per call, and
  // thread counts both below and above the batch count.
  Rng rng(24);
  for (int iteration = 0; iteration < 6; ++iteration) {
    ErdosRenyiOptions options;
    options.num_nodes = 65 + static_cast<uint32_t>(rng.NextBelow(200));
    options.num_edges = 4 * static_cast<size_t>(options.num_nodes);
    options.num_labels = 3;
    options.seed = rng.Next();
    Graph g = GenerateErdosRenyi(options);
    Dfa q = RandomQuery(&rng, 3);
    const auto sequential = EvalAllPairsOrDie(g, q);
    EXPECT_EQ(sequential, EvalBinaryReference(g, q))
        << "iteration " << iteration;
    for (uint32_t threads : kThreadSweep) {
      auto parallel = EvalAllPairs(g, q, ParallelOptions(threads));
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(*parallel, sequential)
          << "iteration " << iteration << ", threads " << threads;
    }
  }
}

TEST(EvalParallelOracleTest, BinaryFromSourcesMatchesPerSourceReference) {
  Rng rng(25);
  for (int iteration = 0; iteration < 30; ++iteration) {
    Graph g = RandomGraph(&rng, 80, 3);
    Dfa q = RandomQuery(&rng, 3);
    // Random size crossing the 64-lane boundary now and then, with
    // duplicate sources (each occurrence must be answered).
    std::vector<NodeId> sources =
        RandomSources(&rng, g.num_nodes(), 1 + rng.NextBelow(150));
    const auto expected = BinaryFromSourcesReference(g, q, sources);
    for (uint32_t threads : kThreadSweep) {
      auto actual =
          EvalBinaryFromSources(g, q, sources, ParallelOptions(threads));
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(*actual, expected)
          << "iteration " << iteration << ", threads " << threads;
    }
  }
}

TEST(EvalParallelPropertyTest, BinaryInvariantUnderSourcePermutation) {
  // Permuting the source set permutes the per-source groups and nothing
  // else — a lane-bookkeeping bug (masks leaking between lanes or batches)
  // shows up as a different pair multiset.
  Rng rng(26);
  for (int iteration = 0; iteration < 20; ++iteration) {
    Graph g = RandomGraph(&rng, 90, 3);
    Dfa q = RandomQuery(&rng, 3);
    std::vector<NodeId> sources =
        RandomSources(&rng, g.num_nodes(), 10 + rng.NextBelow(140));
    std::vector<NodeId> permuted = sources;
    rng.Shuffle(&permuted);
    for (uint32_t threads : kThreadSweep) {
      auto original =
          EvalBinaryFromSources(g, q, sources, ParallelOptions(threads));
      auto shuffled =
          EvalBinaryFromSources(g, q, permuted, ParallelOptions(threads));
      ASSERT_TRUE(original.ok() && shuffled.ok());
      std::vector<std::pair<NodeId, NodeId>> a = *original;
      std::vector<std::pair<NodeId, NodeId>> b = *shuffled;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "iteration " << iteration << ", threads " << threads;
    }
  }
}

TEST(EvalParallelPropertyTest, BinarySplitCallsUnionToWholeCall) {
  // Splitting one call into several smaller-batch calls whose concatenated
  // source lists match the original must concatenate to the original
  // result — catches per-call range/offset bookkeeping bugs.
  Rng rng(27);
  for (int iteration = 0; iteration < 20; ++iteration) {
    Graph g = RandomGraph(&rng, 90, 3);
    Dfa q = RandomQuery(&rng, 3);
    std::vector<NodeId> sources =
        RandomSources(&rng, g.num_nodes(), 20 + rng.NextBelow(130));
    for (uint32_t threads : kThreadSweep) {
      auto whole =
          EvalBinaryFromSources(g, q, sources, ParallelOptions(threads));
      ASSERT_TRUE(whole.ok());
      // Split into 2–5 contiguous chunks at random boundaries.
      const size_t num_chunks = 2 + rng.NextBelow(4);
      std::vector<std::pair<NodeId, NodeId>> stitched;
      size_t begin = 0;
      for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
        size_t end = chunk + 1 == num_chunks
                         ? sources.size()
                         : begin + rng.NextBelow(sources.size() - begin + 1);
        auto part = EvalBinaryFromSources(
            g, q,
            std::span<const NodeId>(sources.data() + begin, end - begin),
            ParallelOptions(threads));
        ASSERT_TRUE(part.ok());
        stitched.insert(stitched.end(), part->begin(), part->end());
        begin = end;
      }
      EXPECT_EQ(stitched, *whole)
          << "iteration " << iteration << ", threads " << threads;
    }
  }
}

TEST(EvalParallelPropertyTest, MonadicInvariantUnderThresholdAndThreads) {
  // The sequential-cutoff knob is a pure scheduling decision: any
  // (threads, threshold) combination yields the same bits.
  Rng rng(28);
  Graph g = RandomGraph(&rng, 120, 3);
  Dfa q = RandomQuery(&rng, 3);
  const BitVector expected = EvalMonadicOrDie(g, q);
  for (uint32_t threads : kThreadSweep) {
    for (size_t threshold : {size_t{0}, size_t{1} << 10, size_t{1} << 30}) {
      EvalOptions options;
      options.threads = threads;
      options.parallel_threshold_pairs = threshold;
      StatusOr<BitVector> result = EvalMonadic(g, q, options);
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(*result == expected)
          << "threads " << threads << ", threshold " << threshold;
    }
  }
}

Dfa StarQuery(const Graph& graph, const char* pattern) {
  Alphabet alphabet = graph.alphabet();
  auto q = PathQuery::Parse(pattern, &alphabet, graph.num_symbols());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q->dfa();
}

/// A cyclic fixture with large per-label SCCs: a ring of l0-cliques bridged
/// by l0 edges (one giant l0 SCC), an l1 ring over half the nodes, and l2
/// chords that a star-concat query must traverse per edge.
Graph RingOfCliques() {
  GraphBuilder builder;
  builder.InternLabels({"l0", "l1", "l2"});
  constexpr uint32_t kCliques = 6;
  constexpr uint32_t kCliqueSize = 5;
  builder.AddNodes(kCliques * kCliqueSize);
  for (uint32_t c = 0; c < kCliques; ++c) {
    const NodeId base = c * kCliqueSize;
    for (uint32_t i = 0; i < kCliqueSize; ++i) {
      for (uint32_t j = 0; j < kCliqueSize; ++j) {
        if (i != j) builder.AddEdge(base + i, "l0", base + j);
      }
    }
    const NodeId next_base = ((c + 1) % kCliques) * kCliqueSize;
    builder.AddEdge(base, "l0", next_base);
    builder.AddEdge(next_base + 1, "l0", base + 1);
  }
  const uint32_t nv = kCliques * kCliqueSize;
  for (NodeId v = 0; v < nv / 2; ++v) {
    builder.AddEdge(v, "l1", (v + 1) % (nv / 2));
  }
  for (NodeId v = 0; v < nv; v += 3) {
    builder.AddEdge(v, "l2", (v * 7 + 11) % nv);
  }
  return builder.Build();
}

TEST(EvalParallelOracleTest, StarQueriesOnCyclicGraphsMatchReference) {
  // Kleene-star queries over graphs whose labels form large SCCs: every
  // star state keeps re-entering the frontier until the cycles saturate.
  ErdosRenyiOptions random_options;
  random_options.num_nodes = 40;
  random_options.num_edges = 200;
  random_options.num_labels = 3;
  random_options.seed = 17;
  const Graph fixtures[] = {RingOfCliques(),
                            GenerateErdosRenyi(random_options)};
  const char* patterns[] = {"l0*", "(l0+l1)*", "(l0+l1)*.l2", "l2.l0*"};
  for (const Graph& graph : fixtures) {
    for (const char* pattern : patterns) {
      const Dfa query = StarQuery(graph, pattern);
      const auto expected_pairs = EvalBinaryReference(graph, query);
      const BitVector expected_monadic = EvalMonadicReference(graph, query);
      for (uint32_t threads : {1u, 8u}) {
        const std::string config =
            std::string(pattern) + " threads=" + std::to_string(threads);
        auto pairs = EvalAllPairs(graph, query, ParallelOptions(threads));
        ASSERT_TRUE(pairs.ok()) << config;
        EXPECT_EQ(*pairs, expected_pairs) << config;
        auto monadic = EvalMonadic(graph, query, ParallelOptions(threads));
        ASSERT_TRUE(monadic.ok()) << config;
        EXPECT_TRUE(*monadic == expected_monadic) << config;
      }
    }
  }
}

TEST(EvalParallelOracleTest, ZeroThreadsIsInvalidArgumentEverywhere) {
  Rng rng(29);
  Graph g = RandomGraph(&rng, 20, 2);
  Dfa q = RandomQuery(&rng, 2);
  EvalOptions zero;
  zero.threads = 0;

  StatusOr<BitVector> monadic = EvalMonadic(g, q, zero);
  ASSERT_FALSE(monadic.ok());
  EXPECT_EQ(monadic.status().code(), StatusCode::kInvalidArgument);

  const std::vector<NodeId> sources{0};
  auto from_sources = EvalBinaryFromSources(g, q, sources, zero);
  ASSERT_FALSE(from_sources.ok());
  EXPECT_EQ(from_sources.status().code(), StatusCode::kInvalidArgument);

  // The shared validator reports the same error and clamps large counts.
  StatusOr<EvalOptions> invalid = ValidateEvalOptions(zero);
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  EvalOptions huge;
  huge.threads = kMaxEvalThreads + 1000;
  StatusOr<EvalOptions> clamped = ValidateEvalOptions(huge);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped->threads, kMaxEvalThreads);
}

TEST(EvalParallelOracleTest, OutOfRangeSourceIsInvalidArgument) {
  Rng rng(30);
  Graph g = RandomGraph(&rng, 20, 2);
  Dfa q = RandomQuery(&rng, 2);
  const std::vector<NodeId> sources{0, g.num_nodes()};
  auto result = EvalBinaryFromSources(g, q, sources);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvalParallelOracleTest, DefaultOptionsMatchSequentialOnLargerGraph) {
  // Default-constructed EvalOptions (hardware threads, default threshold)
  // must agree with the sequential engine — this is the configuration every
  // legacy call site now runs.
  Rng rng(31);
  ErdosRenyiOptions options;
  options.num_nodes = 300;
  options.num_edges = 1500;
  options.num_labels = 3;
  options.seed = 99;
  Graph g = GenerateErdosRenyi(options);
  Dfa q = RandomQuery(&rng, 3);
  EvalOptions one_thread;
  one_thread.threads = 1;
  StatusOr<BitVector> sequential = EvalMonadic(g, q, one_thread);
  ASSERT_TRUE(sequential.ok());
  StatusOr<BitVector> defaulted = EvalMonadic(g, q, EvalOptions{});
  ASSERT_TRUE(defaulted.ok());
  EXPECT_TRUE(*defaulted == *sequential);
  auto binary_sequential = EvalAllPairs(g, q, one_thread);
  auto binary_defaulted = EvalAllPairs(g, q, EvalOptions{});
  ASSERT_TRUE(binary_sequential.ok() && binary_defaulted.ok());
  EXPECT_EQ(*binary_defaulted, *binary_sequential);
}

}  // namespace
}  // namespace rpqlearn
