#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "graph/generators.h"
#include "graph/graph.h"
#include "query/eval.h"
#include "eval_test_util.h"

namespace rpqlearn {
namespace {

// Pins the EvalStats counters across the engine cube: (engine × threads
// {1, 8}) on one fixed workload.
// The counters are documented as deterministic and scheduling-independent,
// so each cube point must (a) reproduce run-to-run, (b) be invariant under
// the thread count, and (c) match the hard-coded golden row below. A golden
// drift means the round machinery
// changed behavior — counting differently is an API break for the tuning
// loops that read these counters, even when results stay bit-identical.

/// One relaxed snapshot of every EvalStats counter, in declaration order.
struct StatsSnapshot {
  uint64_t sparse_rounds;
  uint64_t dense_rounds;
  uint64_t monadic_sparse_rounds;
  uint64_t monadic_dense_rounds;
  uint64_t condensed_expansions;
  uint64_t pairs_settled;

  bool operator==(const StatsSnapshot&) const = default;
};

StatsSnapshot Take(const EvalStats& stats) {
  return StatsSnapshot{
      stats.sparse_rounds.load(),         stats.dense_rounds.load(),
      stats.monadic_sparse_rounds.load(), stats.monadic_dense_rounds.load(),
      stats.condensed_expansions.load(),  stats.pairs_settled.load()};
}

std::string Format(const StatsSnapshot& s) {
  return "{sparse=" + std::to_string(s.sparse_rounds) +
         " dense=" + std::to_string(s.dense_rounds) +
         " monadic_sparse=" + std::to_string(s.monadic_sparse_rounds) +
         " monadic_dense=" + std::to_string(s.monadic_dense_rounds) +
         " cond_expansions=" + std::to_string(s.condensed_expansions) +
         " pairs=" + std::to_string(s.pairs_settled) + "}";
}

enum class Engine { kBinary, kMonadic };

/// The fixed workload: big enough that the all-sources binary evaluation
/// spans 3 batches.
Graph GoldenGraph() {
  ErdosRenyiOptions options;
  options.num_nodes = 150;
  options.num_edges = 450;
  options.num_labels = 3;
  options.seed = 20260809;
  return GenerateErdosRenyi(options);
}

/// L = a b* c: state 1's b-self-loop keeps re-entering the frontier.
Dfa GoldenQuery() {
  Dfa q(3);
  q.AddState(/*accepting=*/false);  // 0: expect a
  q.AddState(/*accepting=*/false);  // 1: b* loop (star state)
  q.AddState(/*accepting=*/true);   // 2: accept after c
  q.SetTransition(0, 0, 1);
  q.SetTransition(1, 1, 1);
  q.SetTransition(1, 2, 2);
  return q;
}

StatsSnapshot RunPoint(const Graph& g, const Dfa& q, Engine engine,
                       uint32_t threads) {
  EvalStats stats;
  EvalOptions options;
  options.threads = threads;
  options.parallel_threshold_pairs = 0;
  options.stats = &stats;
  if (engine == Engine::kBinary) {
    auto result = EvalAllPairs(g, q, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  } else {
    StatusOr<BitVector> result = EvalMonadic(g, q, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  return Take(stats);
}

struct GoldenRow {
  const char* name;
  Engine engine;
  StatsSnapshot expected;
};

// Recorded at threads = 1; regenerate (and justify) only on an intentional
// round-machinery change. The dense and condensed fields are retired and
// read 0.
constexpr GoldenRow kGolden[] = {
    {"binary", Engine::kBinary, {40, 0, 0, 0, 0, 768}},
    {"monadic", Engine::kMonadic, {0, 0, 5, 0, 0, 365}},
};

TEST(EvalStatsGoldenTest, CountersMatchGoldenAndAreThreadInvariant) {
  const Graph g = GoldenGraph();
  const Dfa q = GoldenQuery();
  for (const GoldenRow& row : kGolden) {
    const StatsSnapshot at_one = RunPoint(g, q, row.engine, 1);
    EXPECT_EQ(at_one, row.expected)
        << row.name << "\n  got      " << Format(at_one) << "\n  expected "
        << Format(row.expected);

    // Run-to-run determinism at the same point.
    const StatsSnapshot again = RunPoint(g, q, row.engine, 1);
    EXPECT_EQ(again, at_one) << row.name << " (rerun)\n  got      "
                             << Format(again) << "\n  expected "
                             << Format(at_one);

    // Thread count is pure scheduling for the binary engine (the 64-source
    // batches are fixed). The monadic engine instead decomposes into one
    // node-range sweep per worker, so its round counters legitimately
    // depend on the worker count — results stay bit-identical, which the
    // oracle suite pins — and that cube edge gets determinism coverage
    // above but no invariance assertion.
    if (row.engine == Engine::kBinary) {
      const StatsSnapshot at_eight = RunPoint(g, q, row.engine, 8);
      EXPECT_EQ(at_eight, at_one)
          << row.name << " (threads=8)\n  got      " << Format(at_eight)
          << "\n  expected " << Format(at_one);
    }
  }
}

}  // namespace
}  // namespace rpqlearn
