#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "graph/generators.h"
#include "graph/graph.h"
#include "query/eval.h"

namespace rpqlearn {
namespace {

// Pins the EvalStats counters across the engine cube: (engine × threads
// {1, 8} × condense {auto, off}) on one fixed workload.
// The counters are documented as deterministic and scheduling-independent,
// so each cube point must (a) reproduce run-to-run, (b) be invariant under
// the thread count, and (c) match the hard-coded golden row recorded when
// the unified sweepers landed. A golden drift means the round machinery
// changed behavior — counting differently is an API break for the tuning
// loops that read these counters, even when results stay bit-identical.

/// One relaxed snapshot of every EvalStats counter, in declaration order.
struct StatsSnapshot {
  uint64_t sparse_rounds;
  uint64_t dense_rounds;
  uint64_t dense_batches;
  uint64_t monadic_sparse_rounds;
  uint64_t monadic_dense_rounds;
  uint64_t condensed_expansions;
  uint64_t components_collapsed;
  uint64_t pairs_settled;

  bool operator==(const StatsSnapshot&) const = default;
};

StatsSnapshot Take(const EvalStats& stats) {
  return StatsSnapshot{
      stats.sparse_rounds.load(),        stats.dense_rounds.load(),
      stats.dense_batches.load(),        stats.monadic_sparse_rounds.load(),
      stats.monadic_dense_rounds.load(), stats.condensed_expansions.load(),
      stats.components_collapsed.load(), stats.pairs_settled.load()};
}

std::string Format(const StatsSnapshot& s) {
  return "{sparse=" + std::to_string(s.sparse_rounds) +
         " dense=" + std::to_string(s.dense_rounds) +
         " dense_batches=" + std::to_string(s.dense_batches) +
         " monadic_sparse=" + std::to_string(s.monadic_sparse_rounds) +
         " monadic_dense=" + std::to_string(s.monadic_dense_rounds) +
         " cond_expansions=" + std::to_string(s.condensed_expansions) +
         " collapsed=" + std::to_string(s.components_collapsed) +
         " pairs=" + std::to_string(s.pairs_settled) + "}";
}

enum class Engine { kBinary, kMonadic };

/// The fixed workload: big enough that the all-sources binary evaluation
/// spans 3 batches, each label carries enough edges to clear the kAuto
/// condensation floor, and the low dense_threshold makes kAuto rounds
/// cross into dense mode.
Graph GoldenGraph() {
  ErdosRenyiOptions options;
  options.num_nodes = 150;
  options.num_edges = 450;
  options.num_labels = 3;
  options.seed = 20260809;
  return GenerateErdosRenyi(options);
}

/// L = a b* c: state 1's b-self-loop is the star state the condensation
/// planner engages under kAuto.
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
                       uint32_t threads, CondenseMode condense) {
  EvalStats stats;
  EvalOptions options;
  options.threads = threads;
  options.parallel_threshold_pairs = 0;
  options.dense_threshold = 0.02;
  options.condense = condense;
  options.stats = &stats;
  if (engine == Engine::kBinary) {
    auto result = EvalBinary(g, q, options);
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
  CondenseMode condense;
  StatsSnapshot expected;
};

// Recorded at threads = 1 when the four round engines were unified behind
// the shared sweepers; regenerate (and justify) only on an intentional
// round-machinery change. Monadic kAuto rows equal their kOff rows because
// kAuto condensation for single sweeps engages only through
// EvalOptions.condensed_cache, which this fixture does not supply.
constexpr GoldenRow kGolden[] = {
    {"binary condense=auto", Engine::kBinary, CondenseMode::kAuto,
     {0, 6, 3, 0, 0, 228, 4, 403}},
    {"binary condense=off", Engine::kBinary, CondenseMode::kOff,
     {12, 27, 3, 0, 0, 0, 0, 732}},
    {"monadic condense=auto", Engine::kMonadic, CondenseMode::kAuto,
     {0, 0, 0, 1, 4, 0, 0, 365}},
    {"monadic condense=off", Engine::kMonadic, CondenseMode::kOff,
     {0, 0, 0, 1, 4, 0, 0, 365}},
};

TEST(EvalStatsGoldenTest, CountersMatchGoldenAndAreThreadInvariant) {
  const Graph g = GoldenGraph();
  const Dfa q = GoldenQuery();
  for (const GoldenRow& row : kGolden) {
    const StatsSnapshot at_one = RunPoint(g, q, row.engine, 1, row.condense);
    EXPECT_EQ(at_one, row.expected)
        << row.name << "\n  got      " << Format(at_one) << "\n  expected "
        << Format(row.expected);

    // Run-to-run determinism at the same point.
    const StatsSnapshot again = RunPoint(g, q, row.engine, 1, row.condense);
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
      const StatsSnapshot at_eight =
          RunPoint(g, q, row.engine, 8, row.condense);
      EXPECT_EQ(at_eight, at_one)
          << row.name << " (threads=8)\n  got      " << Format(at_eight)
          << "\n  expected " << Format(at_one);
    }
  }
}

TEST(EvalStatsGoldenTest, ForcedModesShiftRoundKindsOnly) {
  // force_mode repartitions rounds between the sparse and dense counters
  // but keeps dense_batches' meaning: every batch with work is a dense
  // batch under kDense and none is under kSparse.
  const Graph g = GoldenGraph();
  const Dfa q = GoldenQuery();
  EvalStats stats;
  EvalOptions options;
  options.threads = 1;
  options.parallel_threshold_pairs = 0;
  options.condense = CondenseMode::kOff;
  options.stats = &stats;

  options.force_mode = EvalMode::kSparse;
  ASSERT_TRUE(EvalBinary(g, q, options).ok());
  EXPECT_EQ(stats.dense_rounds.load(), 0u);
  EXPECT_EQ(stats.dense_batches.load(), 0u);
  EXPECT_GT(stats.sparse_rounds.load(), 0u);

  stats.Reset();
  options.force_mode = EvalMode::kDense;
  ASSERT_TRUE(EvalBinary(g, q, options).ok());
  EXPECT_EQ(stats.sparse_rounds.load(), 0u);
  EXPECT_EQ(stats.dense_batches.load(), 3u);
  EXPECT_GT(stats.dense_rounds.load(), 0u);
}

}  // namespace
}  // namespace rpqlearn
