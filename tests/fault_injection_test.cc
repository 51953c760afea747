#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "automata/dfa.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "query/eval.h"
#include "regex/parser.h"
#include "regex/to_nfa.h"
#include "util/bit_vector.h"
#include "util/exec_context.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/status.h"
#include "eval_test_util.h"

namespace rpqlearn {
namespace {

// Trip-at-every-checkpoint sweep: run each engine configuration once
// uninterrupted to learn its total checkpoint count T, then re-run it with a
// fault injected at every ordinal N in [1, T] — cycling through all three
// fault kinds — and assert that every trip unwinds to the right typed
// Status, reports progress, and leaves the world clean enough that a fresh
// retry reproduces the reference bit-identically.

constexpr uint32_t kNumLabels = 3;

Graph TestGraph() {
  ScaleFreeOptions options;
  options.num_nodes = 120;
  options.num_edges = 360;
  options.num_labels = kNumLabels;
  options.seed = 7;
  return GenerateScaleFree(options);
}

/// A star-heavy query: its star states keep re-entering the frontier.
Dfa TestQuery() {
  Alphabet alphabet;
  alphabet.InternGenerated("l", kNumLabels);
  StatusOr<RegexPtr> regex = ParseRegex("(l0+l1)*.l2", &alphabet);
  RPQ_CHECK(regex.ok()) << regex.status().ToString();
  return RegexToCanonicalDfa(*regex, kNumLabels);
}

struct EngineConfig {
  const char* name;
  bool binary;
  uint32_t threads;
};

/// semantics × threads — the acceptance matrix, covering both round
/// engines (binary/monadic).
const EngineConfig kConfigs[] = {
    {"monadic/t1", false, 1},
    {"monadic/t8", false, 8},
    {"binary/t1", true, 1},
    {"binary/t8", true, 8},
};

EvalOptions MakeOptions(const EngineConfig& config, ExecContext* exec,
                        EvalStats* stats) {
  EvalOptions options;
  options.threads = config.threads;
  options.parallel_threshold_pairs = 0;  // force the parallel path
  options.exec = exec;
  options.stats = stats;
  return options;
}

/// One evaluation under `config`; returns its result serialized to a
/// comparable form (set bits for monadic, pair list rendered for binary) or
/// the failing status.
StatusOr<std::string> RunOnce(const Graph& graph, const Dfa& query,
                              const EngineConfig& config, ExecContext* exec,
                              EvalStats* stats) {
  const EvalOptions options = MakeOptions(config, exec, stats);
  std::string rendered;
  if (config.binary) {
    StatusOr<std::vector<std::pair<NodeId, NodeId>>> pairs =
        EvalAllPairs(graph, query, options);
    if (!pairs.ok()) return pairs.status();
    for (const auto& [src, dst] : *pairs) {
      rendered += std::to_string(src) + ">" + std::to_string(dst) + ";";
    }
  } else {
    StatusOr<BitVector> selected = EvalMonadic(graph, query, options);
    if (!selected.ok()) return selected.status();
    for (uint32_t node : selected->ToIndices()) {
      rendered += std::to_string(node) + ";";
    }
  }
  return rendered;
}

FaultKind KindForOrdinal(uint64_t ordinal) {
  switch (ordinal % 3) {
    case 0: return FaultKind::kCancel;
    case 1: return FaultKind::kDeadline;
    default: return FaultKind::kBudget;
  }
}

TEST(FaultInjectionTest, TripAtEveryCheckpointSweep) {
  const Graph graph = TestGraph();
  const Dfa query = TestQuery();

  for (const EngineConfig& config : kConfigs) {
    SCOPED_TRACE(config.name);

    // Uninterrupted run: reference result + total checkpoint count T.
    ExecContext baseline;
    EvalStats baseline_stats;
    StatusOr<std::string> reference =
        RunOnce(graph, query, config, &baseline, &baseline_stats);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const uint64_t total_checkpoints = baseline.checkpoints();
    ASSERT_GT(total_checkpoints, 0u)
        << "engine ran without polling a single checkpoint";

    uint64_t prev_pairs_settled = 0;
    for (uint64_t n = 1; n <= total_checkpoints; ++n) {
      SCOPED_TRACE("trigger_checkpoint=" + std::to_string(n));
      const FaultKind kind = KindForOrdinal(n);
      FaultInjector injector(FaultPlan{kind, n});
      ExecContext exec;
      exec.set_fault_injector(&injector);
      EvalStats stats;
      StatusOr<std::string> tripped =
          RunOnce(graph, query, config, &exec, &stats);

      // A trigger within [1, T] must fire and unwind to the matching
      // typed status, annotated with how far the engine got.
      ASSERT_FALSE(tripped.ok());
      EXPECT_TRUE(injector.fired());
      EXPECT_EQ(tripped.status().code(), FaultInjector::CodeFor(kind));
      EXPECT_NE(tripped.status().message().find("progress:"),
                std::string::npos)
          << tripped.status().ToString();

      // Deterministic single-threaded runs share the same execution
      // prefix, so progress at trip N never shrinks as N grows.
      if (config.threads == 1) {
        const uint64_t pairs = stats.pairs_settled.load();
        EXPECT_GE(pairs, prev_pairs_settled);
        prev_pairs_settled = pairs;
      }

      // A fresh context retries cleanly and reproduces the reference
      // bit-identically — nothing the trip tore down leaks across calls.
      ExecContext retry_exec;
      EvalStats retry_stats;
      StatusOr<std::string> retry =
          RunOnce(graph, query, config, &retry_exec, &retry_stats);
      ASSERT_TRUE(retry.ok()) << retry.status().ToString();
      EXPECT_EQ(*retry, *reference);
      EXPECT_EQ(retry_exec.checkpoints(), total_checkpoints)
          << "checkpoint count is not deterministic";
    }
  }
}

TEST(FaultInjectionTest, CheckpointCountIsDeterministicPerConfig) {
  const Graph graph = TestGraph();
  const Dfa query = TestQuery();
  for (const EngineConfig& config : kConfigs) {
    SCOPED_TRACE(config.name);
    uint64_t first = 0;
    for (int run = 0; run < 3; ++run) {
      ExecContext exec;
      EvalStats stats;
      StatusOr<std::string> result =
          RunOnce(graph, query, config, &exec, &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (run == 0) {
        first = exec.checkpoints();
      } else {
        EXPECT_EQ(exec.checkpoints(), first);
      }
    }
  }
}

TEST(FaultInjectionTest, RealCancellationTripsEveryEngine) {
  const Graph graph = TestGraph();
  const Dfa query = TestQuery();
  for (const EngineConfig& config : kConfigs) {
    SCOPED_TRACE(config.name);
    ExecContext exec;
    exec.Cancel();  // cancelled before the first checkpoint
    EvalStats stats;
    StatusOr<std::string> result =
        RunOnce(graph, query, config, &exec, &stats);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
}

TEST(FaultInjectionTest, ElapsedDeadlineTripsEveryEngine) {
  const Graph graph = TestGraph();
  const Dfa query = TestQuery();
  for (const EngineConfig& config : kConfigs) {
    SCOPED_TRACE(config.name);
    ExecContext exec;
    exec.set_deadline_after(std::chrono::nanoseconds(0));
    EvalStats stats;
    StatusOr<std::string> result =
        RunOnce(graph, query, config, &exec, &stats);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(FaultInjectionTest, TinyMemoryBudgetTripsEveryEngine) {
  const Graph graph = TestGraph();
  const Dfa query = TestQuery();
  for (const EngineConfig& config : kConfigs) {
    SCOPED_TRACE(config.name);
    ExecContext exec;
    exec.set_memory_budget_bytes(1);  // no product-space scratch fits
    EvalStats stats;
    StatusOr<std::string> result =
        RunOnce(graph, query, config, &exec, &stats);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    // The failed run released everything it charged.
    EXPECT_EQ(exec.charged_bytes(), 0u);
  }
}

TEST(FaultInjectionTest, GenerousBudgetDoesNotTrip) {
  const Graph graph = TestGraph();
  const Dfa query = TestQuery();
  for (const EngineConfig& config : kConfigs) {
    SCOPED_TRACE(config.name);
    ExecContext exec;
    exec.set_memory_budget_bytes(size_t{1} << 30);
    EvalStats stats;
    StatusOr<std::string> result =
        RunOnce(graph, query, config, &exec, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(exec.charged_bytes(), 0u);
  }
}

}  // namespace
}  // namespace rpqlearn
