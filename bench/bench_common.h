#ifndef RPQLEARN_BENCH_BENCH_COMMON_H_
#define RPQLEARN_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "query/eval.h"
#include "util/exec_context.h"

namespace rpqlearn::bench {

/// A malformed knob value aborts the driver immediately with the offending
/// value and the accepted forms on stderr. Silent fallback to a default is
/// exactly wrong for benchmark configuration: a typoed RPQ_EVAL_THREADS=fuor
/// would otherwise publish default-thread numbers labeled as pinned ones.
[[noreturn]] inline void DieBadKnob(const char* knob, const char* value,
                                    const char* expected) {
  std::fprintf(stderr, "%s: malformed value \"%s\" (expected %s)\n", knob,
               value, expected);
  std::exit(2);
}

/// Unwraps a StatusOr from an experiment or evaluation call, exiting
/// nonzero with the Status (which for ExecContext trips carries the
/// progress counters reached) instead of asserting. Keeps driver main
/// bodies readable while still failing loudly.
template <typename T>
inline T UnwrapOrExit(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 value.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(value);
}

/// Parses a whole-string integer ≥ 1, dying loudly on anything else.
inline uint32_t ParsePositiveKnob(const char* knob, const char* value) {
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 1) {
    DieBadKnob(knob, value, "an integer >= 1");
  }
  return static_cast<uint32_t>(parsed);
}

/// The one environment-knob reader every integer knob goes through: returns
/// `default_value` when `knob` is unset, otherwise the parsed positive
/// integer — dying loudly on anything malformed (see DieBadKnob). The
/// default itself may be 0 ("feature off"), but a value the user actually
/// set must be ≥ 1: every knob this reads (thread counts, ports, bounds,
/// deadlines) means "off" by absence, not by zero.
inline uint32_t ParseEnvOrDie(const char* knob, uint32_t default_value) {
  const char* env = std::getenv(knob);
  if (env == nullptr) return default_value;
  return ParsePositiveKnob(knob, env);
}

/// Benchmark scale, selected with RPQ_BENCH_SCALE:
///  * "small" (default): reduced graph sizes / trials so the whole bench
///    suite completes in a few minutes;
///  * "paper": the paper's sizes (AliBaba-like 3k plus synthetic
///    10k/20k/30k graphs) — slower, intended for the final EXPERIMENTS.md
///    numbers.
inline bool PaperScale() {
  const char* env = std::getenv("RPQ_BENCH_SCALE");
  if (env == nullptr) return false;
  const std::string value(env);
  if (value == "paper") return true;
  if (value == "small") return false;
  DieBadKnob("RPQ_BENCH_SCALE", env, "\"small\" or \"paper\"");
}

/// Synthetic graph sizes for the current scale.
inline std::vector<uint32_t> SyntheticSizes() {
  if (PaperScale()) return {10000, 20000, 30000};
  return {1500};
}

/// Trials per configuration for the current scale.
inline int Trials() { return PaperScale() ? 3 : 2; }

/// Evaluation worker threads, selected with RPQ_EVAL_THREADS (default: all
/// hardware threads).
inline uint32_t EvalThreads() {
  return ParseEnvOrDie("RPQ_EVAL_THREADS", DefaultEvalThreads());
}

/// Direction-optimizing crossover, selected with RPQ_EVAL_DENSE_THRESHOLD
/// (fraction of the product-pair space a round's frontier must reach to run
/// dense; must lie in [0, 1]).
inline double EvalDenseThreshold() {
  const char* env = std::getenv("RPQ_EVAL_DENSE_THRESHOLD");
  if (env == nullptr) return EvalOptions{}.dense_threshold;
  char* end = nullptr;
  const double parsed = std::strtod(env, &end);
  if (end == env || *end != '\0' || !(parsed >= 0.0 && parsed <= 1.0)) {
    DieBadKnob("RPQ_EVAL_DENSE_THRESHOLD", env, "a number in [0, 1]");
  }
  return parsed;
}

/// Traversal-direction pin, selected with RPQ_EVAL_MODE (`auto` — the
/// per-round heuristic, default — or `sparse` / `dense` to pin one round
/// kind).
inline EvalMode EvalForceMode() {
  const char* env = std::getenv("RPQ_EVAL_MODE");
  if (env == nullptr) return EvalMode::kAuto;
  const std::string value(env);
  if (value == "auto") return EvalMode::kAuto;
  if (value == "sparse") return EvalMode::kSparse;
  if (value == "dense") return EvalMode::kDense;
  DieBadKnob("RPQ_EVAL_MODE", env, "\"auto\", \"sparse\" or \"dense\"");
}

/// SCC-condensation policy of the kleene-star planner step, selected with
/// RPQ_EVAL_CONDENSE (`auto` — the summary-gated default — or `on` / `off`
/// to pin it). Results are bit-identical for every mode (see "SCC
/// condensation" in docs/ARCHITECTURE.md).
inline CondenseMode EvalCondense() {
  const char* env = std::getenv("RPQ_EVAL_CONDENSE");
  if (env == nullptr) return CondenseMode::kAuto;
  const std::string value(env);
  if (value == "auto") return CondenseMode::kAuto;
  if (value == "on") return CondenseMode::kOn;
  if (value == "off") return CondenseMode::kOff;
  DieBadKnob("RPQ_EVAL_CONDENSE", env, "\"auto\", \"on\" or \"off\"");
}

/// Wall-clock deadline in milliseconds for the whole driver run, selected
/// with RPQ_EVAL_DEADLINE_MS (unset = no deadline). The clock starts at the
/// first EvalConfig()/EnvExecContext() call; once it elapses every
/// evaluation returns DeadlineExceeded and the driver exits nonzero with
/// the progress counters reached.
inline uint32_t EvalDeadlineMs() {
  return ParseEnvOrDie("RPQ_EVAL_DEADLINE_MS", 0);
}

/// Evaluation scratch budget in MiB, selected with RPQ_EVAL_MEM_BUDGET_MB
/// (unset = unlimited). Covers the byte-accounted product-space scratch of
/// the round engines — bitmaps, lane masks, condensation heaps —
/// not the graph or index structures themselves.
inline uint32_t EvalMemBudgetMb() {
  return ParseEnvOrDie("RPQ_EVAL_MEM_BUDGET_MB", 0);
}

/// Query-server knobs for bench_server (all through ParseEnvOrDie):
///  * RPQ_SERVER_PORT          listen port (default 0: an ephemeral port)
///  * RPQ_SERVER_MAX_IN_FLIGHT admission bound (default 64)
///  * RPQ_SERVER_EXECUTORS     executor pool size (default 2)
///  * RPQ_SERVER_CLIENTS       concurrent bench clients (default 8)
///  * RPQ_SERVER_REQUESTS      queries per bench client (default 200)
///  * RPQ_SERVER_DEADLINE_MS   per-request deadline (default 0: none)
inline uint32_t ServerPort() { return ParseEnvOrDie("RPQ_SERVER_PORT", 0); }
inline uint32_t ServerMaxInFlight() {
  return ParseEnvOrDie("RPQ_SERVER_MAX_IN_FLIGHT", 64);
}
inline uint32_t ServerExecutors() {
  return ParseEnvOrDie("RPQ_SERVER_EXECUTORS", 2);
}
inline uint32_t ServerClients() {
  return ParseEnvOrDie("RPQ_SERVER_CLIENTS", 8);
}
inline uint32_t ServerRequestsPerClient() {
  return ParseEnvOrDie("RPQ_SERVER_REQUESTS", 200);
}
inline uint32_t ServerDeadlineMs() {
  return ParseEnvOrDie("RPQ_SERVER_DEADLINE_MS", 0);
}

/// Process-wide ExecContext configured from RPQ_EVAL_DEADLINE_MS and
/// RPQ_EVAL_MEM_BUDGET_MB, or nullptr when neither is set (the common case:
/// a null context keeps every engine on its uninstrumented fast path). The
/// deadline is armed once, at the first call, so it bounds the whole driver
/// run rather than each individual evaluation.
inline ExecContext* EnvExecContext() {
  static ExecContext* context = []() -> ExecContext* {
    const uint32_t deadline_ms = EvalDeadlineMs();
    const uint32_t budget_mb = EvalMemBudgetMb();
    if (deadline_ms == 0 && budget_mb == 0) return nullptr;
    static ExecContext exec;
    if (deadline_ms != 0) {
      exec.set_deadline_after(std::chrono::milliseconds(deadline_ms));
    }
    if (budget_mb != 0) {
      exec.set_memory_budget_bytes(static_cast<size_t>(budget_mb) << 20);
    }
    return &exec;
  }();
  return context;
}

/// EvalOptions for the current environment: RPQ_EVAL_THREADS workers, the
/// RPQ_EVAL_DENSE_THRESHOLD / RPQ_EVAL_MODE direction knobs, the
/// RPQ_EVAL_CONDENSE kleene-star condensation policy, and the
/// RPQ_EVAL_DEADLINE_MS / RPQ_EVAL_MEM_BUDGET_MB execution-control limits.
inline EvalOptions EvalConfig() {
  EvalOptions options;
  options.threads = EvalThreads();
  options.dense_threshold = EvalDenseThreshold();
  options.force_mode = EvalForceMode();
  options.condense = EvalCondense();
  options.exec = EnvExecContext();
  return options;
}

}  // namespace rpqlearn::bench

#endif  // RPQLEARN_BENCH_BENCH_COMMON_H_
