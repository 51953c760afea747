#include "query/eval.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <thread>
#include <utility>

#include "automata/dfa_csr.h"
#include "query/eval_binary_sweeper.h"
#include "query/eval_internal.h"
#include "query/eval_monadic_sweeper.h"
#include "query/eval_views.h"
#include "util/exec_context.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace rpqlearn {

// The shared building blocks live in eval_internal.h (tables, condensation
// plans, direction policy, round counters, the dense-pull kernel) and the
// sweeper headers (the round machinery, instantiated over the adjacency
// views of eval_views.h). This TU keeps the drivers: worker scheduling,
// batch slicing, result recovery, and the public entry points.
using eval_internal::ApplyCondensePlanToTables;
using eval_internal::BinaryScratchBytes;
using eval_internal::BinarySweeper;
using eval_internal::BinaryTables;
using eval_internal::BuildBinaryTables;
using eval_internal::BuildCondensePlan;
using eval_internal::CondensePlan;
using eval_internal::DirectionPolicy;
using eval_internal::GlobalGraphView;
using eval_internal::kLaneBatch;
using eval_internal::MonadicSweeper;
using eval_internal::MonadicSweepScratchBytes;
using eval_internal::ResolveDirectionPolicy;
using eval_internal::RoundCounters;
using eval_internal::SharedSymbolCount;

namespace {

/// Pool shared by every parallel evaluation call in the process. Sized once
/// to the hardware; EvalOptions.threads caps how many of its workers one
/// call may occupy (ThreadPool::ParallelFor never uses more executors than
/// requested). Calls with threads == 1 never touch it.
ThreadPool& EvalPool() {
  static ThreadPool pool(DefaultEvalThreads());
  return pool;
}

/// Effective worker count for `num_items` independent work units over a
/// product space of `num_pairs` (node, state) cells. Small problems and
/// single-unit calls run sequentially: the result is identical either way,
/// so this is purely a scheduling decision.
uint32_t ResolveWorkers(const EvalOptions& validated, size_t num_pairs,
                        size_t num_items) {
  if (validated.threads <= 1 || num_items <= 1) return 1;
  if (num_pairs < validated.parallel_threshold_pairs) return 1;
  return static_cast<uint32_t>(
      std::min<size_t>(validated.threads, num_items));
}

/// The typed Status an engine surfaces after an ExecContext trip: the
/// context's latched code and message, annotated with the progress the
/// evaluation banked before unwinding (the same counts folded into
/// EvalOptions.stats, so callers can also read them programmatically).
Status TripStatusWithProgress(const ExecContext& exec,
                              const RoundCounters& totals) {
  const Status trip = exec.TripStatus();
  return Status(trip.code(),
                trip.message() + "; progress: rounds=" +
                    std::to_string(totals.sparse + totals.dense) +
                    ", pairs_settled=" + std::to_string(totals.pairs));
}

// --------------------------------------------------------------- monadic

/// Folds per-sweep counters into EvalOptions.stats (when present) and
/// returns the summed totals — the progress a trip status reports.
RoundCounters AccumulateMonadicRounds(
    const EvalOptions& validated, std::span<const RoundCounters> per_sweep) {
  RoundCounters totals;
  for (const RoundCounters& rounds : per_sweep) totals += rounds;
  if (validated.stats == nullptr) return totals;
  validated.stats->monadic_sparse_rounds.fetch_add(totals.sparse,
                                                   std::memory_order_relaxed);
  validated.stats->monadic_dense_rounds.fetch_add(totals.dense,
                                                  std::memory_order_relaxed);
  validated.stats->condensed_expansions.fetch_add(totals.condensed_expansions,
                                                  std::memory_order_relaxed);
  validated.stats->components_collapsed.fetch_add(totals.components_collapsed,
                                                  std::memory_order_relaxed);
  validated.stats->pairs_settled.fetch_add(totals.pairs,
                                           std::memory_order_relaxed);
  return totals;
}

/// One backward product sweep over the whole graph, seeded by the accepting
/// pairs whose *node* lies in [node_lo, node_hi); returns the selected-node
/// column. Backward reachability (and, level-by-level, bounded backward
/// reachability) distributes over seed unions, so the union of the
/// per-range sweeps equals the full sweep — that is the parallel
/// decomposition.
BitVector MonadicSweepRange(const Graph& graph, const BinaryTables& tables,
                            const CondensePlan& plan,
                            const DirectionPolicy& policy, bool bounded,
                            uint32_t max_length, NodeId node_lo,
                            NodeId node_hi, ExecContext* exec,
                            RoundCounters* rounds) {
  const uint32_t nq = tables.nq;
  const uint32_t nv = graph.num_nodes();
  BitVector result(nv);
  // Charge the sweep's product-space scratch before allocating it; an
  // overflow latches kResourceExhausted and the empty partial is discarded
  // by the caller's tripped() exit.
  ScopedExecCharge charge(
      exec, MonadicSweepScratchBytes(static_cast<size_t>(nv) * nq, plan));
  if (!charge.ok()) return result;
  MonadicSweeper<GlobalGraphView> sweeper(GlobalGraphView{&graph}, tables,
                                          plan, policy, exec);
  auto no_hook = [](NodeId, StateId) {};
  for (StateId q : tables.accepting_states) {
    for (NodeId v = node_lo; v < node_hi; ++v) sweeper.Visit(v, q, no_hook);
  }
  sweeper.RunCondenseClosure(no_hook, rounds);
  uint32_t steps = 0;
  while (sweeper.frontier_pairs() > 0 && (!bounded || steps < max_length)) {
    if (exec != nullptr && !exec->Checkpoint()) break;
    sweeper.RunRound(no_hook, rounds);
    sweeper.RunCondenseClosure(no_hook, rounds);
    ++steps;
  }
  if (exec != nullptr && exec->tripped()) return result;

  const StateId q0 = tables.q0;
  for (NodeId v = 0; v < nv; ++v) {
    if (sweeper.reached().Test(static_cast<size_t>(v) * nq + q0)) {
      result.Set(v);
    }
  }
  return result;
}

/// Runs per-node-range monadic sweeps (bounded iff max_length != none) on
/// `workers` contexts and unions the per-range selected sets.
StatusOr<BitVector> EvalMonadicImpl(const Graph& graph, const Dfa& query,
                                    bool bounded, uint32_t max_length,
                                    const EvalOptions& validated) {
  if (query.num_symbols() > graph.num_symbols()) {
    return Status::InvalidArgument(
        "monadic query alphabet has " + std::to_string(query.num_symbols()) +
        " symbols but the graph has " + std::to_string(graph.num_symbols()));
  }
  const uint32_t nq = query.num_states();
  const uint32_t nv = graph.num_nodes();
  ExecContext* exec = validated.exec;
  const FrozenDfa frozen(query);
  BinaryTables tables = BuildBinaryTables(graph, frozen);
  CondensePlan plan;
  BuildCondensePlan(graph, tables, validated, bounded,
                    /*auto_needs_cache=*/true, &plan);
  ApplyCondensePlanToTables(plan, &tables);
  const size_t num_pairs = static_cast<size_t>(nv) * nq;
  const DirectionPolicy policy = ResolveDirectionPolicy(validated, num_pairs);

  uint32_t workers = ResolveWorkers(validated, num_pairs, nv);
  if (workers > 1) {
    // Unlike binary batches, node-range sweeps can re-traverse each other's
    // backward cones, so chunks beyond the executors actually available
    // (pool + caller) would multiply duplicated work without adding
    // concurrency. The cap is scheduling-only: the union is the same.
    workers = std::min(workers, EvalPool().num_threads() + 1);
  }
  if (workers == 1) {
    RoundCounters rounds;
    BitVector result =
        MonadicSweepRange(graph, tables, plan, policy, bounded, max_length, 0,
                          nv, exec, &rounds);
    const RoundCounters totals =
        AccumulateMonadicRounds(validated, {&rounds, 1});
    if (exec != nullptr && exec->tripped()) {
      return TripStatusWithProgress(*exec, totals);
    }
    return result;
  }

  // Contiguous balanced node ranges; each sweep owns its slot, the union is
  // commutative, so the result is independent of scheduling.
  std::vector<BitVector> partial(workers);
  std::vector<RoundCounters> per_sweep(workers);
  EvalPool().ParallelFor(
      workers, workers,
      [&](uint32_t /*worker*/, size_t chunk) {
        const NodeId lo =
            static_cast<NodeId>(static_cast<size_t>(nv) * chunk / workers);
        const NodeId hi = static_cast<NodeId>(static_cast<size_t>(nv) *
                                              (chunk + 1) / workers);
        partial[chunk] = MonadicSweepRange(graph, tables, plan, policy,
                                           bounded, max_length, lo, hi, exec,
                                           &per_sweep[chunk]);
      },
      exec);
  const RoundCounters totals = AccumulateMonadicRounds(validated, per_sweep);
  if (exec != nullptr && exec->tripped()) {
    return TripStatusWithProgress(*exec, totals);
  }
  BitVector result = std::move(partial[0]);
  for (uint32_t chunk = 1; chunk < workers; ++chunk) {
    result.OrWith(partial[chunk]);
  }
  return result;
}

// ---------------------------------------------------------------- binary

/// One worker's batched multi-source BFS driver: a BinarySweeper over the
/// whole graph (see eval_binary_sweeper.h for the round machinery) plus the
/// per-lane recovery buffers. Owned by exactly one worker and reused across
/// its batches.
class BinaryBatchScratch {
 public:
  /// Binds the sweeper to the graph and sizes its scratch; idempotent, so
  /// workers call it lazily on their first batch.
  void Prepare(const Graph& graph, const BinaryTables& tables,
               const CondensePlan& plan, const DirectionPolicy& policy,
               ExecContext* exec) {
    sweeper_.Prepare(GlobalGraphView{&graph}, tables, plan, policy, exec);
  }

  /// Evaluates one batch of ≤ 64 sources (lane i = sources[i]) and appends
  /// its (src, dst) pairs to `out`, grouped by lane in input order with
  /// destinations ascending, adding its round counts to `rounds`. Pure
  /// function of (graph, tables, plan, sources): scratch reuse, worker
  /// assignment, the direction policy and the condensation plan never
  /// change the output.
  void RunBatch(std::span<const NodeId> sources, ExecContext* exec,
                std::vector<std::pair<NodeId, NodeId>>* out,
                RoundCounters* rounds) {
    RPQ_DCHECK(sources.size() <= kLaneBatch);
    const uint32_t lanes = static_cast<uint32_t>(sources.size());
    sweeper_.BeginBatch(lanes == kLaneBatch ? ~uint64_t{0}
                                            : (uint64_t{1} << lanes) - 1);
    const StateId q0 = sweeper_.tables().q0;
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      sweeper_.Deliver(sources[lane], q0, uint64_t{1} << lane);
    }
    sweeper_.RunRounds(rounds);
    if (exec != nullptr && exec->tripped()) return;  // torn batch: discard

    // Recover the result lanes: a visited (u, q_accepting) pair is exactly
    // a selected (source, u) edge of the batch.
    for (uint32_t lane = 0; lane < lanes; ++lane) per_lane_[lane].clear();
    sweeper_.CollectLanes(lanes, per_lane_);
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      const NodeId src = sources[lane];
      for (NodeId dst : per_lane_[lane]) out->emplace_back(src, dst);
    }
  }

 private:
  BinarySweeper<GlobalGraphView> sweeper_;
  std::vector<NodeId> per_lane_[kLaneBatch];
};

/// Sums per-batch round counters into EvalOptions.stats, if present. The
/// totals are deterministic: each batch's counts are a pure function of
/// (graph, query, batch sources, policy), independent of scheduling.
/// `per_batch` must hold one row per *batch*, so dense_batches counts
/// batches in which at least one dense round ran.
RoundCounters AccumulateStats(const EvalOptions& validated,
                              std::span<const RoundCounters> per_batch) {
  RoundCounters totals;
  uint64_t dense_batches = 0;
  for (const RoundCounters& rounds : per_batch) {
    totals += rounds;
    if (rounds.dense > 0) ++dense_batches;
  }
  if (validated.stats == nullptr) return totals;
  validated.stats->sparse_rounds.fetch_add(totals.sparse,
                                           std::memory_order_relaxed);
  validated.stats->dense_rounds.fetch_add(totals.dense,
                                          std::memory_order_relaxed);
  validated.stats->dense_batches.fetch_add(dense_batches,
                                           std::memory_order_relaxed);
  validated.stats->condensed_expansions.fetch_add(totals.condensed_expansions,
                                                  std::memory_order_relaxed);
  validated.stats->components_collapsed.fetch_add(totals.components_collapsed,
                                                  std::memory_order_relaxed);
  validated.stats->pairs_settled.fetch_add(totals.pairs,
                                           std::memory_order_relaxed);
  return totals;
}

/// Batched binary evaluation over an explicit source list. Batches are
/// independent given private scratch, so with workers > 1 each batch writes
/// its pairs into its own slot and the slots are concatenated in batch
/// order — byte-identical to the sequential loop for every thread count.
StatusOr<std::vector<std::pair<NodeId, NodeId>>> EvalBinaryImpl(
    const Graph& graph, const Dfa& query, std::span<const NodeId> sources,
    const EvalOptions& validated) {
  std::vector<std::pair<NodeId, NodeId>> result;
  if (sources.empty()) return result;
  ExecContext* exec = validated.exec;
  const uint32_t nq = query.num_states();
  RPQ_DCHECK(nq > 0);
  const FrozenDfa frozen(query);
  BinaryTables tables = BuildBinaryTables(graph, frozen);
  CondensePlan plan;
  BuildCondensePlan(graph, tables, validated, /*bounded=*/false,
                    /*auto_needs_cache=*/false, &plan);
  ApplyCondensePlanToTables(plan, &tables);
  const size_t num_pairs = static_cast<size_t>(tables.nv) * nq;
  const DirectionPolicy policy = ResolveDirectionPolicy(validated, num_pairs);
  const size_t num_batches = (sources.size() + kLaneBatch - 1) / kLaneBatch;
  auto batch_sources = [&](size_t batch) {
    const size_t base = batch * kLaneBatch;
    return sources.subspan(base,
                           std::min<size_t>(kLaneBatch, sources.size() - base));
  };

  std::vector<RoundCounters> per_batch_rounds(num_batches);
  const uint32_t workers = ResolveWorkers(validated, num_pairs, num_batches);
  if (workers == 1) {
    ScopedExecCharge charge(exec, BinaryScratchBytes(num_pairs, plan));
    if (charge.ok()) {
      BinaryBatchScratch scratch;
      scratch.Prepare(graph, tables, plan, policy, exec);
      for (size_t batch = 0; batch < num_batches; ++batch) {
        if (exec != nullptr && exec->tripped()) break;
        scratch.RunBatch(batch_sources(batch), exec, &result,
                         &per_batch_rounds[batch]);
      }
    }
    const RoundCounters totals = AccumulateStats(validated, per_batch_rounds);
    if (exec != nullptr && exec->tripped()) {
      return TripStatusWithProgress(*exec, totals);
    }
    return result;
  }

  // Each worker owns one product-space scratch; charge them all before the
  // fan-out so a budget trip happens up front rather than mid-flight.
  ScopedExecCharge charge(
      exec, static_cast<size_t>(workers) * BinaryScratchBytes(num_pairs, plan));
  std::vector<std::vector<std::pair<NodeId, NodeId>>> per_batch(num_batches);
  if (charge.ok()) {
    std::vector<BinaryBatchScratch> scratch(workers);
    EvalPool().ParallelFor(
        workers, num_batches,
        [&](uint32_t worker, size_t batch) {
          scratch[worker].Prepare(graph, tables, plan, policy, exec);
          scratch[worker].RunBatch(batch_sources(batch), exec,
                                   &per_batch[batch],
                                   &per_batch_rounds[batch]);
        },
        exec);
  }
  const RoundCounters totals = AccumulateStats(validated, per_batch_rounds);
  if (exec != nullptr && exec->tripped()) {
    return TripStatusWithProgress(*exec, totals);
  }
  size_t total = 0;
  for (const auto& pairs : per_batch) total += pairs.size();
  result.reserve(total);
  for (const auto& pairs : per_batch) {
    result.insert(result.end(), pairs.begin(), pairs.end());
  }
  return result;
}

/// The all-sources list 0, 1, …, nv-1 for EvalBinary.
std::vector<NodeId> AllSources(uint32_t nv) {
  std::vector<NodeId> sources(nv);
  std::iota(sources.begin(), sources.end(), NodeId{0});
  return sources;
}

}  // namespace

uint32_t DefaultEvalThreads() {
  static const uint32_t cached = [] {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;  // the standard allows "unknown"
    return std::min<uint32_t>(static_cast<uint32_t>(hw), kMaxEvalThreads);
  }();
  return cached;
}

StatusOr<EvalOptions> ValidateEvalOptions(EvalOptions options) {
  if (options.threads == 0) {
    return Status::InvalidArgument(
        "EvalOptions.threads must be at least 1 (0 requests no execution "
        "context); use threads = 1 for the sequential path or "
        "DefaultEvalThreads() for one worker per hardware thread");
  }
  options.threads = std::min(options.threads, kMaxEvalThreads);
  // `!(x >= 0 && x <= 1)` rather than `x < 0 || x > 1` so NaN is rejected.
  if (!(options.dense_threshold >= 0.0 && options.dense_threshold <= 1.0)) {
    return Status::InvalidArgument(
        "EvalOptions.dense_threshold must lie in [0, 1] (got " +
        std::to_string(options.dense_threshold) +
        "): it is the frontier fraction of the (node, state) pair space at "
        "which batched rounds switch to the dense bottom-up sweep");
  }
  switch (options.force_mode) {
    case EvalMode::kAuto:
    case EvalMode::kSparse:
    case EvalMode::kDense:
      break;
    default:
      return Status::InvalidArgument(
          "EvalOptions.force_mode must be EvalMode::kAuto, kSparse or "
          "kDense (got " +
          std::to_string(static_cast<int>(options.force_mode)) + ")");
  }
  switch (options.condense) {
    case CondenseMode::kAuto:
    case CondenseMode::kOn:
    case CondenseMode::kOff:
      break;
    default:
      return Status::InvalidArgument(
          "EvalOptions.condense must be CondenseMode::kAuto, kOn or kOff "
          "(got " +
          std::to_string(static_cast<int>(options.condense)) + ")");
  }
  return options;
}

BitVector EvalMonadic(const Graph& graph, const Dfa& query) {
  // Default options carry no ExecContext, so the impl cannot trip.
  StatusOr<BitVector> result =
      EvalMonadicImpl(graph, query, /*bounded=*/false, 0, EvalOptions{});
  RPQ_CHECK(result.ok()) << result.status().message();
  return *std::move(result);
}

StatusOr<BitVector> EvalMonadic(const Graph& graph, const Dfa& query,
                                const EvalOptions& options) {
  StatusOr<EvalOptions> validated = ValidateEvalOptions(options);
  if (!validated.ok()) return validated.status();
  return EvalMonadicImpl(graph, query, /*bounded=*/false, 0, *validated);
}

BitVector EvalMonadicBounded(const Graph& graph, const Dfa& query,
                             uint32_t max_length) {
  StatusOr<BitVector> result =
      EvalMonadicImpl(graph, query, /*bounded=*/true, max_length,
                      EvalOptions{});
  RPQ_CHECK(result.ok()) << result.status().message();
  return *std::move(result);
}

StatusOr<BitVector> EvalMonadicBounded(const Graph& graph, const Dfa& query,
                                       uint32_t max_length,
                                       const EvalOptions& options) {
  StatusOr<EvalOptions> validated = ValidateEvalOptions(options);
  if (!validated.ok()) return validated.status();
  return EvalMonadicImpl(graph, query, /*bounded=*/true, max_length,
                         *validated);
}

bool SelectsNode(const Graph& graph, const Dfa& query, NodeId node) {
  const uint32_t nq = query.num_states();
  const FrozenDfa frozen(query);
  const Symbol num_shared = SharedSymbolCount(graph, frozen);
  BitVector visited(static_cast<size_t>(graph.num_nodes()) * nq);
  std::vector<std::pair<NodeId, StateId>> worklist;
  const StateId q0 = frozen.initial_state();
  if (frozen.IsAccepting(q0)) return true;
  visited.Set(static_cast<size_t>(node) * nq + q0);
  worklist.emplace_back(node, q0);
  while (!worklist.empty()) {
    auto [v, q] = worklist.back();
    worklist.pop_back();
    for (Symbol a = 0; a < num_shared; ++a) {
      StateId t = frozen.Next(q, a);
      if (t == kNoState) continue;
      const bool accepting = frozen.IsAccepting(t);
      for (NodeId u : graph.OutNeighbors(v, a)) {
        if (accepting) return true;
        size_t idx = static_cast<size_t>(u) * nq + t;
        if (!visited.Test(idx)) {
          visited.Set(idx);
          worklist.emplace_back(u, t);
        }
      }
    }
  }
  return false;
}

BitVector EvalBinaryFrom(const Graph& graph, const Dfa& query, NodeId src) {
  const uint32_t nq = query.num_states();
  const uint32_t nv = graph.num_nodes();
  const FrozenDfa frozen(query);
  const Symbol num_shared = SharedSymbolCount(graph, frozen);
  BitVector visited(static_cast<size_t>(nv) * nq);
  std::vector<std::pair<NodeId, StateId>> worklist;
  const StateId q0 = frozen.initial_state();
  visited.Set(static_cast<size_t>(src) * nq + q0);
  worklist.emplace_back(src, q0);
  BitVector result(nv);
  if (frozen.IsAccepting(q0)) result.Set(src);
  while (!worklist.empty()) {
    auto [v, q] = worklist.back();
    worklist.pop_back();
    for (Symbol a = 0; a < num_shared; ++a) {
      StateId t = frozen.Next(q, a);
      if (t == kNoState) continue;
      const bool accepting = frozen.IsAccepting(t);
      for (NodeId u : graph.OutNeighbors(v, a)) {
        size_t idx = static_cast<size_t>(u) * nq + t;
        if (!visited.Test(idx)) {
          visited.Set(idx);
          if (accepting) result.Set(u);
          worklist.emplace_back(u, t);
        }
      }
    }
  }
  return result;
}

bool SelectsPair(const Graph& graph, const Dfa& query, NodeId src,
                 NodeId dst) {
  return EvalBinaryFrom(graph, query, src).Test(dst);
}

std::vector<std::pair<NodeId, NodeId>> EvalBinary(const Graph& graph,
                                                  const Dfa& query) {
  const std::vector<NodeId> sources = AllSources(graph.num_nodes());
  StatusOr<std::vector<std::pair<NodeId, NodeId>>> result =
      EvalBinaryImpl(graph, query, sources, EvalOptions{});
  RPQ_CHECK(result.ok()) << result.status().message();
  return *std::move(result);
}

StatusOr<std::vector<std::pair<NodeId, NodeId>>> EvalBinary(
    const Graph& graph, const Dfa& query, const EvalOptions& options) {
  StatusOr<EvalOptions> validated = ValidateEvalOptions(options);
  if (!validated.ok()) return validated.status();
  const std::vector<NodeId> sources = AllSources(graph.num_nodes());
  return EvalBinaryImpl(graph, query, sources, *validated);
}

StatusOr<std::vector<std::pair<NodeId, NodeId>>> EvalBinaryFromSources(
    const Graph& graph, const Dfa& query, std::span<const NodeId> sources,
    const EvalOptions& options) {
  StatusOr<EvalOptions> validated = ValidateEvalOptions(options);
  if (!validated.ok()) return validated.status();
  const uint32_t nv = graph.num_nodes();
  for (NodeId src : sources) {
    if (src >= nv) {
      return Status::InvalidArgument("evaluation source node " +
                                     std::to_string(src) +
                                     " out of range (graph has " +
                                     std::to_string(nv) + " nodes)");
    }
  }
  return EvalBinaryImpl(graph, query, sources, *validated);
}

bool SelectsTuple(const Graph& graph, const std::vector<Dfa>& queries,
                  const std::vector<NodeId>& tuple) {
  RPQ_CHECK_EQ(tuple.size(), queries.size() + 1);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!SelectsPair(graph, queries[i], tuple[i], tuple[i + 1])) return false;
  }
  return true;
}

}  // namespace rpqlearn
