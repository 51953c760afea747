#include "query/eval.h"

#include <algorithm>
#include <span>
#include <thread>
#include <utility>

#include "automata/dfa_csr.h"
#include "query/eval_binary_sweeper.h"
#include "query/eval_internal.h"
#include "query/eval_monadic_sweeper.h"
#include "util/exec_context.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace rpqlearn {

// The shared building blocks live in eval_internal.h (tables, round
// counters, scratch estimates) and the sweeper headers (the round
// machinery). This TU keeps the drivers: worker scheduling, batch
// slicing, result recovery, and the public entry points.
using eval_internal::BinaryScratchBytes;
using eval_internal::BinarySweeper;
using eval_internal::BinaryTables;
using eval_internal::BuildBinaryTables;
using eval_internal::kLaneBatch;
using eval_internal::MonadicSweeper;
using eval_internal::MonadicSweepScratchBytes;
using eval_internal::RoundCounters;

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
                    std::to_string(totals.sparse) +
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
  validated.stats->pairs_settled.fetch_add(totals.pairs,
                                           std::memory_order_relaxed);
  return totals;
}

/// One backward product sweep over the whole graph, seeded by the accepting
/// pairs whose *node* lies in [node_lo, node_hi); returns the selected-node
/// column. Backward reachability distributes over seed unions, so the union
/// of the per-range sweeps equals the full sweep — that is the parallel
/// decomposition.
BitVector MonadicSweepRange(const Graph& graph, const BinaryTables& tables,
                            NodeId node_lo, NodeId node_hi, ExecContext* exec,
                            RoundCounters* rounds) {
  const uint32_t nq = tables.nq;
  const uint32_t nv = graph.num_nodes();
  BitVector result(nv);
  // Charge the sweep's product-space scratch before allocating it; an
  // overflow latches kResourceExhausted and the empty partial is discarded
  // by the caller's tripped() exit.
  ScopedExecCharge charge(
      exec, MonadicSweepScratchBytes(static_cast<size_t>(nv) * nq));
  if (!charge.ok()) return result;
  MonadicSweeper sweeper(graph, tables);
  auto no_hook = [](NodeId, StateId) {};
  for (StateId q : tables.accepting_states) {
    for (NodeId v = node_lo; v < node_hi; ++v) sweeper.Visit(v, q, no_hook);
  }
  while (sweeper.frontier_pairs() > 0) {
    if (exec != nullptr && !exec->Checkpoint()) break;
    sweeper.RunRound(no_hook, rounds);
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

/// Runs per-node-range monadic sweeps on `workers` contexts and unions the
/// per-range selected sets.
StatusOr<BitVector> EvalMonadicImpl(const Graph& graph, const Dfa& query,
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
  const BinaryTables tables = BuildBinaryTables(graph, frozen);
  const size_t num_pairs = static_cast<size_t>(nv) * nq;

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
    BitVector result = MonadicSweepRange(graph, tables, 0, nv, exec, &rounds);
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
        partial[chunk] =
            MonadicSweepRange(graph, tables, lo, hi, exec, &per_sweep[chunk]);
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
               ExecContext* exec) {
    sweeper_.Prepare(graph, tables, exec);
  }

  /// Evaluates one batch of ≤ 64 sources (lane i = sources[i]) and appends
  /// its (src, dst) pairs to `out`, grouped by lane in input order with
  /// destinations ascending, adding its round counts to `rounds`. Pure
  /// function of (graph, tables, sources): scratch reuse and worker
  /// assignment never change the output.
  void RunBatch(std::span<const NodeId> sources, ExecContext* exec,
                std::vector<std::pair<NodeId, NodeId>>* out,
                RoundCounters* rounds) {
    RPQ_DCHECK(sources.size() <= kLaneBatch);
    const uint32_t lanes = static_cast<uint32_t>(sources.size());
    sweeper_.BeginBatch();
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
  BinarySweeper sweeper_;
  std::vector<NodeId> per_lane_[kLaneBatch];
};

/// Sums per-batch round counters into EvalOptions.stats, if present. The
/// totals are deterministic: each batch's counts are a pure function of
/// (graph, query, batch sources), independent of scheduling.
RoundCounters AccumulateStats(const EvalOptions& validated,
                              std::span<const RoundCounters> per_batch) {
  RoundCounters totals;
  for (const RoundCounters& rounds : per_batch) totals += rounds;
  if (validated.stats == nullptr) return totals;
  validated.stats->sparse_rounds.fetch_add(totals.sparse,
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
  const BinaryTables tables = BuildBinaryTables(graph, frozen);
  const size_t num_pairs = static_cast<size_t>(tables.nv) * nq;
  const size_t num_batches = (sources.size() + kLaneBatch - 1) / kLaneBatch;
  auto batch_sources = [&](size_t batch) {
    const size_t base = batch * kLaneBatch;
    return sources.subspan(base,
                           std::min<size_t>(kLaneBatch, sources.size() - base));
  };

  std::vector<RoundCounters> per_batch_rounds(num_batches);
  const uint32_t workers = ResolveWorkers(validated, num_pairs, num_batches);
  if (workers == 1) {
    ScopedExecCharge charge(exec, BinaryScratchBytes(num_pairs));
    if (charge.ok()) {
      BinaryBatchScratch scratch;
      scratch.Prepare(graph, tables, exec);
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
      exec, static_cast<size_t>(workers) * BinaryScratchBytes(num_pairs));
  std::vector<std::vector<std::pair<NodeId, NodeId>>> per_batch(num_batches);
  if (charge.ok()) {
    std::vector<BinaryBatchScratch> scratch(workers);
    EvalPool().ParallelFor(
        workers, num_batches,
        [&](uint32_t worker, size_t batch) {
          scratch[worker].Prepare(graph, tables, exec);
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
  return options;
}

StatusOr<BitVector> EvalMonadic(const Graph& graph, const Dfa& query,
                                const EvalOptions& options) {
  StatusOr<EvalOptions> validated = ValidateEvalOptions(options);
  if (!validated.ok()) return validated.status();
  return EvalMonadicImpl(graph, query, *validated);
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

}  // namespace rpqlearn
