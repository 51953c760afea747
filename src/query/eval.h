#ifndef RPQLEARN_QUERY_EVAL_H_
#define RPQLEARN_QUERY_EVAL_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "automata/dfa.h"
#include "graph/graph.h"
#include "util/bit_vector.h"
#include "util/status.h"

namespace rpqlearn {

class ExecContext;

/// Worker count used by default-constructed EvalOptions: every hardware
/// thread (at least 1, capped at kMaxEvalThreads).
uint32_t DefaultEvalThreads();

/// Hard cap on EvalOptions.threads; ValidateEvalOptions clamps to it.
inline constexpr uint32_t kMaxEvalThreads = 256;

/// Retired: binary evaluation no longer condenses. The one value stays
/// only because perfbench/src/serving.cc names it.
enum class CondenseMode : uint8_t { kOff };

/// Round counters of one or more evaluation calls, filled when
/// EvalOptions.stats points here. Atomic so parallel batch workers can
/// accumulate without synchronization; totals are deterministic (each batch
/// contributes a scheduling-independent count), only the add order varies.
struct EvalStats {
  std::atomic<uint64_t> sparse_rounds{0};
  /// Always 0: every round is a sparse push. Kept, with
  /// monadic_dense_rounds, because the repository benchmark sums both into
  /// its `eval.dense_rounds` metric.
  std::atomic<uint64_t> dense_rounds{0};
  /// Rounds of the monadic backward sweeps (counted separately from the
  /// batched binary rounds above).
  std::atomic<uint64_t> monadic_sparse_rounds{0};
  std::atomic<uint64_t> monadic_dense_rounds{0};
  /// Retired, always 0: binary evaluation no longer condenses. Kept only
  /// because perfbench/src/serving.cc reads it.
  std::atomic<uint64_t> condensed_expansions{0};
  /// Product (node, state) pairs expanded from round frontiers, summed over
  /// every round of every engine — the progress measure an ExecContext trip
  /// status reports alongside rounds. A pair counts once per round it is
  /// expanded in, so the counter is monotone within one evaluation and
  /// scheduling-independent in total.
  std::atomic<uint64_t> pairs_settled{0};

  void Reset() {
    sparse_rounds.store(0, std::memory_order_relaxed);
    dense_rounds.store(0, std::memory_order_relaxed);
    monadic_sparse_rounds.store(0, std::memory_order_relaxed);
    monadic_dense_rounds.store(0, std::memory_order_relaxed);
    condensed_expansions.store(0, std::memory_order_relaxed);
    pairs_settled.store(0, std::memory_order_relaxed);
  }
};

/// Knobs of the evaluation engine: four settable fields. Both entry points
/// validate through ValidateEvalOptions and surface its Status — an invalid
/// configuration is an error, never a silent fallback.
struct EvalOptions {
  /// Worker contexts the evaluation may use. 1 runs the exact
  /// single-threaded path; 0 is InvalidArgument. The parallel results are
  /// bit-identical to threads = 1 for every value: work is partitioned into
  /// deterministic units (64-source batches, node ranges) whose outputs are
  /// combined in a scheduling-independent order.
  uint32_t threads = DefaultEvalThreads();
  /// Product spaces smaller than this many (node, state) pairs run
  /// sequentially even when threads > 1 — spreading tiny problems over a
  /// pool costs more than it saves. The default admits the paper-scale
  /// graphs (10k nodes × small query DFAs) while keeping the learner's
  /// inner-loop evaluations on toy graphs sequential. Tests set 0 to force
  /// the parallel path.
  size_t parallel_threshold_pairs = size_t{1} << 12;
  /// Retired: binary evaluation no longer condenses. Readable, never
  /// settable; kept only because perfbench/src/serving.cc reads it.
  static constexpr CondenseMode condense = CondenseMode::kOff;
  /// Optional round counters; when non-null, every evaluation through these
  /// options adds its counts — monadic sweeps to monadic_sparse_rounds,
  /// binary batches to sparse_rounds, both to pairs_settled. The pointee
  /// must outlive the evaluation call. Never read, only added to.
  EvalStats* stats = nullptr;
  /// Optional cooperative execution control: a wall-clock deadline, an
  /// externally-triggerable cancellation token, and a byte-accounted memory
  /// budget (src/util/exec_context.h). When non-null, every engine polls
  /// ExecContext::Checkpoint once per round — never per edge — and
  /// charges its product-space scratch (sweep bitmaps, per-worker
  /// BinaryBatchScratch) against the budget before allocating. A trip
  /// discards the partial result, folds the progress made into `stats`,
  /// and unwinds to the context's typed Status (kDeadlineExceeded /
  /// kCancelled / kResourceExhausted) annotated with rounds and pairs
  /// settled, so callers can degrade gracefully.
  /// Null — the default — keeps every code path behaviorally identical to
  /// the uncontrolled engine, so a call with default options never trips.
  /// The pointee must outlive the evaluation call and may be shared
  /// across calls (checkpoint ordinals then span all of them; a trip stops
  /// them all).
  ExecContext* exec = nullptr;
};

/// The single validation point for EvalOptions: rejects threads == 0 with
/// InvalidArgument and clamps threads to kMaxEvalThreads. Both evaluation
/// entry points call this first.
StatusOr<EvalOptions> ValidateEvalOptions(EvalOptions options);

/// Monadic evaluation q(G) = {ν | L(q) ∩ paths_G(ν) ≠ ∅} (Sec. 2):
/// backward reachability on the product G × DFA from every accepting pair,
/// O(|E|·|Q|) time and O(|V|·|Q|) space. The query DFA may be partial. With
/// threads > 1 the accepting seed pairs are partitioned by node range and
/// each worker runs an independent backward sweep; the union of the
/// per-range sweeps equals the single sweep exactly. A query over more
/// symbols than the graph is InvalidArgument. This is the semantics the
/// learner checks (lines 6–7 of Algorithm 1) and the server's QUERY serves.
StatusOr<BitVector> EvalMonadic(const Graph& graph, const Dfa& query,
                                const EvalOptions& options = {});

/// Binary semantics (Appendix B) from an explicit source set: the (src, dst)
/// pairs with a path from src to dst spelling a word of L(q), for every
/// entry of `sources`, grouped in input order (one group per occurrence —
/// duplicates are answered twice), each group's destinations ascending.
/// Sources are evaluated in independent 64-lane batches, so with
/// threads > 1 workers take whole batches and the output is identical to
/// threads = 1. The all-pairs result is this call over (0, 1, …, |V|-1).
/// Sources out of range are InvalidArgument.
StatusOr<std::vector<std::pair<NodeId, NodeId>>> EvalBinaryFromSources(
    const Graph& graph, const Dfa& query, std::span<const NodeId> sources,
    const EvalOptions& options = {});

}  // namespace rpqlearn

#endif  // RPQLEARN_QUERY_EVAL_H_
