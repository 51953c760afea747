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

class CondensedGraph;
class ExecContext;

/// Worker count used by default-constructed EvalOptions: every hardware
/// thread (at least 1, capped at kMaxEvalThreads).
uint32_t DefaultEvalThreads();

/// Hard cap on EvalOptions.threads; ValidateEvalOptions clamps to it.
inline constexpr uint32_t kMaxEvalThreads = 256;

/// Traversal-direction policy of the batched product BFS (EvalBinary and
/// EvalBinaryFromSources). The engine is direction-optimizing: each round it
/// compares the frontier against EvalOptions.dense_threshold and runs either
/// a sparse top-down push (expand frontier pairs over OutNeighbors) or a
/// dense bottom-up pull (sweep every product pair over InNeighbors with a
/// bitmap frontier). Both rounds compute the same monotone lane-mask fixed
/// point, so the mode sequence never changes the result — kSparse / kDense
/// pin one round kind for testing and benchmarking.
enum class EvalMode : uint8_t {
  kAuto = 0,   ///< per-round heuristic on frontier density (production)
  kSparse = 1, ///< always top-down push (pre-direction-optimizing behavior)
  kDense = 2,  ///< always bottom-up pull
};

/// SCC-condensation policy of the kleene-star planner step. When a DFA
/// state carries a single-label self-loop (an `a*`-shaped state), the
/// per-label condensation (src/graph/condense.h) lets the rounds expand
/// such frontiers component-at-a-time — saturate the frontier node's SCC,
/// hop the condensation DAG, scatter to members — instead of rediscovering
/// intra-SCC reachability edge by edge, round after round. Pure scheduling:
/// every cell the condensed expansion marks lies in the same monotone fixed
/// point the per-edge rounds compute, so results are bit-identical for
/// every mode (see docs/ARCHITECTURE.md, "SCC condensation"). Bounded
/// monadic sweeps never condense — collapsing an SCC would merge BFS
/// levels, and the length bound is exact per level.
enum class CondenseMode : uint8_t {
  kAuto = 0,  ///< condense when the query has star states and the per-label
              ///< summary shows a nontrivial component (production).
              ///< Monadic sweeps additionally require a matching
              ///< EvalOptions.condensed_cache: one backward sweep is a
              ///< single linear pass, so a per-call Tarjan build would cost
              ///< more than it saves, while the batched binary engines
              ///< amortize a per-call build across their source batches.
  kOn = 1,    ///< condense every star state regardless of the summary
  kOff = 2,   ///< never condense (pre-condensation behavior)
};

/// Round counters of one or more evaluation calls, filled when
/// EvalOptions.stats points here. Atomic so parallel batch workers can
/// accumulate without synchronization; totals are deterministic (each batch
/// contributes a scheduling-independent count), only the add order varies.
struct EvalStats {
  std::atomic<uint64_t> sparse_rounds{0};
  std::atomic<uint64_t> dense_rounds{0};
  /// Batches in which at least one dense round ran.
  std::atomic<uint64_t> dense_batches{0};
  /// Rounds of the direction-optimized monadic backward sweeps (counted
  /// separately from the batched binary rounds above).
  std::atomic<uint64_t> monadic_sparse_rounds{0};
  std::atomic<uint64_t> monadic_dense_rounds{0};
  /// Component expansions performed by the SCC-condensation planner step:
  /// each count is one (star state, component) whose fresh lanes were
  /// scattered to the component's members and DAG successors in one hop.
  /// 0 whenever condensation never engaged.
  std::atomic<uint64_t> condensed_expansions{0};
  /// The subset of condensed_expansions whose component held ≥ 2 members —
  /// expansions that actually collapsed intra-SCC BFS rounds.
  std::atomic<uint64_t> components_collapsed{0};
  /// Product (node, state) pairs expanded from round frontiers, summed over
  /// every round of every engine — the progress measure an ExecContext trip
  /// status reports alongside rounds. A pair counts once per round it is
  /// expanded in, so the counter is monotone within one evaluation and
  /// scheduling-independent in total.
  std::atomic<uint64_t> pairs_settled{0};

  void Reset() {
    sparse_rounds.store(0, std::memory_order_relaxed);
    dense_rounds.store(0, std::memory_order_relaxed);
    dense_batches.store(0, std::memory_order_relaxed);
    monadic_sparse_rounds.store(0, std::memory_order_relaxed);
    monadic_dense_rounds.store(0, std::memory_order_relaxed);
    condensed_expansions.store(0, std::memory_order_relaxed);
    components_collapsed.store(0, std::memory_order_relaxed);
    pairs_settled.store(0, std::memory_order_relaxed);
  }
};

/// Knobs of the evaluation engine. Every options-taking entry point
/// validates through ValidateEvalOptions and surfaces its Status — an
/// invalid configuration is an error, never a silent fallback.
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
  /// Direction-optimizing crossover for the batched product BFS: a round
  /// whose frontier holds at least `dense_threshold` × (nodes × states)
  /// product pairs runs bottom-up (dense bitmap pull); below it, top-down
  /// (sparse push). Evaluated every round, so the engine switches back as
  /// soon as the frontier shrinks under the cutoff. Must lie in [0, 1]:
  /// 0 makes every round dense, 1 effectively none (only a frontier covering
  /// the whole pair space qualifies). Pure scheduling — results are
  /// bit-identical for every value. Ignored when force_mode != kAuto.
  /// The default is where the bench_hotpath crossover sits: dense rounds pay
  /// off once a sparse round would touch a quarter of the pair space (the
  /// saturated phase of kleene-star queries on dense graphs), and low-density
  /// workloads never reach it, keeping them purely sparse.
  double dense_threshold = 0.25;
  /// Pins the round kind of the batched product BFS regardless of frontier
  /// density; kAuto applies the dense_threshold heuristic. For tests and
  /// benchmarks — results are identical in every mode.
  EvalMode force_mode = EvalMode::kAuto;
  /// SCC-condensation policy of the kleene-star planner step (see
  /// CondenseMode). Pure scheduling — results are bit-identical for every
  /// value; kOff restores the exact pre-condensation code path.
  CondenseMode condense = CondenseMode::kAuto;
  /// Optional pre-built condensation of the evaluated graph. When non-null
  /// and matching (same node count, edge count and Graph::version(),
  /// covering the star labels the planner needs), the evaluation consults
  /// it instead of condensing per call; Engine and DynamicGraph fill it
  /// from their version-keyed snapshots. Mismatching caches are ignored (a
  /// fresh per-call condensation is built); the pointee must outlive the
  /// evaluation call. A cache built from a *different* graph that happens
  /// to share all three values is a caller contract violation the engine
  /// cannot detect.
  const CondensedGraph* condensed_cache = nullptr;
  /// Optional round counters; when non-null, every batched binary evaluation
  /// through these options adds its sparse/dense round counts. The pointee
  /// must outlive the evaluation call. Never read, only added to.
  EvalStats* stats = nullptr;
  /// Optional cooperative execution control: a wall-clock deadline, an
  /// externally-triggerable cancellation token, and a byte-accounted memory
  /// budget (src/util/exec_context.h). When non-null, every engine polls
  /// ExecContext::Checkpoint at round / closure-wave granularity — never
  /// per edge — and charges its product-space scratch (sweep bitmaps,
  /// per-worker BinaryBatchScratch, condensation pending heaps) against the
  /// budget before allocating. A trip discards the partial result, folds
  /// the progress made into `stats`, and unwinds to the context's typed
  /// Status (kDeadlineExceeded / kCancelled / kResourceExhausted) annotated
  /// with rounds and pairs settled, so callers can degrade gracefully.
  /// Null — the default — keeps every code path behaviorally identical to
  /// the uncontrolled engine; the plain (options-free) entry points never
  /// trip. The pointee must outlive the evaluation call and may be shared
  /// across calls (checkpoint ordinals then span all of them; a trip stops
  /// them all).
  ExecContext* exec = nullptr;
};

/// The single validation point for EvalOptions: rejects threads == 0,
/// dense_threshold outside [0, 1] (or NaN), and unknown force_mode /
/// condense values with InvalidArgument, and clamps threads to
/// kMaxEvalThreads. All options-taking evaluation entry points call this
/// first.
StatusOr<EvalOptions> ValidateEvalOptions(EvalOptions options);

/// Monadic evaluation q(G) = {ν | L(q) ∩ paths_G(ν) ≠ ∅} (Sec. 2).
/// Backward reachability on the product G × DFA from all accepting pairs;
/// O(|E|·|Q|) time, O(|V|·|Q|) space. The query DFA may be partial; its
/// alphabet must not exceed the graph's (checked — the options overload
/// reports it as a Status instead).
BitVector EvalMonadic(const Graph& graph, const Dfa& query);

/// EvalMonadic with explicit options: with threads > 1 the accepting seed
/// pairs are partitioned by node range and each worker runs an independent
/// backward sweep; the result is the union of the per-range sweeps, which
/// equals the single sweep exactly. A query over more symbols than the
/// graph is InvalidArgument.
StatusOr<BitVector> EvalMonadic(const Graph& graph, const Dfa& query,
                                const EvalOptions& options);

/// Like EvalMonadic but only counts witness paths of length ≤ max_length.
BitVector EvalMonadicBounded(const Graph& graph, const Dfa& query,
                             uint32_t max_length);

/// EvalMonadicBounded with explicit options (same node-range partitioning
/// and alphabet check as EvalMonadic; level-synchronous, so the bound is
/// exact per sweep).
StatusOr<BitVector> EvalMonadicBounded(const Graph& graph, const Dfa& query,
                                       uint32_t max_length,
                                       const EvalOptions& options);

/// True iff ν ∈ q(G); forward product search from (node, q0).
bool SelectsNode(const Graph& graph, const Dfa& query, NodeId node);

/// Binary semantics (Appendix B): all ν' with a path from `src` to ν'
/// spelling a word of L(q); forward product reachability from (src, q0).
BitVector EvalBinaryFrom(const Graph& graph, const Dfa& query, NodeId src);

/// True iff (src, dst) is selected under binary semantics.
bool SelectsPair(const Graph& graph, const Dfa& query, NodeId src, NodeId dst);

/// Full binary result as (src, dst) pairs, (src asc, dst asc).
std::vector<std::pair<NodeId, NodeId>> EvalBinary(const Graph& graph,
                                                  const Dfa& query);

/// EvalBinary with explicit options: the 64-source lane batches are
/// independent, so workers evaluate whole batches with per-worker scratch
/// and write their pairs into per-batch slots that are concatenated in batch
/// order — output is identical to threads = 1 for every thread count.
StatusOr<std::vector<std::pair<NodeId, NodeId>>> EvalBinary(
    const Graph& graph, const Dfa& query, const EvalOptions& options);

/// Binary evaluation restricted to an explicit source set: returns the
/// (src, dst) pairs for every entry of `sources`, grouped in input order
/// (one group per occurrence — duplicates are answered twice), each group's
/// destinations ascending. EvalBinary(g, q) ≡ EvalBinaryFromSources over
/// (0, 1, …, |V|-1). Sources out of range are InvalidArgument.
StatusOr<std::vector<std::pair<NodeId, NodeId>>> EvalBinaryFromSources(
    const Graph& graph, const Dfa& query, std::span<const NodeId> sources,
    const EvalOptions& options = {});

/// N-ary semantics (Appendix B): a tuple (ν1..νn) is selected by
/// Q = (q1..q(n-1)) iff every consecutive pair (νi, νi+1) is selected by qi
/// under binary semantics. `tuple.size()` must equal `queries.size() + 1`.
bool SelectsTuple(const Graph& graph, const std::vector<Dfa>& queries,
                  const std::vector<NodeId>& tuple);

}  // namespace rpqlearn

#endif  // RPQLEARN_QUERY_EVAL_H_
