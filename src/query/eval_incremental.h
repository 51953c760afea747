#ifndef RPQLEARN_QUERY_EVAL_INCREMENTAL_H_
#define RPQLEARN_QUERY_EVAL_INCREMENTAL_H_

/// Incremental RPQ result maintenance: a materialized monadic query that
/// retains a converged product-BFS fixed point and repairs it in place as
/// edges arrive and leave, instead of paying a full O(E·|Q|) re-evaluation
/// per update.
///
/// The backward monadic sweep computes the least fixed point of a monotone
/// reachability closure over the product graph G × DFA. Updates are queued
/// (QueueUpdate, O(1)) and the queue is applied as one batch at the next
/// Results():
///   - deletes by delete-and-rederive (DRed; Gupta, Mumick & Subrahmanian,
///     SIGMOD 1993): drop every cell a deleted edge may have supported and
///     everything reached through those cells, except cells with a live
///     edge into an accepting cell, then re-seed each dropped cell that
///     still has a live successor in what is left;
///   - inserts by the delta frontier: edge (u, a, v) adds exactly the
///     product edges (u, q) → (v, δ(q, a)), so the cells (u, q) not yet
///     reached whose successor (v, δ(q, a)) is reached are new seeds;
///   - then the ordinary rounds run from those seeds to convergence.
/// What is left after the over-delete lies inside the new least fixed
/// point, every seed does too, and the result is closed under the live
/// graph's product edges, so the repaired result is bit-identical to a
/// from-scratch evaluation. docs/ARCHITECTURE.md, "Incremental evaluation",
/// gives the argument in full.
///
/// DynamicGraph (src/graph/dynamic.h) queues its applied updates on every
/// materialization registered on it and on the plans of every Engine built
/// over it; a QueryPlan (src/query/engine.h) keeps one as its warm monadic
/// result.

#include <cstdint>
#include <memory>
#include <vector>

#include "automata/dfa.h"
#include "automata/dfa_csr.h"
#include "graph/graph.h"
#include "query/eval.h"
#include "query/eval_internal.h"
#include "query/eval_monadic_sweeper.h"
#include "util/bit_vector.h"
#include "util/status.h"

namespace rpqlearn {

/// Structural fingerprint of a frozen DFA (FNV-1a over state count, symbol
/// count, initial state, accepting set, and the full transition table) —
/// the identity key of materialized results. Equal DFAs always collide;
/// cache layers that must be exact compare structure on fingerprint match
/// (see FrozenDfaStructurallyEqual).
uint64_t DfaFingerprint(const FrozenDfa& dfa);

/// Exact structural equality of two frozen DFAs (same shape, initial,
/// accepting set, transition table). The collision backstop behind
/// DfaFingerprint-keyed caches.
bool FrozenDfaStructurallyEqual(const FrozenDfa& a, const FrozenDfa& b);

/// Telemetry of one materialized query's maintenance: how each Results()
/// call was answered, and what its repairs did.
struct MaterializedStats {
  /// From-scratch fixed-point builds: the initial build plus every rebuild
  /// (a queue past its cap, an ExecContext trip, or a mutation of a read
  /// label that was not queued).
  uint64_t full_evals = 0;
  /// Results() calls that applied a queued batch of updates in place.
  uint64_t repairs = 0;
  /// Queued inserts whose delta frontier seeded at least one cell.
  uint64_t insert_repairs = 0;
  /// Queued inserts that seeded nothing: the edge adds no derivation, or a
  /// later delete of the same batch removed it again.
  uint64_t insert_noops = 0;
  /// Cells delivered as delta-frontier seeds, summed over insert repairs.
  uint64_t delta_cells_seeded = 0;
  /// Queued deletes repaired by delete-and-rederive.
  uint64_t delete_repairs = 0;
  /// Cells the over-delete step dropped, summed over repairs; the
  /// re-derive step and the rounds restore those that keep a derivation.
  uint64_t overdeleted_cells = 0;
  /// Updates on labels the query never reads: provably no effect on the
  /// result, nothing is queued.
  uint64_t untouched_updates = 0;
  /// Results() calls answered from the retained fixed point with no work
  /// (including calls that only had to re-verify per-label versions after a
  /// mutation of a label the query never reads).
  uint64_t warm_hits = 0;
  /// Compact() notifications observed (semantically no-ops: versions are
  /// preserved, the fixed point stays valid).
  uint64_t compactions_observed = 0;
};

/// A materialized monadic-semantics query: the backward product sweep's
/// reached() bitmap is retained, updates are queued on it, and the next
/// Results() repairs it in one batch (see the file comment). The
/// selected-node column is maintained alongside, so Results() is O(1) when
/// nothing is queued — the warm-start path of a QueryPlan's repeated
/// monadic runs (see src/query/engine.h).
///
/// Thread-safety matches Graph: updates and reads must be externally
/// synchronized. Non-movable (the retained sweeper points into owner
/// members) — create through the factory and hold the unique_ptr.
class MaterializedMonadic {
 public:
  /// Queued updates past which the materialization stops queueing and
  /// rebuilds at the next Results() instead; the same count as
  /// DynamicGraph's auto-compaction threshold.
  static constexpr size_t kMaxQueuedUpdates = 256;

  /// `build_exec`, when non-null, governs the *initial* fixed-point build
  /// only (deadline / cancellation / budget of the request that triggered
  /// it) and is never retained — later rebuilds and repairs use
  /// `options.exec` or the per-call override of Results(). The query-server
  /// facade arms one per admitted request; a tripped build fails Create
  /// without an object.
  static StatusOr<std::unique_ptr<MaterializedMonadic>> Create(
      const Graph& graph, const Dfa& query, const EvalOptions& options = {},
      ExecContext* build_exec = nullptr);

  /// Queues one applied update, called *after* the graph mutated, once per
  /// successful update. O(1): an update on a label the query reads is
  /// appended to the queue, anything else is only counted. The repair runs
  /// at the next Results().
  void QueueUpdate(NodeId src, Symbol label, NodeId dst, bool insert);
  void OnCompact();

  /// The maintained selected-node column, bit-identical to
  /// EvalMonadic(graph, query). Repairs the queued updates first, or
  /// rebuilds when the queue cannot account for the graph's label versions;
  /// the pointee is owned by this object and valid until the next update.
  /// `exec_override`, when non-null, replaces the retained ExecContext for
  /// any repair or rebuild this call performs (and is not retained
  /// afterwards) — warm hits never consult it. On an ExecContext trip the
  /// materialization goes stale and the trip status is returned.
  StatusOr<const BitVector*> Results(ExecContext* exec_override = nullptr);

  /// False when a repair or rebuild is pending (queued updates, a stale
  /// fixed point, or version drift on a label the query reads).
  bool in_sync() const;
  const MaterializedStats& stats() const { return mstats_; }

  /// Testing hooks for the fuzz campaign's injected-bug sensitivity checks:
  /// the next queued insert keeps its version bookkeeping but its repair
  /// withholds the delta-frontier re-seeding, and the repair of the batch
  /// holding the next queued delete skips the re-derive step. Both are
  /// deliberately wrong repairs the differential campaign must catch.
  void SkipNextInsertReseedForTesting() { skip_next_reseed_ = true; }
  void SkipNextRederiveForTesting() { skip_next_rederive_ = true; }

 private:
  struct QueuedUpdate {
    NodeId src;
    NodeId dst;
    Symbol label;
    bool insert;
    /// Testing only: this update's repair step is withheld.
    bool withheld;
  };

  MaterializedMonadic(const Graph& graph, const Dfa& query,
                      EvalOptions validated);

  Status BuildFixedPoint(ExecContext* exec);
  Status Repair(ExecContext* exec);
  /// Runs rounds until the frontier is empty, then releases the frontier
  /// buffers; on an ExecContext trip drops the torn sweep and goes stale.
  Status Converge(ExecContext* exec);
  /// The sweeper hook that keeps the selected-node column: reaching
  /// (v, q0) selects v.
  auto SelectHook() {
    return [this](NodeId v, StateId q) {
      if (q == tables_.q0) result_.Set(v);
    };
  }
  /// Unmarks (v, q) and, for the initial state, its selected-node bit.
  void Drop(NodeId v, StateId q);
  /// True when (u, p) has a live out-edge into an accepting cell: accepting
  /// cells never drop, so (u, p) is in every fixed point of the live graph.
  bool Anchored(NodeId u, StateId p) const;
  /// True when (u, p) has a live out-edge into a reached cell.
  bool HasReachedSuccessor(NodeId u, StateId p) const;
  /// True when every read label moved exactly by its queued updates.
  bool QueueAccountsForVersions() const;
  void RecordSyncedVersions();

  const Graph* graph_;
  FrozenDfa frozen_;
  eval_internal::BinaryTables tables_;
  EvalOptions validated_;
  /// Per shared label: 1 when some query state has a transition on it.
  /// Updates on any other label cannot change the result.
  std::vector<uint8_t> reads_label_;
  /// Retained sweep state; rebuilt (not reused) when stale — the monadic
  /// sweeper's reached() bitmap has no per-batch reset path.
  std::unique_ptr<eval_internal::MonadicSweeper> sweeper_;
  BitVector result_;
  uint64_t synced_version_ = 0;
  /// Per shared label: Graph::label_version at the last sync plus the
  /// updates queued since. A read label whose version differs was mutated
  /// behind the queue's back, and forces a rebuild.
  std::vector<uint64_t> expected_label_versions_;
  std::vector<QueuedUpdate> queue_;
  bool stale_ = true;
  bool skip_next_reseed_ = false;
  bool skip_next_rederive_ = false;
  MaterializedStats mstats_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_QUERY_EVAL_INCREMENTAL_H_
