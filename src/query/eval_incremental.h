#ifndef RPQLEARN_QUERY_EVAL_INCREMENTAL_H_
#define RPQLEARN_QUERY_EVAL_INCREMENTAL_H_

/// Incremental RPQ result maintenance: a materialized monadic query that
/// retains a converged product-BFS fixed point and repairs it in place as
/// edges arrive, instead of paying a full O(E·|Q|) re-evaluation per update.
///
/// The monotone-fixed-point argument the repair rests on: the backward
/// monadic sweep computes the least fixed point of a monotone reachability
/// closure over the product graph G × DFA. Inserting edge (u, a, v) adds
/// exactly the product edges (u, q) → (v, δ(q, a)) for states q with
/// δ(q, a) defined. The old fixed point is already closed under every old
/// product edge, so re-running the closure from the *delta frontier* — the
/// cells (u, q) not yet reached whose successor (v, δ(q, a)) was — reaches
/// the new least fixed point, bit-identically to a from-scratch evaluation,
/// in O(affected cells) work. Deletions are non-monotone (a reached cell may
/// lose its only witness path), so v1 invalidates at per-label granularity
/// and falls back to a full rebuild, counted in MaterializedStats so the
/// bench shows the crossover.
///
/// DynamicGraph (src/graph/dynamic.h) routes its updates to every
/// materialization registered on it, and a QueryPlan (src/query/engine.h)
/// keeps one as its warm monadic result; see docs/ARCHITECTURE.md,
/// "Incremental evaluation".

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

/// Telemetry of one materialized query's maintenance: which repair path
/// every update took, and how much re-seeding the insert path did.
struct MaterializedStats {
  /// From-scratch fixed-point builds: the initial build plus every delete
  /// fallback or out-of-sync recovery.
  uint64_t full_evals = 0;
  /// Inserts repaired in place by delta-frontier re-seeding.
  uint64_t insert_repairs = 0;
  /// Inserts whose delta frontier was empty (the new edge reaches no cell
  /// the fixed point is missing).
  uint64_t insert_noops = 0;
  /// Cells delivered as delta-frontier seeds, summed over insert repairs.
  uint64_t delta_cells_seeded = 0;
  /// Deletes of a label the query reads: the fixed point is invalidated and
  /// the next Results() call rebuilds from scratch (the v1 delete lattice).
  uint64_t delete_fallbacks = 0;
  /// Updates on labels outside the query alphabet: provably no effect on
  /// the result, the fixed point stays valid.
  uint64_t untouched_updates = 0;
  /// Results() calls answered from the retained fixed point with no
  /// re-evaluation (including calls that only had to re-verify per-label
  /// versions after an unrouted mutation of an irrelevant label).
  uint64_t warm_hits = 0;
  /// Compact() notifications observed (semantically no-ops: versions are
  /// preserved, the fixed point stays valid).
  uint64_t compactions_observed = 0;
};

/// A materialized monadic-semantics query: the backward product sweep's
/// reached() bitmap is retained and repaired on inserts (edge (u, a, v)
/// newly reaches (u, q) whenever (v, δ(q, a)) was reached), with a
/// per-label delete fallback. The selected-node column is maintained
/// alongside, so Results() is O(1) when in sync — this is the warm-start
/// path of a QueryPlan's repeated monadic runs (see src/query/engine.h).
///
/// Thread-safety matches Graph: updates and reads must be externally
/// synchronized. Non-movable (the retained sweeper points into owner
/// members) — create through the factory and hold the unique_ptr.
class MaterializedMonadic {
 public:
  /// `build_exec`, when non-null, governs the *initial* fixed-point build
  /// only (deadline / cancellation / budget of the request that triggered
  /// it) and is never retained — later rebuilds use `options.exec` or the
  /// per-call override of Results(). The query-server facade arms one per
  /// admitted request; a tripped build fails Create without an object.
  static StatusOr<std::unique_ptr<MaterializedMonadic>> Create(
      const Graph& graph, const Dfa& query, const EvalOptions& options = {},
      ExecContext* build_exec = nullptr);

  /// Update notifications, called by DynamicGraph *after* the graph
  /// mutated (repairs read the live adjacency), once per successful update.
  /// Inserts repair in place; a delete of a label the query reads
  /// invalidates the fixed point until the next Results(); updates outside
  /// the query alphabet and compactions leave it valid.
  void OnInsertEdge(NodeId src, Symbol label, NodeId dst);
  void OnDeleteEdge(NodeId src, Symbol label, NodeId dst);
  void OnCompact();

  /// The maintained selected-node column, bit-identical to
  /// EvalMonadic(graph, query). Rebuilds first when stale; the pointee is
  /// owned by this object and valid until the next update. `exec_override`,
  /// when non-null, replaces the retained ExecContext for any rebuild this
  /// call performs (and is not retained afterwards) — warm hits never
  /// consult it.
  StatusOr<const BitVector*> Results(ExecContext* exec_override = nullptr);

  /// False when a rebuild is pending (delete fallback, ExecContext trip, or
  /// version drift on a label the query reads).
  bool in_sync() const;
  const MaterializedStats& stats() const { return mstats_; }

  /// Testing hook for the fuzz campaign's injected-bug sensitivity check:
  /// the next OnInsertEdge keeps its version bookkeeping but withholds the
  /// delta-frontier re-seeding — a deliberately wrong repair the
  /// differential campaign must catch.
  void SkipNextInsertReseedForTesting() { skip_next_reseed_ = true; }

 private:
  MaterializedMonadic(const Graph& graph, const Dfa& query,
                      EvalOptions validated);

  Status BuildFixedPoint();
  void RecordSyncedVersions();

  const Graph* graph_;
  FrozenDfa frozen_;
  eval_internal::BinaryTables tables_;
  EvalOptions validated_;
  /// Retained sweep state; rebuilt (not reused) on fallback — the monadic
  /// sweeper's reached() bitmap has no per-batch reset path.
  std::unique_ptr<eval_internal::MonadicSweeper> sweeper_;
  BitVector result_;
  uint64_t synced_version_ = 0;
  /// Per shared label: Graph::label_version at last sync. A version()
  /// mismatch only forces a rebuild when one of these moved — updates to
  /// labels the query never reads keep the fixed point valid.
  std::vector<uint64_t> synced_label_versions_;
  bool stale_ = true;
  bool skip_next_reseed_ = false;
  MaterializedStats mstats_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_QUERY_EVAL_INCREMENTAL_H_
