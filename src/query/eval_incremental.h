#ifndef RPQLEARN_QUERY_EVAL_INCREMENTAL_H_
#define RPQLEARN_QUERY_EVAL_INCREMENTAL_H_

/// Incremental RPQ result maintenance: materialized queries that retain a
/// converged product-BFS fixed point and repair it in place as edges
/// arrive, instead of paying a full O(E·|Q|) re-evaluation per update.
///
/// The monotone-fixed-point argument the repair rests on: the batched
/// product BFS computes the least fixed point of a monotone lane-mask join
/// over the product graph G × DFA. Inserting edge (u, a, v) adds exactly
/// the product edges (u, q) → (v, δ(q, a)) for states q with δ(q, a)
/// defined. The old fixed point is already closed under every old product
/// edge, so re-running the closure from the *delta frontier* — the cells
/// (v, δ(q, a)) receiving lanes settled at (u, q) but missing at
/// (v, δ(q, a)) — reaches the new least fixed point, bit-identically to a
/// from-scratch evaluation, in O(affected cells) work. Deletions are
/// non-monotone (settled lanes may lose their only witness path), so v1
/// invalidates at per-label granularity and falls back to a full rebuild,
/// counted in MaterializedStats so the bench shows the crossover.
///
/// Retained sweepers always run with the SCC-condensation plan inactive:
/// the closure's component structure is a property of the graph at build
/// time, and an insert can merge components — repairing through a stale
/// condensation could skip reachability the new edge created. Per-edge-only
/// rounds keep the monotone argument airtight (kOff is the exact
/// pre-condensation path).
///
/// DynamicGraph (src/graph/dynamic.h) routes its updates to every
/// materialized query registered on it; see docs/ARCHITECTURE.md,
/// "Incremental evaluation".

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "automata/dfa.h"
#include "automata/dfa_csr.h"
#include "graph/graph.h"
#include "query/eval.h"
#include "query/eval_binary_sweeper.h"
#include "query/eval_internal.h"
#include "query/eval_monadic_sweeper.h"
#include "query/eval_views.h"
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
  /// Inserts whose delta frontier was empty (the new edge grows nothing:
  /// its source cells hold no lanes the target cells are missing).
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

/// Update-notification interface DynamicGraph routes mutations through.
/// Every callback fires *after* the graph mutated (repairs read the live
/// adjacency), once per successful update, in registration order.
class MaterializedView {
 public:
  virtual ~MaterializedView() = default;
  virtual void OnInsertEdge(NodeId src, Symbol label, NodeId dst) = 0;
  virtual void OnDeleteEdge(NodeId src, Symbol label, NodeId dst) = 0;
  virtual void OnCompact() = 0;
};

/// A materialized binary-semantics query over an explicit source set: the
/// settled lane masks of EvalBinaryFromSources(graph, query, sources) are
/// retained batch-by-batch (64 sources per lane batch) together with
/// per-source sorted destination lists, and repaired in place on edge
/// inserts. Destinations(i) then serves every source's current answer in
/// O(1), and Results() materializes the exact EvalBinaryFromSources pair
/// vector for differential checks.
///
/// Thread-safety matches Graph: updates and reads must be externally
/// synchronized. Non-movable (retained sweepers point into owner members) —
/// create through the factory and hold the unique_ptr.
class MaterializedQuery : public MaterializedView {
 public:
  /// Validates `options` and `sources` (each must be a node of `graph`),
  /// builds the initial fixed point, and returns the materialization.
  /// `graph` must outlive it; `options` supplies the direction policy,
  /// stats sink, and ExecContext (threads are ignored — repairs are
  /// sequential; condense is forced off, see the header comment).
  static StatusOr<std::unique_ptr<MaterializedQuery>> Create(
      const Graph& graph, const Dfa& query, std::span<const NodeId> sources,
      const EvalOptions& options = {});

  // MaterializedView: called by DynamicGraph after each successful update.
  void OnInsertEdge(NodeId src, Symbol label, NodeId dst) override;
  void OnDeleteEdge(NodeId src, Symbol label, NodeId dst) override;
  void OnCompact() override;

  /// The maintained destinations of sources()[i], ascending. Valid until
  /// the next update or Results() call. Requires in_sync() — callers going
  /// through Results() never need to care.
  std::span<const NodeId> Destinations(size_t source_index) const {
    return {dst_lists_[source_index].data(), dst_lists_[source_index].size()};
  }

  /// The maintained result as (src, dst) pairs, bit-identical to
  /// EvalBinaryFromSources(graph, query, sources, options): groups in
  /// source input order (duplicates answered twice), destinations
  /// ascending. Rebuilds from scratch first when the fixed point is stale
  /// (delete fallback, ExecContext trip, or a mutation that bypassed the
  /// notifications and touched a label the query reads); the rebuild's trip
  /// status propagates.
  StatusOr<std::vector<std::pair<NodeId, NodeId>>> Results();

  /// (occurrence, destination) result count, maintained incrementally.
  size_t num_results() const { return num_results_; }

  /// False when a rebuild is pending (delete fallback / trip / version
  /// drift on a label the query reads).
  bool in_sync() const;

  const std::vector<NodeId>& sources() const { return sources_; }
  const MaterializedStats& stats() const { return mstats_; }
  /// Graph::version() the fixed point is synced to.
  uint64_t synced_version() const { return synced_version_; }

  /// Testing hook for the fuzz campaign's injected-bug sensitivity check:
  /// the next OnInsertEdge keeps its version bookkeeping but withholds the
  /// delta-frontier re-seeding — a deliberately wrong repair the
  /// differential campaign must catch.
  void SkipNextInsertReseedForTesting() { skip_next_reseed_ = true; }

 private:
  MaterializedQuery(const Graph& graph, const Dfa& query,
                    std::span<const NodeId> sources, EvalOptions validated);

  /// From-scratch build of every batch's fixed point and the per-source
  /// destination lists. Leaves the object stale on an ExecContext trip.
  Status BuildFixedPoint();
  /// Drains each repaired sweeper's changed cells into the per-source
  /// destination lists (sorted-merge per affected lane).
  void PatchResultLists(size_t batch, uint32_t lanes);
  void RecordSyncedVersions();

  const Graph* graph_;
  FrozenDfa frozen_;
  eval_internal::BinaryTables tables_;
  eval_internal::CondensePlan plan_;  // inactive; only `propagates` is read
  eval_internal::DirectionPolicy policy_;
  EvalOptions validated_;
  std::vector<NodeId> sources_;
  /// One retained sweeper per 64-source lane batch.
  std::vector<eval_internal::BinarySweeper<eval_internal::TrackingGraphView>>
      sweepers_;
  /// Maintained sorted destination list per source occurrence.
  std::vector<std::vector<NodeId>> dst_lists_;
  size_t num_results_ = 0;
  uint64_t synced_version_ = 0;
  /// Per shared label: Graph::label_version at last sync. A version()
  /// mismatch only forces a rebuild when one of these moved — updates to
  /// labels the query never reads keep the fixed point valid.
  std::vector<uint64_t> synced_label_versions_;
  bool stale_ = true;
  /// A tripped repair leaves sweeper scratch torn (see BinarySweeper); the
  /// next rebuild reconstructs the sweepers instead of reusing them.
  bool torn_ = false;
  bool skip_next_reseed_ = false;
  MaterializedStats mstats_;
  std::vector<std::pair<NodeId, NodeId>> scratch_gains_;  // (lane, dst)
};

/// A materialized monadic-semantics query: the backward product sweep's
/// reached() bitmap is retained and repaired on inserts (edge (u, a, v)
/// newly reaches (u, q) whenever (v, δ(q, a)) was reached), with the same
/// per-label delete fallback as MaterializedQuery. The selected-node column
/// is maintained alongside, so Results() is O(1) when in sync — this is the
/// warm-start path of a QueryPlan's repeated monadic runs (see
/// src/query/engine.h).
class MaterializedMonadic : public MaterializedView {
 public:
  /// `build_exec`, when non-null, governs the *initial* fixed-point build
  /// only (deadline / cancellation / budget of the request that triggered
  /// it) and is never retained — later rebuilds use `options.exec` or the
  /// per-call override of Results(). The query-server facade arms one per
  /// admitted request; a tripped build fails Create without an object.
  static StatusOr<std::unique_ptr<MaterializedMonadic>> Create(
      const Graph& graph, const Dfa& query, const EvalOptions& options = {},
      ExecContext* build_exec = nullptr);

  void OnInsertEdge(NodeId src, Symbol label, NodeId dst) override;
  void OnDeleteEdge(NodeId src, Symbol label, NodeId dst) override;
  void OnCompact() override;

  /// The maintained selected-node column, bit-identical to
  /// EvalMonadic(graph, query). Rebuilds first when stale; the pointee is
  /// owned by this object and valid until the next update. `exec_override`,
  /// when non-null, replaces the retained ExecContext for any rebuild this
  /// call performs (and is not retained afterwards) — warm hits never
  /// consult it.
  StatusOr<const BitVector*> Results(ExecContext* exec_override = nullptr);

  bool in_sync() const;
  const MaterializedStats& stats() const { return mstats_; }

  /// See MaterializedQuery::SkipNextInsertReseedForTesting.
  void SkipNextInsertReseedForTesting() { skip_next_reseed_ = true; }

 private:
  MaterializedMonadic(const Graph& graph, const Dfa& query,
                      EvalOptions validated);

  Status BuildFixedPoint();
  void RecordSyncedVersions();

  const Graph* graph_;
  FrozenDfa frozen_;
  eval_internal::BinaryTables tables_;
  eval_internal::CondensePlan plan_;  // inactive
  eval_internal::DirectionPolicy policy_;
  EvalOptions validated_;
  /// Retained sweep state; rebuilt (not reused) on fallback — the monadic
  /// sweeper's reached() bitmap has no per-batch reset path.
  std::unique_ptr<eval_internal::MonadicSweeper<eval_internal::GlobalGraphView>>
      sweeper_;
  BitVector result_;
  uint64_t synced_version_ = 0;
  std::vector<uint64_t> synced_label_versions_;
  bool stale_ = true;
  bool skip_next_reseed_ = false;
  MaterializedStats mstats_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_QUERY_EVAL_INCREMENTAL_H_
