#ifndef RPQLEARN_GRAPH_DYNAMIC_H_
#define RPQLEARN_GRAPH_DYNAMIC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/condense.h"
#include "graph/graph.h"
#include "query/eval.h"
#include "query/eval_incremental.h"
#include "util/status.h"

namespace rpqlearn {

/// Telemetry of incremental structure maintenance: how often each repair
/// path fired. The condense_* counters sum over every maintained update
/// (one per update when condensation maintenance is on); see CondenseRepair
/// for what each path does.
struct MaintenanceStats {
  /// Successful InsertEdge / DeleteEdge calls (graph mutated).
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  /// No-op calls: inserting a live edge or deleting an absent one.
  uint64_t rejected_updates = 0;
  uint64_t compactions = 0;
  /// CondenseRepair outcome tallies.
  uint64_t condense_untouched_labels = 0;
  uint64_t condense_no_structural_change = 0;
  uint64_t condense_dag_rebuilds = 0;
  uint64_t condense_retarjans = 0;
  /// Compactions triggered by the pending-delta threshold policy (a subset
  /// of `compactions`).
  uint64_t auto_compactions = 0;
};

/// Owns a Graph plus an optional *maintained* derived-structure snapshot —
/// a per-label CondensedGraph — kept consistent with the live edge set
/// across InsertEdge / DeleteEdge by incremental repair instead of
/// rebuild-from-scratch. This is the serving shape for a mutating graph:
/// the query server's Engine (and any evaluation call) borrows the snapshot
/// through WithCaches(), and the version keying (Graph::version ↔ the
/// snapshot's graph_version) guarantees the evaluation engines can never
/// read a snapshot that missed an update.
/// Materialized query results (Materialize / MaterializeMonadic) ride the
/// same update routing: their retained fixed points are repaired in place by
/// delta-frontier re-seeding as edges arrive.
///
/// Mutations must be externally synchronized against readers, exactly like
/// Graph itself. All maintenance is deterministic: a DynamicGraph that
/// replayed the same updates holds a bit-identical snapshot.
class DynamicGraph {
 public:
  static constexpr size_t kDefaultAutoCompactThreshold = 256;

  explicit DynamicGraph(Graph graph) : graph_(std::move(graph)) {}

  const Graph& graph() const { return graph_; }

  /// Builds the maintained condensation over every label / over `labels`;
  /// subsequent updates repair it per affected label.
  void MaintainCondensation();
  void MaintainCondensation(std::span<const Symbol> labels);

  /// Registers a materialized binary query (src/query/eval_incremental.h)
  /// maintained by this DynamicGraph: every subsequent successful update is
  /// routed to it (delta-frontier repair on inserts, per-label invalidation
  /// on deletes) in registration order, after the maintained condensation
  /// was repaired. The returned pointer is owned by this DynamicGraph and
  /// stays valid for its lifetime.
  StatusOr<MaterializedQuery*> Materialize(const Dfa& query,
                                           std::span<const NodeId> sources,
                                           const EvalOptions& options = {});
  /// Monadic counterpart of Materialize().
  StatusOr<MaterializedMonadic*> MaterializeMonadic(
      const Dfa& query, const EvalOptions& options = {});

  /// Graph::InsertEdge / DeleteEdge plus incremental repair of the
  /// maintained condensation and every registered materialized query.
  /// Returns whether the graph mutated. After repairs, the auto-compaction
  /// policy may fold the delta overlay (see set_auto_compact_threshold) — by
  /// construction never mid-evaluation, since evaluations only run between
  /// updates.
  bool InsertEdge(NodeId src, Symbol a, NodeId dst);
  bool DeleteEdge(NodeId src, Symbol a, NodeId dst);

  /// Pending-delta count at which an update triggers Compact() automatically.
  /// The default, 256, sits past the measured overlay-vs-rebuild crossover of
  /// the eval_dynamic bench (the overlay stays within ~1.3× of compacted
  /// evaluation through k = 256 pending deltas, and one compaction amortizes
  /// across the next ~256 updates). 0 disables the policy. Compact()
  /// preserves version() and every label_version(), so materialized results
  /// survive auto-compaction untouched.
  void set_auto_compact_threshold(size_t threshold) {
    auto_compact_threshold_ = threshold;
  }
  size_t auto_compact_threshold() const { return auto_compact_threshold_; }

  /// Graph::Compact(). The condensation is exact at all times and carries
  /// no patch state, so it is left untouched; versions are preserved, so it
  /// stays valid.
  void Compact();

  /// Maintained snapshot; null until MaintainCondensation.
  const CondensedGraph* condensed() const {
    return condensed_ ? &*condensed_ : nullptr;
  }

  /// Returns `options` with the maintained condensation filled in as its
  /// cache pointer (a caller-supplied pointer wins). The evaluation engines
  /// still re-validate by version, so handing it out is always safe.
  EvalOptions WithCaches(EvalOptions options) const;

  const MaintenanceStats& stats() const { return stats_; }

 private:
  void ApplyToCondensation(Symbol a, NodeId src, NodeId dst, bool inserted);
  void MaybeAutoCompact();

  Graph graph_;
  std::optional<CondensedGraph> condensed_;
  /// Registered materialized queries, notified in registration order.
  std::vector<std::unique_ptr<MaterializedView>> materialized_;
  size_t auto_compact_threshold_ = kDefaultAutoCompactThreshold;
  MaintenanceStats stats_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_GRAPH_DYNAMIC_H_
