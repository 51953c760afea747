#ifndef RPQLEARN_GRAPH_DYNAMIC_H_
#define RPQLEARN_GRAPH_DYNAMIC_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "query/eval.h"
#include "query/eval_incremental.h"
#include "util/status.h"

namespace rpqlearn {

/// Telemetry of update routing: how many updates applied, were rejected,
/// and how often the overlay was compacted.
struct MaintenanceStats {
  /// Successful InsertEdge / DeleteEdge calls (graph mutated).
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  /// No-op calls: inserting a live edge or deleting an absent one.
  uint64_t rejected_updates = 0;
  uint64_t compactions = 0;
  /// Retired, always 0: no condensation is maintained. Kept only because
  /// perfbench/src/serving.cc reads them.
  uint64_t condense_dag_rebuilds = 0;
  uint64_t condense_retarjans = 0;
  /// Compactions triggered by the pending-delta threshold policy (a subset
  /// of `compactions`).
  uint64_t auto_compactions = 0;
};

/// Owns a Graph and routes every InsertEdge / DeleteEdge to the
/// materialized monadic results registered on it (MaterializeMonadic),
/// whose retained fixed points are repaired in place by delta-frontier
/// re-seeding as edges arrive; it also runs the auto-compaction policy.
/// This is the serving shape for a mutating graph: the query server's
/// Engine runs over graph().
///
/// Mutations must be externally synchronized against readers, exactly like
/// Graph itself. All maintenance is deterministic: a DynamicGraph that
/// replayed the same updates holds bit-identical materialized results.
class DynamicGraph {
 public:
  static constexpr size_t kDefaultAutoCompactThreshold = 256;

  explicit DynamicGraph(Graph graph) : graph_(std::move(graph)) {}

  const Graph& graph() const { return graph_; }

  /// Retired no-op: no condensation is maintained. Kept only because
  /// perfbench/src/serving.cc names it.
  void MaintainCondensation() {}

  /// Registers a materialized monadic query (src/query/eval_incremental.h)
  /// maintained by this DynamicGraph: every subsequent successful update is
  /// routed to it (delta-frontier repair on inserts, per-label invalidation
  /// on deletes) in registration order. The returned pointer is owned by
  /// this DynamicGraph and stays valid for its lifetime.
  StatusOr<MaterializedMonadic*> MaterializeMonadic(
      const Dfa& query, const EvalOptions& options = {});

  /// Graph::InsertEdge / DeleteEdge plus incremental repair of every
  /// registered materialized query. Returns whether the graph mutated.
  /// After repairs, the auto-compaction policy may fold the delta overlay
  /// (see set_auto_compact_threshold) — by construction never
  /// mid-evaluation, since evaluations only run between updates.
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

  /// Graph::Compact(), then notifies every registered materialized query;
  /// versions are preserved, so their results stay valid.
  void Compact();

  /// Retired: returns `options` unchanged. Kept only because
  /// perfbench/src/serving.cc calls it.
  EvalOptions WithCaches(EvalOptions options) const { return options; }

  const MaintenanceStats& stats() const { return stats_; }

 private:
  void MaybeAutoCompact();

  Graph graph_;
  /// Registered materialized queries, notified in registration order.
  std::vector<std::unique_ptr<MaterializedMonadic>> materialized_;
  size_t auto_compact_threshold_ = kDefaultAutoCompactThreshold;
  MaintenanceStats stats_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_GRAPH_DYNAMIC_H_
