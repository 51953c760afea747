#ifndef RPQLEARN_QUERY_EVAL_VIEWS_H_
#define RPQLEARN_QUERY_EVAL_VIEWS_H_

/// Adjacency views the round-engine sweepers (MonadicSweeper<View>,
/// BinarySweeper<View>) are instantiated over. A view supplies everything a
/// sweep needs to run the same round machinery against its backing
/// adjacency:
///
///   - `num_nodes()` — the node count of the view;
///   - `Out(v, a)` / `In(v, a)` — per-label adjacency;
///   - `kTracksChanged` — whether the sweep must record every cell whose
///     lane mask grew.
///
/// The evaluation engines use GlobalGraphView (nothing is tracked); the
/// incremental-maintenance layer uses TrackingGraphView. A delta-overlay
/// adjacency slots in as one more view — not another engine.

#include <span>

#include "graph/graph.h"

namespace rpqlearn {
namespace eval_internal {

struct GlobalGraphView {
  const Graph* graph;
  /// Nothing downstream of an evaluation sweep re-reads grown masks, so
  /// changed cells are not tracked.
  static constexpr bool kTracksChanged = false;
  uint32_t num_nodes() const { return graph->num_nodes(); }
  std::span<const NodeId> Out(NodeId v, Symbol a) const {
    return graph->OutNeighbors(v, a);
  }
  std::span<const NodeId> In(NodeId v, Symbol a) const {
    return graph->InNeighbors(v, a);
  }
};

/// GlobalGraphView with changed-cell tracking switched on: every cell whose
/// lane mask grows is recorded. The incremental-maintenance layer
/// (src/query/eval_incremental.h) sweeps over this view so a delta repair
/// can drain exactly the cells it grew — patching the retained per-source
/// result lists in O(gained cells) instead of re-collecting the whole fixed
/// point.
struct TrackingGraphView {
  const Graph* graph;
  static constexpr bool kTracksChanged = true;
  uint32_t num_nodes() const { return graph->num_nodes(); }
  std::span<const NodeId> Out(NodeId v, Symbol a) const {
    return graph->OutNeighbors(v, a);
  }
  std::span<const NodeId> In(NodeId v, Symbol a) const {
    return graph->InNeighbors(v, a);
  }
};

}  // namespace eval_internal
}  // namespace rpqlearn

#endif  // RPQLEARN_QUERY_EVAL_VIEWS_H_
