#ifndef RPQLEARN_QUERY_EVAL_VIEWS_H_
#define RPQLEARN_QUERY_EVAL_VIEWS_H_

/// Adjacency views the round-engine sweepers (MonadicSweeper<View>,
/// BinarySweeper<View>) are instantiated over. A view supplies everything a
/// sweep needs to run the same round machinery against its backing
/// adjacency:
///
///   - `num_nodes()` — the node count of the view;
///   - `Out(v, a)` / `In(v, a)` — per-label adjacency.
///
/// Every engine sweeps GlobalGraphView, the graph's own CSR plus delta
/// overlay; another adjacency slots in as one more view — not another
/// engine.

#include <span>

#include "graph/graph.h"

namespace rpqlearn {
namespace eval_internal {

struct GlobalGraphView {
  const Graph* graph;
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
