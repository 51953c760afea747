#include "graph/dynamic.h"

#include <vector>

namespace rpqlearn {

StatusOr<MaterializedMonadic*> DynamicGraph::MaterializeMonadic(
    const Dfa& query, const EvalOptions& options) {
  StatusOr<std::unique_ptr<MaterializedMonadic>> created =
      MaterializedMonadic::Create(graph_, query, options);
  if (!created.ok()) return created.status();
  MaterializedMonadic* raw = created->get();
  materialized_.push_back(std::move(*created));
  return raw;
}

bool DynamicGraph::InsertEdge(NodeId src, Symbol a, NodeId dst) {
  if (!graph_.InsertEdge(src, a, dst)) {
    ++stats_.rejected_updates;
    return false;
  }
  ++stats_.inserts;
  for (const auto& view : materialized_) view->OnInsertEdge(src, a, dst);
  MaybeAutoCompact();
  return true;
}

bool DynamicGraph::DeleteEdge(NodeId src, Symbol a, NodeId dst) {
  if (!graph_.DeleteEdge(src, a, dst)) {
    ++stats_.rejected_updates;
    return false;
  }
  ++stats_.deletes;
  for (const auto& view : materialized_) view->OnDeleteEdge(src, a, dst);
  MaybeAutoCompact();
  return true;
}

void DynamicGraph::MaybeAutoCompact() {
  if (auto_compact_threshold_ == 0) return;
  if (graph_.num_pending_deltas() < auto_compact_threshold_) return;
  Compact();
  ++stats_.auto_compactions;
}

void DynamicGraph::Compact() {
  graph_.Compact();
  ++stats_.compactions;
  for (const auto& view : materialized_) view->OnCompact();
}

}  // namespace rpqlearn
