#include "graph/dynamic.h"

#include <vector>

#include "query/engine.h"

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
  Route(src, a, dst, /*insert=*/true);
  MaybeAutoCompact();
  return true;
}

bool DynamicGraph::DeleteEdge(NodeId src, Symbol a, NodeId dst) {
  if (!graph_.DeleteEdge(src, a, dst)) {
    ++stats_.rejected_updates;
    return false;
  }
  ++stats_.deletes;
  Route(src, a, dst, /*insert=*/false);
  MaybeAutoCompact();
  return true;
}

void DynamicGraph::Route(NodeId src, Symbol a, NodeId dst, bool insert) {
  for (const auto& view : materialized_) {
    view->QueueUpdate(src, a, dst, insert);
  }
  for (Engine* engine : engines_) engine->QueueUpdate(src, a, dst, insert);
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
