#include "graph/dynamic.h"

#include <vector>

namespace rpqlearn {

void DynamicGraph::MaintainCondensation() {
  condensed_.emplace(CondensedGraph::Build(graph_));
}

void DynamicGraph::MaintainCondensation(std::span<const Symbol> labels) {
  condensed_.emplace(CondensedGraph::Build(graph_, labels));
}

StatusOr<MaterializedQuery*> DynamicGraph::Materialize(
    const Dfa& query, std::span<const NodeId> sources,
    const EvalOptions& options) {
  StatusOr<std::unique_ptr<MaterializedQuery>> created =
      MaterializedQuery::Create(graph_, query, sources, options);
  if (!created.ok()) return created.status();
  MaterializedQuery* raw = created->get();
  materialized_.push_back(std::move(*created));
  return raw;
}

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
  ApplyToCondensation(a, src, dst, /*inserted=*/true);
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
  ApplyToCondensation(a, src, dst, /*inserted=*/false);
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

void DynamicGraph::ApplyToCondensation(Symbol a, NodeId src, NodeId dst,
                                       bool inserted) {
  if (!condensed_) return;
  switch (condensed_->ApplyEdgeUpdate(graph_, a, src, dst, inserted)) {
    case CondenseRepair::kUntouchedLabel:
      ++stats_.condense_untouched_labels;
      break;
    case CondenseRepair::kNoStructuralChange:
      ++stats_.condense_no_structural_change;
      break;
    case CondenseRepair::kDagRebuilt:
      ++stats_.condense_dag_rebuilds;
      break;
    case CondenseRepair::kLabelRetarjaned:
      ++stats_.condense_retarjans;
      break;
  }
}

void DynamicGraph::Compact() {
  graph_.Compact();
  ++stats_.compactions;
  for (const auto& view : materialized_) view->OnCompact();
}

EvalOptions DynamicGraph::WithCaches(EvalOptions options) const {
  if (options.condensed_cache == nullptr && condensed_) {
    options.condensed_cache = &*condensed_;
  }
  return options;
}

}  // namespace rpqlearn
