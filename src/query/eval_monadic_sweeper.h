#ifndef RPQLEARN_QUERY_EVAL_MONADIC_SWEEPER_H_
#define RPQLEARN_QUERY_EVAL_MONADIC_SWEEPER_H_

#include <utility>
#include <vector>

#include "graph/graph.h"
#include "query/eval_internal.h"
#include "util/bit_vector.h"

namespace rpqlearn {
namespace eval_internal {

/// Level-synchronous backward product sweep over a graph. Seeds are
/// injected with Visit(); RunRound expands the whole pending frontier one
/// level by a sparse push: pop each frontier pair and mark its unreached
/// predecessors over the graph's in-neighbors × the frozen DFA's reverse
/// entries. The reached set grows monotonically to the least fixed point
/// of backward reachability, which is what the seed reference computes.
/// `hook(v, q)` fires once per fresh pair; the materialized monadic result
/// (eval_incremental.h) uses it to maintain its selected-node column.
class MonadicSweeper {
 public:
  MonadicSweeper(const Graph& graph, const BinaryTables& tables)
      : graph_(graph),
        tables_(tables),
        reached_(static_cast<size_t>(graph.num_nodes()) * tables.nq) {}

  size_t frontier_pairs() const { return frontier_.size(); }
  const BitVector& reached() const { return reached_; }

  /// Marks (v, q) reached and queues it in the pending frontier; no-op when
  /// already reached. Callable between rounds only.
  template <typename VisitHook>
  void Visit(NodeId v, StateId q, VisitHook&& hook) {
    const size_t cell = static_cast<size_t>(v) * tables_.nq + q;
    if (reached_.Test(cell)) return;
    reached_.Set(cell);
    frontier_.emplace_back(v, q);
    hook(v, q);
  }

  /// Expands the pending frontier by exactly one level; fresh discoveries
  /// form the next pending frontier and fire `hook` once each.
  template <typename VisitHook>
  void RunRound(VisitHook&& hook, RoundCounters* rounds) {
    rounds->pairs += frontier_.size();
    const uint32_t nq = tables_.nq;
    next_.clear();
    for (auto [v, q] : frontier_) {
      // Predecessor pairs: (u, p) with edge (u, a, v) and δ(p, a) = q.
      for (const auto& entry : tables_.frozen->ReverseInto(q)) {
        if (entry.symbol >= tables_.num_shared) break;
        for (NodeId u : graph_.InNeighbors(v, entry.symbol)) {
          for (StateId p : tables_.frozen->EntrySources(entry)) {
            const size_t cell = static_cast<size_t>(u) * nq + p;
            if (!reached_.Test(cell)) {
              reached_.Set(cell);
              next_.emplace_back(u, p);
              hook(u, p);
            }
          }
        }
      }
    }
    std::swap(frontier_, next_);
    ++rounds->sparse;
  }

 private:
  const Graph& graph_;
  const BinaryTables& tables_;
  BitVector reached_;
  std::vector<std::pair<NodeId, StateId>> frontier_;
  std::vector<std::pair<NodeId, StateId>> next_;
};

}  // namespace eval_internal
}  // namespace rpqlearn

#endif  // RPQLEARN_QUERY_EVAL_MONADIC_SWEEPER_H_
