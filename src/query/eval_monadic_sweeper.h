#ifndef RPQLEARN_QUERY_EVAL_MONADIC_SWEEPER_H_
#define RPQLEARN_QUERY_EVAL_MONADIC_SWEEPER_H_

#include <utility>
#include <vector>

#include "query/eval_internal.h"
#include "query/eval_views.h"
#include "util/bit_vector.h"
#include "util/exec_context.h"

namespace rpqlearn {
namespace eval_internal {

/// Direction-optimized backward product sweep over one adjacency view.
/// Seeds are injected with Visit(); RunRound expands the whole pending
/// frontier one level, choosing per round between a sparse push (pop each
/// frontier pair, mark its predecessors over In-neighbors × the frozen
/// DFA's reverse entries) and a dense bottom-up pull (sweep every unreached
/// pair and probe its forward transitions over Out-neighbors against a
/// frontier bitmap). Both round kinds compute the
/// same monotone reachability closure and both are exactly level-
/// synchronous, so the mode sequence changes neither the fixed point nor
/// any level set — unbounded and bounded sweeps agree with the seed
/// reference for every policy. `hook(v, q)` fires once per fresh pair; the
/// materialized monadic result (eval_incremental.h) uses it to maintain its
/// selected-node column.
template <typename View>
class MonadicSweeper {
 public:
  MonadicSweeper(View view, const BinaryTables& tables,
                 const CondensePlan& plan, DirectionPolicy policy,
                 ExecContext* exec)
      : view_(view),
        tables_(tables),
        plan_(&plan),
        policy_(policy),
        exec_(exec),
        reached_(static_cast<size_t>(view_.num_nodes()) * tables.nq),
        frontier_bits_(reached_.size()),
        next_bits_(reached_.size()) {
    if (plan_->active) {
      cond_expanded_.resize(plan_->num_loops);
      for (uint32_t i = 0; i < plan_->num_loops; ++i) {
        cond_expanded_[i].assign(plan_->comp_counts[i], 0);
      }
    }
  }

  size_t frontier_pairs() const { return frontier_pairs_; }
  const BitVector& reached() const { return reached_; }

  /// Marks (v, q) reached and queues it in the pending frontier; no-op when
  /// already reached. Callable between rounds only.
  template <typename VisitHook>
  void Visit(NodeId v, StateId q, VisitHook&& hook) {
    const size_t cell = static_cast<size_t>(v) * tables_.nq + q;
    if (reached_.Test(cell)) return;
    reached_.Set(cell);
    if (dense_) {
      frontier_bits_.Set(cell);
    } else {
      frontier_.emplace_back(v, q);
    }
    ++frontier_pairs_;
    MaybeQueueCondense(v, q);
    hook(v, q);
  }

  /// Expands every pending star-state discovery component-at-a-time:
  /// backward over an engaged self-loop, a discovery (v, q) reaches every
  /// node of v's component and of the component's DAG predecessors, so the
  /// closure saturates them in one hop and the scatter chains through the
  /// worklist until the backward a*-cone is exhausted. Every visited cell
  /// lies in the monotone fixed point, so the closure never changes the
  /// result — only how many rounds reach it. Callable between rounds only,
  /// like Visit; a no-op when the plan is inactive (bounded sweeps:
  /// collapsing an SCC would merge BFS levels).
  template <typename VisitHook>
  void RunCondenseClosure(VisitHook&& hook, RoundCounters* rounds) {
    while (!cond_worklist_.empty()) {
      // One checkpoint per worklist pop: a pop can scatter a whole SCC and
      // its DAG cone, so this is the closure's coarse-grained trip point. On
      // a trip the remaining worklist is abandoned — the owning sweep's next
      // round checkpoint unwinds the whole evaluation.
      if (exec_ != nullptr && !exec_->Checkpoint()) return;
      const auto [v, q] = cond_worklist_.back();
      cond_worklist_.pop_back();
      for (const CondenseLoop& loop : plan_->loops[q]) {
        const uint32_t c = loop.label->ComponentOf(v);
        uint8_t& expanded = cond_expanded_[loop.index][c];
        if (expanded) continue;
        expanded = 1;
        ++rounds->condensed_expansions;
        if (loop.label->Members(c).size() >= 2) {
          ++rounds->components_collapsed;
        }
        ScatterComponent(loop, c, q, hook);
        for (uint32_t pred : loop.label->DagIn(c)) {
          ScatterComponent(loop, pred, q, hook);
        }
      }
    }
  }

  /// Expands the pending frontier by exactly one level; fresh discoveries
  /// form the next pending frontier and fire `hook` once each.
  template <typename VisitHook>
  void RunRound(VisitHook&& hook, RoundCounters* rounds) {
    rounds->pairs += frontier_pairs_;
    const bool want_dense = frontier_pairs_ >= policy_.dense_cutoff_pairs;
    if (want_dense != dense_) {
      if (want_dense) {
        FrontierToBits();
      } else {
        BitsToFrontier();
      }
      dense_ = want_dense;
    }
    if (dense_) {
      DenseRound(hook);
      ++rounds->dense;
    } else {
      SparseRound(hook);
      ++rounds->sparse;
    }
  }

 private:
  /// Queues (v, q) for the condensation closure when q is a star state the
  /// plan engages.
  void MaybeQueueCondense(NodeId v, StateId q) {
    if (plan_->active && plan_->engaged_any[q]) {
      cond_worklist_.emplace_back(v, q);
    }
  }

  template <typename VisitHook>
  void ScatterComponent(const CondenseLoop& loop, uint32_t c, StateId q,
                        VisitHook&& hook) {
    for (NodeId member : loop.label->Members(c)) Visit(member, q, hook);
  }

  template <typename VisitHook>
  void SparseRound(VisitHook&& hook) {
    const uint32_t nq = tables_.nq;
    next_.clear();
    for (auto [v, q] : frontier_) {
      // Predecessor pairs: (u, p) with edge (u, a, v) and δ(p, a) = q.
      for (const auto& entry : tables_.frozen->ReverseInto(q)) {
        if (entry.symbol >= tables_.num_shared) break;
        // The closure owns engaged self-loop hops (p == q over a star
        // label); per-edge work handles every other source.
        const bool skip_self = plan_->Engaged(q, entry.symbol);
        for (NodeId u : view_.In(v, entry.symbol)) {
          for (StateId p : tables_.frozen->EntrySources(entry)) {
            if (skip_self && p == q) continue;
            const size_t cell = static_cast<size_t>(u) * nq + p;
            if (!reached_.Test(cell)) {
              reached_.Set(cell);
              next_.emplace_back(u, p);
              MaybeQueueCondense(u, p);
              hook(u, p);
            }
          }
        }
      }
    }
    std::swap(frontier_, next_);
    frontier_pairs_ = frontier_.size();
  }

  template <typename VisitHook>
  void DenseRound(VisitHook&& hook) {
    const uint32_t nq = tables_.nq;
    next_bits_.Clear();
    size_t next_pairs = 0;
    const uint32_t nv = view_.num_nodes();
    for (NodeId v = 0; v < nv; ++v) {
      for (StateId q = 0; q < nq; ++q) {
        const size_t cell = static_cast<size_t>(v) * nq + q;
        if (reached_.Test(cell)) continue;
        const bool check_engaged = plan_->active && plan_->engaged_any[q];
        bool found = false;
        for (const StateTransition& tr : tables_.transitions[q]) {
          if (check_engaged && tr.target == q &&
              plan_->Engaged(q, tr.symbol)) {
            continue;  // the closure owns the star hop
          }
          for (NodeId u : view_.Out(v, tr.symbol)) {
            if (frontier_bits_.Test(static_cast<size_t>(u) * nq +
                                    tr.target)) {
              found = true;
              break;
            }
          }
          if (found) break;
        }
        if (!found) continue;
        reached_.Set(cell);
        next_bits_.Set(cell);
        ++next_pairs;
        MaybeQueueCondense(v, q);
        hook(v, q);
      }
    }
    std::swap(frontier_bits_, next_bits_);
    frontier_pairs_ = next_pairs;
  }

  void FrontierToBits() {
    for (auto [v, q] : frontier_) {
      frontier_bits_.Set(static_cast<size_t>(v) * tables_.nq + q);
    }
    frontier_.clear();
  }

  void BitsToFrontier() {
    frontier_.clear();
    frontier_bits_.ForEachSetBit([&](size_t cell) {
      frontier_.emplace_back(static_cast<NodeId>(cell / tables_.nq),
                             static_cast<StateId>(cell % tables_.nq));
    });
    frontier_bits_.Clear();
  }

  View view_;
  const BinaryTables& tables_;
  const CondensePlan* plan_;
  DirectionPolicy policy_;
  ExecContext* exec_;
  BitVector reached_;
  BitVector frontier_bits_;
  BitVector next_bits_;
  std::vector<std::pair<NodeId, StateId>> frontier_;
  std::vector<std::pair<NodeId, StateId>> next_;
  std::vector<std::pair<NodeId, StateId>> cond_worklist_;
  std::vector<std::vector<uint8_t>> cond_expanded_;  // per loop × component
  size_t frontier_pairs_ = 0;
  bool dense_ = false;
};

}  // namespace eval_internal
}  // namespace rpqlearn

#endif  // RPQLEARN_QUERY_EVAL_MONADIC_SWEEPER_H_
