#ifndef RPQLEARN_QUERY_EVAL_BINARY_SWEEPER_H_
#define RPQLEARN_QUERY_EVAL_BINARY_SWEEPER_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "query/eval_internal.h"
#include "util/exec_context.h"

namespace rpqlearn {
namespace eval_internal {

/// The 64-lane batched product-BFS round machinery. One BinarySweeper owns
/// the per-worker scratch of the batched multi-source BFS and runs the
/// level-synchronous push rounds plus the condensation closure to the
/// monotone lane-mask fixed point of the graph's adjacency:
///
///   - `mask[(v, q)]` holds the lane set that has reached the product pair,
///     `pending` marks pairs queued in the frontier, and `touched` records
///     cells whose mask went nonzero, so per-batch clearing and result
///     recovery cost O(cells the BFS actually reached) instead of
///     O(num_nodes·nq);
///   - each round pops every frontier pair and pushes its lanes over the
///     graph's out-edges (work ∝ edges out of the frontier); a pair whose
///     mask gains lanes joins the next frontier unless its state never
///     propagates per edge;
///   - the condensation closure (HeapPush / TriggerCondense /
///     RunCondenseClosure) expands engaged kleene-star components
///     reverse-topologically between rounds;
///   - ExecContext checkpoints gate every round and every closure wave — in
///     exactly one place each. An early return leaves the scratch torn
///     (masks uncleared, frontier half-built) — safe because a tripped
///     evaluation discards every scratch and unwinds.
///
/// The driver (src/query/eval.cc) owns everything around the fixed point:
/// batch slicing, seeding order, and result recovery ordering.
class BinarySweeper {
 public:
  BinarySweeper() = default;

  /// Binds the graph and sizes the scratch for its (node, state) product
  /// space (and the plan's per-component expanded-lane tables); idempotent,
  /// so workers call it lazily on their first batch. `graph`, `tables`,
  /// `plan` and `exec` must outlive the sweeper's use.
  void Prepare(const Graph& graph, const BinaryTables& tables,
               const CondensePlan& plan, ExecContext* exec) {
    graph_ = &graph;
    tables_ = &tables;
    plan_ = &plan;
    exec_ = exec;
    const size_t num_pairs =
        static_cast<size_t>(graph.num_nodes()) * tables.nq;
    if (mask_.size() != num_pairs) {
      mask_.assign(num_pairs, 0);
      pending_.assign(num_pairs, 0);
    }
    if (plan.active && cond_expanded_.size() != plan.num_loops) {
      cond_expanded_.resize(plan.num_loops);
      cond_pending_.resize(plan.num_loops);
      cond_touched_.resize(plan.num_loops);
      for (uint32_t i = 0; i < plan.num_loops; ++i) {
        cond_expanded_[i].assign(plan.comp_counts[i], 0);
        cond_pending_[i].assign(plan.comp_counts[i], 0);
      }
    }
  }

  const BinaryTables& tables() const { return *tables_; }

  /// Resets the per-batch state (masks via the touched list, condensation
  /// expanded sets).
  void BeginBatch() {
    for (size_t cell : touched_) mask_[cell] = 0;
    touched_.clear();
    for (uint32_t i = 0; i < static_cast<uint32_t>(cond_touched_.size());
         ++i) {
      for (uint32_t c : cond_touched_[i]) cond_expanded_[i][c] = 0;
      cond_touched_[i].clear();
    }
    frontier_.clear();
  }

  /// Merges `lanes` into cell (v, q): fresh lanes update the mask, queue
  /// the condensation closure when q is a star state, and enqueue the cell
  /// in the frontier. Callable between rounds only (seeding).
  void Deliver(NodeId v, StateId q, uint64_t lanes) {
    const size_t cell = static_cast<size_t>(v) * tables_->nq + q;
    const uint64_t fresh = lanes & ~mask_[cell];
    if (fresh == 0) return;
    if (mask_[cell] == 0) touched_.push_back(cell);
    mask_[cell] |= fresh;
    if (plan_->active && plan_->engaged_any[q]) {
      TriggerCondense(v, q, fresh);
    }
    if (plan_->propagates[q] && !pending_[cell]) {
      pending_[cell] = 1;
      frontier_.emplace_back(v, q);
    }
  }

  /// Runs the rounds until the frontier drains (the fixed point given
  /// everything delivered so far), adding round counts to `rounds`. The
  /// condensation closure runs before the first round (seed gains) and
  /// after every round. On an ExecContext trip the scratch is left torn —
  /// callers must check tripped() before recovering anything.
  void RunRounds(RoundCounters* rounds) {
    RunCondenseClosure(rounds);
    while (!frontier_.empty()) {
      // Per-round trip point; torn state is discarded by the driver's
      // tripped() guard before any recovery.
      if (exec_ != nullptr && !exec_->Checkpoint()) return;
      rounds->pairs += frontier_.size();
      SparseRound(rounds);
      RunCondenseClosure(rounds);
    }
  }

  /// Appends the per-lane destinations (ascending) to `lanes_out[lane]`.
  /// When the BFS saturated the pair space a dense node sweep is cheapest;
  /// otherwise only the touched cells are inspected (sort+unique restores
  /// ascending order and drops nodes reached in several accepting states).
  void CollectLanes(uint32_t lanes, std::vector<NodeId>* lanes_out) {
    const uint32_t nq = tables_->nq;
    const size_t num_pairs = mask_.size();
    if (num_pairs > 0 && touched_.size() >= num_pairs / 4) {
      const uint32_t nv = graph_->num_nodes();
      for (NodeId u = 0; u < nv; ++u) {
        uint64_t h = 0;
        for (StateId q : tables_->accepting_states) {
          h |= mask_[static_cast<size_t>(u) * nq + q];
        }
        while (h != 0) {
          const int lane = std::countr_zero(h);
          lanes_out[lane].push_back(u);
          h &= h - 1;
        }
      }
      return;
    }
    for (uint32_t lane = 0; lane < lanes; ++lane) scratch_[lane].clear();
    for (size_t cell : touched_) {
      const StateId q = static_cast<StateId>(cell % nq);
      if (!tables_->accepting_flag[q]) continue;
      const NodeId u = static_cast<NodeId>(cell / nq);
      uint64_t h = mask_[cell];
      while (h != 0) {
        const int lane = std::countr_zero(h);
        scratch_[lane].push_back(u);
        h &= h - 1;
      }
    }
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      std::vector<NodeId>& dsts = scratch_[lane];
      std::sort(dsts.begin(), dsts.end());
      dsts.erase(std::unique(dsts.begin(), dsts.end()), dsts.end());
      lanes_out[lane].insert(lanes_out[lane].end(), dsts.begin(),
                             dsts.end());
    }
  }

 private:
  /// Pushes one (component, loop) entry keeping cond_heap_ a max-heap on
  /// (component id, loop index) — the pop order that makes closure waves
  /// reverse-topological per label.
  void HeapPush(uint32_t c, uint32_t loop_index) {
    cond_heap_.emplace_back(c, loop_index);
    std::push_heap(cond_heap_.begin(), cond_heap_.end());
  }

  /// Queues the star components of cell (v, q) for the condensation
  /// closure: lanes not yet expanded into a component accumulate in its
  /// pending set (one heap entry per component with pending lanes), so one
  /// closure wave scatters a component once with every lane that reached
  /// it, keeping the 64-lane batching intact instead of expanding per gain.
  void TriggerCondense(NodeId v, StateId q, uint64_t lanes) {
    for (const CondenseLoop& loop : plan_->loops[q]) {
      const uint32_t c = loop.label->ComponentOf(v);
      uint64_t& pending = cond_pending_[loop.index][c];
      const uint64_t add = lanes & ~cond_expanded_[loop.index][c] & ~pending;
      if (add == 0) continue;
      if (pending == 0) HeapPush(c, loop.index);
      pending |= add;
    }
  }

  /// Runs the condensation closure over every component that accumulated
  /// pending lanes since the last call (seeding or the preceding round):
  /// components pop in descending id order — reverse-topological, since
  /// Tarjan numbers every DAG successor below its predecessors — so within
  /// one label each component is scattered at most once per wave, with DAG
  /// successors receiving component-level pending lanes rather than member
  /// scatters. Newly propagating cells join the frontier. Every scattered
  /// cell lies in the monotone fixed point (members of an SCC are mutually
  /// a*-reachable; a DAG successor's members are reachable through one
  /// a-edge plus intra-SCC a-paths), so the closure never changes the
  /// output.
  void RunCondenseClosure(RoundCounters* rounds) {
    const uint32_t nq = tables_->nq;
    while (!cond_heap_.empty()) {
      // Per-wave trip point (one pop can scatter a whole SCC cone); the
      // abandoned heap is torn scratch the driver's tripped() guard
      // discards.
      if (exec_ != nullptr && !exec_->Checkpoint()) return;
      std::pop_heap(cond_heap_.begin(), cond_heap_.end());
      const auto [c, loop_index] = cond_heap_.back();
      cond_heap_.pop_back();
      uint64_t& pending = cond_pending_[loop_index][c];
      const uint64_t lanes = pending & ~cond_expanded_[loop_index][c];
      pending = 0;
      if (lanes == 0) continue;
      const CondenseLoop& loop = plan_->by_index[loop_index];
      uint64_t& expanded = cond_expanded_[loop_index][c];
      if (expanded == 0) cond_touched_[loop_index].push_back(c);
      expanded |= lanes;
      ++rounds->condensed_expansions;
      const auto members = loop.label->Members(c);
      if (members.size() >= 2) ++rounds->components_collapsed;

      const StateId q = loop.state;
      const bool propagates = plan_->propagates[q] != 0;
      for (NodeId u : members) {
        const size_t cell = static_cast<size_t>(u) * nq + q;
        const uint64_t fresh = lanes & ~mask_[cell];
        if (fresh == 0) continue;
        if (mask_[cell] == 0) touched_.push_back(cell);
        mask_[cell] |= fresh;
        // Same-loop re-triggers die on the expanded check; this feeds the
        // state's other star labels (e.g. the (a+b)* alternation).
        TriggerCondense(u, q, fresh);
        if (propagates && !pending_[cell]) {
          pending_[cell] = 1;
          frontier_.emplace_back(u, q);
        }
      }
      for (uint32_t succ : loop.label->DagOut(c)) {
        uint64_t& succ_pending = cond_pending_[loop_index][succ];
        const uint64_t add =
            lanes & ~cond_expanded_[loop_index][succ] & ~succ_pending;
        if (add == 0) continue;
        if (succ_pending == 0) HeapPush(succ, loop_index);
        succ_pending |= add;
      }
    }
  }

  /// One round: expand every frontier pair over the graph's out-edges,
  /// pushing fresh lanes into successors; the fresh pairs become the
  /// frontier. Pairs whose target state never propagates per edge are not
  /// enqueued (reaching them only updates the mask — or, for star states,
  /// feeds the closure).
  void SparseRound(RoundCounters* rounds) {
    const uint32_t nq = tables_->nq;
    next_.clear();
    for (auto [v, q] : frontier_) {
      const size_t vq = static_cast<size_t>(v) * nq + q;
      pending_[vq] = 0;
      const uint64_t lanes_here = mask_[vq];
      const bool check_engaged = plan_->active && plan_->engaged_any[q];
      for (const StateTransition& tr : tables_->transitions[q]) {
        if (check_engaged && tr.target == q &&
            plan_->Engaged(q, tr.symbol)) {
          continue;  // the closure owns the star hop
        }
        for (NodeId u : graph_->OutNeighbors(v, tr.symbol)) {
          const size_t ut = static_cast<size_t>(u) * nq + tr.target;
          const uint64_t fresh = lanes_here & ~mask_[ut];
          if (fresh == 0) continue;
          if (mask_[ut] == 0) touched_.push_back(ut);
          mask_[ut] |= fresh;
          if (plan_->active && plan_->engaged_any[tr.target]) {
            TriggerCondense(u, tr.target, fresh);
          }
          if (plan_->propagates[tr.target] && !pending_[ut]) {
            pending_[ut] = 1;
            next_.emplace_back(u, tr.target);
          }
        }
      }
    }
    std::swap(frontier_, next_);
    ++rounds->sparse;
  }

  const Graph* graph_ = nullptr;
  const BinaryTables* tables_ = nullptr;
  const CondensePlan* plan_ = nullptr;
  ExecContext* exec_ = nullptr;
  std::vector<uint64_t> mask_;
  std::vector<uint8_t> pending_;
  std::vector<size_t> touched_;
  std::vector<std::pair<NodeId, StateId>> frontier_;
  std::vector<std::pair<NodeId, StateId>> next_;
  /// Max-heap of (component id, loop index) with nonzero pending lanes;
  /// drained (together with cond_pending_) by every RunCondenseClosure.
  std::vector<std::pair<uint32_t, uint32_t>> cond_heap_;
  std::vector<std::vector<uint64_t>> cond_expanded_;  // per loop × component
  std::vector<std::vector<uint64_t>> cond_pending_;   // per loop × component
  std::vector<std::vector<uint32_t>> cond_touched_;
  std::vector<NodeId> scratch_[kLaneBatch];  // CollectLanes sort buffers
};

}  // namespace eval_internal
}  // namespace rpqlearn

#endif  // RPQLEARN_QUERY_EVAL_BINARY_SWEEPER_H_
