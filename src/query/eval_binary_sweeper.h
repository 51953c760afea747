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
/// the per-worker scratch of the batched multi-source BFS and runs
/// level-synchronous push rounds to the monotone lane-mask fixed point of
/// the graph's adjacency:
///
///   - `mask[(v, q)]` holds the lane set that has reached the product pair,
///     `pending` marks pairs queued in the frontier, and `touched` records
///     cells whose mask went nonzero, so per-batch clearing and result
///     recovery cost O(cells the BFS actually reached) instead of
///     O(num_nodes·nq);
///   - each round pops every frontier pair and pushes its lanes over the
///     graph's out-edges (work ∝ edges out of the frontier); a pair whose
///     mask gains lanes joins the next frontier iff its state has a
///     transition on a shared symbol;
///   - one ExecContext checkpoint gates every round. An early return leaves
///     the scratch torn (masks uncleared, frontier half-built) — safe
///     because a tripped evaluation discards every scratch and unwinds.
///
/// The driver (src/query/eval.cc) owns everything around the fixed point:
/// batch slicing, seeding order, and result recovery ordering.
class BinarySweeper {
 public:
  BinarySweeper() = default;

  /// Binds the graph and sizes the scratch for its (node, state) product
  /// space; idempotent, so workers call it lazily on their first batch.
  /// `graph`, `tables` and `exec` must outlive the sweeper's use.
  void Prepare(const Graph& graph, const BinaryTables& tables,
               ExecContext* exec) {
    graph_ = &graph;
    tables_ = &tables;
    exec_ = exec;
    const size_t num_pairs =
        static_cast<size_t>(graph.num_nodes()) * tables.nq;
    if (mask_.size() != num_pairs) {
      mask_.assign(num_pairs, 0);
      pending_.assign(num_pairs, 0);
    }
  }

  const BinaryTables& tables() const { return *tables_; }

  /// Resets the per-batch state (masks via the touched list).
  void BeginBatch() {
    for (size_t cell : touched_) mask_[cell] = 0;
    touched_.clear();
    frontier_.clear();
  }

  /// Merges `lanes` into cell (v, q): fresh lanes update the mask and
  /// enqueue the cell in the frontier. Callable between rounds only
  /// (seeding).
  void Deliver(NodeId v, StateId q, uint64_t lanes) {
    const size_t cell = static_cast<size_t>(v) * tables_->nq + q;
    const uint64_t fresh = lanes & ~mask_[cell];
    if (fresh == 0) return;
    if (mask_[cell] == 0) touched_.push_back(cell);
    mask_[cell] |= fresh;
    if (!tables_->transitions[q].empty() && !pending_[cell]) {
      pending_[cell] = 1;
      frontier_.emplace_back(v, q);
    }
  }

  /// Runs the rounds until the frontier drains (the fixed point given
  /// everything delivered so far), adding round counts to `rounds`. On an
  /// ExecContext trip the scratch is left torn — callers must check
  /// tripped() before recovering anything.
  void RunRounds(RoundCounters* rounds) {
    while (!frontier_.empty()) {
      // Per-round trip point; torn state is discarded by the driver's
      // tripped() guard before any recovery.
      if (exec_ != nullptr && !exec_->Checkpoint()) return;
      rounds->pairs += frontier_.size();
      SparseRound(rounds);
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
  /// One round: expand every frontier pair over the graph's out-edges,
  /// pushing fresh lanes into successors; the fresh pairs become the
  /// frontier. Pairs whose target state has no outgoing transition are not
  /// enqueued (reaching them only updates the mask).
  void SparseRound(RoundCounters* rounds) {
    const uint32_t nq = tables_->nq;
    next_.clear();
    for (auto [v, q] : frontier_) {
      const size_t vq = static_cast<size_t>(v) * nq + q;
      pending_[vq] = 0;
      const uint64_t lanes_here = mask_[vq];
      for (const StateTransition& tr : tables_->transitions[q]) {
        const bool propagates = !tables_->transitions[tr.target].empty();
        for (NodeId u : graph_->OutNeighbors(v, tr.symbol)) {
          const size_t ut = static_cast<size_t>(u) * nq + tr.target;
          const uint64_t fresh = lanes_here & ~mask_[ut];
          if (fresh == 0) continue;
          if (mask_[ut] == 0) touched_.push_back(ut);
          mask_[ut] |= fresh;
          if (propagates && !pending_[ut]) {
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
  ExecContext* exec_ = nullptr;
  std::vector<uint64_t> mask_;
  std::vector<uint8_t> pending_;
  std::vector<size_t> touched_;
  std::vector<std::pair<NodeId, StateId>> frontier_;
  std::vector<std::pair<NodeId, StateId>> next_;
  std::vector<NodeId> scratch_[kLaneBatch];  // CollectLanes sort buffers
};

}  // namespace eval_internal
}  // namespace rpqlearn

#endif  // RPQLEARN_QUERY_EVAL_BINARY_SWEEPER_H_
