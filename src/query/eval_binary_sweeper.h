#ifndef RPQLEARN_QUERY_EVAL_BINARY_SWEEPER_H_
#define RPQLEARN_QUERY_EVAL_BINARY_SWEEPER_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "query/eval_internal.h"
#include "query/eval_views.h"
#include "util/bit_vector.h"
#include "util/exec_context.h"
#include "util/logging.h"

namespace rpqlearn {
namespace eval_internal {

/// The 64-lane batched product-BFS round machinery, written once over an
/// adjacency view (eval_views.h). One BinarySweeper owns the per-worker (or
/// per-materialized-batch) scratch of the batched multi-source BFS and runs
/// the direction-optimized rounds plus the condensation closure to the
/// monotone lane-mask fixed point of the view's adjacency:
///
///   - `mask[(v, q)]` holds the lane set that has reached the product pair,
///     `pending` marks pairs queued in a sparse frontier,
///     `frontier_bits`/`next_bits` are the bitmap frontiers of the dense
///     bottom-up rounds, and `touched` records cells whose mask went
///     nonzero, so per-batch clearing and result recovery cost O(cells the
///     BFS actually reached) instead of O(num_nodes·nq);
///   - every round the frontier size (in product pairs) is compared against
///     DirectionPolicy.dense_cutoff_pairs: below the cutoff the round runs
///     sparse — pop each frontier pair, push its lanes over Out (work ∝
///     edges out of the frontier); at or above it the round runs dense —
///     sweep every product pair (u, t) and pull lanes from its predecessors
///     over In and the frozen DFA's reverse entries, gated by a frontier
///     bitmap (work ∝ |E|·|δ⁻¹|, frontier-independent). Both round kinds
///     apply the same monotone mask-join, and the frontier invariant —
///     every pair whose mask changed in round k propagates in round k+1
///     unless its state never propagates per edge — is preserved across
///     mode switches, so the fixed point is identical for every mode
///     sequence;
///   - the condensation closure (HeapPush / TriggerCondense /
///     RunCondenseClosure) expands engaged kleene-star components
///     reverse-topologically between rounds;
///   - when the view tracks changed cells (View::kTracksChanged), every
///     mask gain is recorded for the incremental repair's result-list
///     patching (ForEachChangedCell); the global instantiation compiles all
///     of that away;
///   - ExecContext checkpoints gate every round and every closure wave — in
///     exactly one place each. An early return leaves the scratch torn
///     (masks uncleared, frontier mid-representation) — safe because a
///     tripped evaluation discards every scratch and unwinds.
///
/// Drivers (src/query/eval.cc, src/query/eval_incremental.cc) own
/// everything around the fixed point: batch slicing, seeding/delivery
/// order, and result recovery ordering.
template <typename View>
class BinarySweeper {
 public:
  BinarySweeper() = default;

  /// Binds the view and sizes the scratch for its (node, state) product
  /// space (and the plan's per-component expanded-lane tables); idempotent,
  /// so monolithic workers call it lazily on their first batch. `tables`,
  /// `plan` and `exec` must outlive the sweeper's use.
  void Prepare(View view, const BinaryTables& tables, const CondensePlan& plan,
               DirectionPolicy policy, ExecContext* exec) {
    view_ = view;
    tables_ = &tables;
    plan_ = &plan;
    policy_ = policy;
    exec_ = exec;
    const size_t num_pairs =
        static_cast<size_t>(view.num_nodes()) * tables.nq;
    if (mask_.size() != num_pairs) {
      mask_.assign(num_pairs, 0);
      pending_.assign(num_pairs, 0);
      if constexpr (View::kTracksChanged) {
        changed_flag_.assign(num_pairs, 0);
      }
      frontier_bits_ = BitVector(num_pairs);
      next_bits_ = BitVector(num_pairs);
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

  /// Lane mask currently settled at cell (v, q). Readable between rounds,
  /// like Deliver — the incremental delta-frontier seeding
  /// (src/query/eval_incremental.h) reads the retained fixed point through
  /// this to decide which cells a new edge can actually grow.
  uint64_t LaneMask(NodeId v, StateId q) const {
    return mask_[static_cast<size_t>(v) * tables_->nq + q];
  }

  /// Resets the per-batch state (masks via the touched list, changed cells,
  /// condensation expanded sets) for a batch whose full-lane mask is
  /// `batch_full`.
  void BeginBatch(uint64_t batch_full) {
    batch_full_ = batch_full;
    for (size_t cell : touched_) mask_[cell] = 0;
    touched_.clear();
    if constexpr (View::kTracksChanged) {
      for (size_t cell : changed_) changed_flag_[cell] = 0;
      changed_.clear();
    }
    for (uint32_t i = 0; i < static_cast<uint32_t>(cond_touched_.size());
         ++i) {
      for (uint32_t c : cond_touched_[i]) cond_expanded_[i][c] = 0;
      cond_touched_[i].clear();
    }
    frontier_.clear();
    dense_ = false;
  }

  /// Merges `lanes` into cell (v, q): fresh lanes update the mask, mark the
  /// cell changed (when the view tracks changes), queue the condensation
  /// closure when q is a star state, and enqueue it in the sparse frontier.
  /// Callable between rounds only (seeding, delta-frontier repair), when
  /// the frontier representation is sparse.
  void Deliver(NodeId v, StateId q, uint64_t lanes) {
    const size_t cell = static_cast<size_t>(v) * tables_->nq + q;
    const uint64_t fresh = lanes & ~mask_[cell];
    if (fresh == 0) return;
    if (mask_[cell] == 0) touched_.push_back(cell);
    mask_[cell] |= fresh;
    MarkChanged(cell);
    if (plan_->active && plan_->engaged_any[q]) {
      TriggerCondense(v, q, fresh);
    }
    if (plan_->propagates[q] && !pending_[cell]) {
      pending_[cell] = 1;
      frontier_.emplace_back(v, q);
    }
  }

  /// Runs the direction-optimized rounds until the frontier drains (the
  /// fixed point given everything delivered so far), adding round counts
  /// to `rounds`. The condensation closure runs before the first round
  /// (seed and delta gains) and after every round. On an ExecContext trip
  /// the scratch is left torn — callers must check tripped() before
  /// recovering anything.
  void RunRounds(RoundCounters* rounds) {
    size_t frontier_pairs = frontier_.size();
    frontier_pairs += RunCondenseClosure(rounds);
    while (frontier_pairs > 0) {
      // Per-round trip point; torn state is discarded by the driver's
      // tripped() guard before any recovery.
      if (exec_ != nullptr && !exec_->Checkpoint()) return;
      rounds->pairs += frontier_pairs;
      const bool want_dense = frontier_pairs >= policy_.dense_cutoff_pairs;
      if (want_dense != dense_) {
        if (want_dense) {
          SparseFrontierToBits();
        } else {
          BitsToSparseFrontier();
        }
        dense_ = want_dense;
      }
      if (dense_) {
        frontier_pairs = DenseRound(rounds);
      } else {
        frontier_pairs = SparseRound(rounds);
      }
      frontier_pairs += RunCondenseClosure(rounds);
    }
    dense_ = false;  // frontier is empty; both representations agree
  }

  /// Appends the per-lane destinations (ascending) to `lanes_out[lane]`.
  /// When the BFS saturated the pair space a dense node sweep is cheapest;
  /// otherwise only the touched cells are inspected (sort+unique restores
  /// ascending order and drops nodes reached in several accepting states).
  void CollectLanes(uint32_t lanes, std::vector<NodeId>* lanes_out) {
    const uint32_t nq = tables_->nq;
    const size_t num_pairs = mask_.size();
    if (num_pairs > 0 && touched_.size() >= num_pairs / 4) {
      const uint32_t nv = view_.num_nodes();
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

  /// Drains the changed-cell list: `fn(v, q, mask)` fires once per cell
  /// that gained lanes since the last drain. Only available on views that
  /// track changes (the incremental repair's result-list patching).
  template <typename Fn>
  void ForEachChangedCell(Fn&& fn) {
    static_assert(View::kTracksChanged,
                  "this view does not track changed cells");
    const uint32_t nq = tables_->nq;
    for (size_t cell : changed_) {
      changed_flag_[cell] = 0;
      fn(static_cast<NodeId>(cell / nq), static_cast<StateId>(cell % nq),
         mask_[cell]);
    }
    changed_.clear();
  }

 private:
  void MarkChanged(size_t cell) {
    if constexpr (View::kTracksChanged) {
      if (!changed_flag_[cell]) {
        changed_flag_[cell] = 1;
        changed_.push_back(cell);
      }
    } else {
      (void)cell;
    }
  }

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
  /// scatters. Newly propagating cells join the current frontier
  /// representation; returns how many were added. Every scattered cell
  /// lies in the monotone fixed point (members of an SCC are mutually
  /// a*-reachable; a DAG successor's members are reachable through one
  /// a-edge plus intra-SCC a-paths), so the closure never changes the
  /// output.
  size_t RunCondenseClosure(RoundCounters* rounds) {
    size_t added = 0;
    const uint32_t nq = tables_->nq;
    while (!cond_heap_.empty()) {
      // Per-wave trip point (one pop can scatter a whole SCC cone); the
      // abandoned heap is torn scratch the driver's tripped() guard
      // discards.
      if (exec_ != nullptr && !exec_->Checkpoint()) return added;
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
        MarkChanged(cell);
        // Same-loop re-triggers die on the expanded check; this feeds the
        // state's other star labels (e.g. the (a+b)* alternation).
        TriggerCondense(u, q, fresh);
        if (!propagates) continue;
        if (dense_) {
          if (!frontier_bits_.Test(cell)) {
            frontier_bits_.Set(cell);
            ++added;
          }
        } else if (!pending_[cell]) {
          pending_[cell] = 1;
          frontier_.emplace_back(u, q);
          ++added;
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
    return added;
  }

  /// One sparse top-down round: expand every frontier pair over the view's
  /// out-edges, pushing fresh lanes into successors. Returns the next
  /// frontier's size. Pairs whose target state never propagates per edge
  /// are not enqueued (reaching them only updates the mask — or, for star
  /// states, feeds the closure).
  size_t SparseRound(RoundCounters* rounds) {
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
        for (NodeId u : view_.Out(v, tr.symbol)) {
          const size_t ut = static_cast<size_t>(u) * nq + tr.target;
          const uint64_t fresh = lanes_here & ~mask_[ut];
          if (fresh == 0) continue;
          if (mask_[ut] == 0) touched_.push_back(ut);
          mask_[ut] |= fresh;
          MarkChanged(ut);
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
    return frontier_.size();
  }

  /// One dense bottom-up round: for every product pair (u, t), pull the
  /// lanes of its predecessor pairs — (v, p) with edge (v, a, u) and
  /// δ(p, a) = t, iterated as the frozen DFA's reverse entries × per-label
  /// in-neighbor runs — gated by the frontier bitmap (word-at-a-time via
  /// PullMissingLanes). Cells whose mask grows form the next frontier
  /// bitmap. Returns its population count.
  ///
  /// Two pull short-circuits exploit the saturated regime dense rounds run
  /// in: a cell already holding every batch lane is skipped outright, and a
  /// pull stops as soon as it has gained all the cell's missing lanes —
  /// both are no-ops on the fixed point (a full cell gains nothing; gained
  /// lanes beyond `missing` were already present).
  size_t DenseRound(RoundCounters* rounds) {
    const uint32_t nq = tables_->nq;
    const FrozenDfa& frozen = *tables_->frozen;
    next_bits_.Clear();
    size_t next_pairs = 0;
    const uint32_t nv = view_.num_nodes();
    auto in = [this](NodeId u, Symbol a) { return view_.In(u, a); };
    for (StateId t = 0; t < nq; ++t) {
      if (frozen.ReverseInto(t).empty()) continue;
      const bool has_out = plan_->propagates[t] != 0;
      const bool engaged = plan_->active && plan_->engaged_any[t];
      for (NodeId u = 0; u < nv; ++u) {
        const size_t cell = static_cast<size_t>(u) * nq + t;
        const uint64_t missing = batch_full_ & ~mask_[cell];
        if (missing == 0) continue;  // cell complete, nothing to gain
        const uint64_t gained =
            PullMissingLanes(*tables_, *plan_, frontier_bits_, mask_, in, u,
                             t, missing);
        if (gained == 0) continue;
        if (mask_[cell] == 0) touched_.push_back(cell);
        mask_[cell] |= gained;
        MarkChanged(cell);
        if (engaged) TriggerCondense(u, t, gained);
        if (has_out) {
          next_bits_.Set(cell);
          ++next_pairs;
        }
      }
    }
    std::swap(frontier_bits_, next_bits_);
    ++rounds->dense;
    return next_pairs;
  }

  /// Sparse → dense switch: move the frontier list into the bitmap (which
  /// is all-zero outside rounds) and drop the pending flags.
  void SparseFrontierToBits() {
    const uint32_t nq = tables_->nq;
    for (auto [v, q] : frontier_) {
      const size_t vq = static_cast<size_t>(v) * nq + q;
      pending_[vq] = 0;
      frontier_bits_.Set(vq);
    }
    frontier_.clear();
  }

  /// Dense → sparse switch: drain the bitmap into the frontier list
  /// (ascending cell order — irrelevant to the fixed point) and restore the
  /// pending flags, leaving the bitmap all-zero.
  void BitsToSparseFrontier() {
    const uint32_t nq = tables_->nq;
    frontier_.clear();
    frontier_bits_.ForEachSetBit([&](size_t cell) {
      pending_[cell] = 1;
      frontier_.emplace_back(static_cast<NodeId>(cell / nq),
                             static_cast<StateId>(cell % nq));
    });
    frontier_bits_.Clear();
  }

  View view_{};
  const BinaryTables* tables_ = nullptr;
  const CondensePlan* plan_ = nullptr;
  DirectionPolicy policy_;
  ExecContext* exec_ = nullptr;
  std::vector<uint64_t> mask_;
  std::vector<uint8_t> pending_;
  std::vector<uint8_t> changed_flag_;  // empty unless View::kTracksChanged
  std::vector<size_t> touched_;
  std::vector<size_t> changed_;
  std::vector<std::pair<NodeId, StateId>> frontier_;
  std::vector<std::pair<NodeId, StateId>> next_;
  /// Max-heap of (component id, loop index) with nonzero pending lanes;
  /// drained (together with cond_pending_) by every RunCondenseClosure.
  std::vector<std::pair<uint32_t, uint32_t>> cond_heap_;
  std::vector<std::vector<uint64_t>> cond_expanded_;  // per loop × component
  std::vector<std::vector<uint64_t>> cond_pending_;   // per loop × component
  std::vector<std::vector<uint32_t>> cond_touched_;
  BitVector frontier_bits_;
  BitVector next_bits_;
  uint64_t batch_full_ = 0;  // all lanes of the current batch
  bool dense_ = false;
  std::vector<NodeId> scratch_[kLaneBatch];  // CollectLanes sort buffers
};

}  // namespace eval_internal
}  // namespace rpqlearn

#endif  // RPQLEARN_QUERY_EVAL_BINARY_SWEEPER_H_
