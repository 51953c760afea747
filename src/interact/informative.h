#ifndef RPQLEARN_INTERACT_INFORMATIVE_H_
#define RPQLEARN_INTERACT_INFORMATIVE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "learn/coverage.h"
#include "util/bit_vector.h"

namespace rpqlearn {

namespace internal {

/// Label masks that settle the last step (budget 1) of the uncovered-path
/// searches without scanning out-edges. The out-edges of `v` that take
/// coverage state `s` to the empty subset are exactly those labelled by
/// out(v) ∩ dead(s), where out(v) is the set of v's out-labels and dead(s)
/// the set of labels whose successor from `s` is the empty subset. Each set
/// is ⌈|Σ|/64⌉ words: out is built for every node, dead for every state with
/// a transition row (the empty state and the states below depth k), so a
/// build costs O(|V|·⌈|Σ|/64⌉ + |E| + rows·|Σ|).
class LastStepMasks {
 public:
  /// Checks that the graph and the coverage share one alphabet.
  LastStepMasks(const Graph& graph, const SubsetCoverage& coverage);

  /// True iff some out-edge of `v` takes `s` to the empty subset.
  bool AnyUncoveredEdge(NodeId v, StateId s) const;

  /// Number of out-edges of `v` that take `s` to the empty subset.
  uint64_t CountUncoveredEdges(NodeId v, StateId s) const;

 private:
  const uint64_t* OutLabels(NodeId v) const {
    return out_labels_.data() + static_cast<size_t>(v) * words_;
  }
  /// `s` must have a transition row (checked, as SubsetCoverage::Next
  /// checks).
  const uint64_t* DeadLabels(StateId s) const;

  const Graph& graph_;
  uint32_t k_;
  /// ⌈|Σ|/64⌉: label `a` is bit `a % 64` of word `a / 64`.
  size_t words_;
  /// States with a transition row: the prefix 0 .. num_rows_ − 1.
  StateId num_rows_;
  std::vector<uint64_t> out_labels_;   ///< words_ per node
  std::vector<uint64_t> dead_labels_;  ///< words_ per state with a row
};

}  // namespace internal

/// Computes the k-informative nodes (Sec. 4.2): a node is k-informative iff
/// it has at least one path of length ≤ k not covered by a negative example.
/// (k-informative ⇒ informative; deciding full informativeness is
/// PSPACE-complete, Lemma 4.2.)
///
/// Decided per node by a forward, depth-bounded search of the product of
/// the graph with the negative-coverage subset automaton, starting at
/// (ν, initial subset). A path is uncovered iff its coverage state is the
/// empty subset, which absorbs every extension, so the search returns at
/// the first out-edge whose coverage successor is empty: one witness
/// settles the node, where the product's reachable pairs need not all be
/// visited. Each level first asks whether such a witness is one edge away,
/// then descends. That one-edge test, and with it every budget-1 call, is
/// one AND of label masks (internal::LastStepMasks, built once per call in
/// O(|V|·⌈|Σ|/64⌉ + |E| + rows·|Σ|)), not an out-edge scan. Interior calls
/// with a budget of at least 2 share a memo keyed by (node, coverage state)
/// that keeps the largest budget known to fail and the smallest known to
/// succeed, so hub nodes are searched once per budget instead of once per
/// path into them. The search only steps from states at depth < k, where
/// the truncated automaton's transitions are all defined.
///
/// `coverage` must be built from the graph NFA with initial set S− (all
/// states accepting) at the same k.
BitVector ComputeKInformative(const Graph& graph,
                              const SubsetCoverage& coverage);

/// Counts, per node, the non-covered k-paths — the quantity minimized by
/// strategy kS: the number of paths p from ν with |p| ≤ k whose word is not
/// in paths_G(S−). Lazy DP over (node, coverage state, remaining depth),
/// shared across queries; rebuild after the sample changes. A budget-1
/// count adds |OutNeighbors(v, a)| over the labels `a` of the label masks'
/// AND (internal::LastStepMasks, built once per counter in
/// O(|V|·⌈|Σ|/64⌉ + |E| + rows·|Σ|)), and the root is unique per node, so
/// only interior budgets ≥ 2 are memoized.
class UncoveredPathCounter {
 public:
  /// Checks that the memo key, built from the graph's node count and the
  /// coverage's num_states() and k(), fits in 64 bits, and that the graph
  /// and the coverage share one alphabet.
  UncoveredPathCounter(const Graph& graph, const SubsetCoverage& coverage);

  /// Number of non-covered paths of length ≤ k from `v` (saturating at
  /// uint64 max; exact for any realistic graph).
  uint64_t Count(NodeId v);

 private:
  /// Paths of length ≤ `remaining` from (v, cov), without the memo.
  uint64_t Sum(NodeId v, StateId cov, uint32_t remaining);
  /// Sum below the root (`remaining` ≥ 1), memoized for `remaining` ≥ 2.
  uint64_t CountFrom(NodeId v, StateId cov, uint32_t remaining);

  const Graph& graph_;
  const SubsetCoverage& coverage_;
  internal::LastStepMasks masks_;
  /// k + 1: the memo key is (v · |coverage| + cov) · (k + 1) + remaining.
  uint64_t num_budgets_;
  std::unordered_map<uint64_t, uint64_t> memo_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_INTERACT_INFORMATIVE_H_
