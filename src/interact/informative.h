#ifndef RPQLEARN_INTERACT_INFORMATIVE_H_
#define RPQLEARN_INTERACT_INFORMATIVE_H_

#include <cstdint>
#include <unordered_map>

#include "graph/graph.h"
#include "learn/coverage.h"
#include "util/bit_vector.h"

namespace rpqlearn {

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
/// visited. Each level scans its out-edges for such a witness before it
/// descends. Interior calls with a budget of at least 2 share a memo keyed
/// by (node, coverage state) that keeps the largest budget known to fail
/// and the smallest known to succeed, so hub nodes are searched once per
/// budget instead of once per path into them; budget-1 calls are a direct
/// out-edge scan. The search only steps from states at depth < k, where
/// the truncated automaton's transitions are all defined.
///
/// `coverage` must be built from the graph NFA with initial set S− (all
/// states accepting) at the same k.
BitVector ComputeKInformative(const Graph& graph,
                              const SubsetCoverage& coverage);

/// Counts, per node, the non-covered k-paths — the quantity minimized by
/// strategy kS: the number of paths p from ν with |p| ≤ k whose word is not
/// in paths_G(S−). Lazy DP over (node, coverage state, remaining depth),
/// shared across queries; rebuild after the sample changes. Budget-1 counts
/// come straight from the out-edges and the root is unique per node, so
/// only interior budgets ≥ 2 are memoized.
class UncoveredPathCounter {
 public:
  /// Checks that the memo key, built from the graph's node count and the
  /// coverage's num_states() and k(), fits in 64 bits.
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
  /// k + 1: the memo key is (v · |coverage| + cov) · (k + 1) + remaining.
  uint64_t num_budgets_;
  std::unordered_map<uint64_t, uint64_t> memo_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_INTERACT_INFORMATIVE_H_
