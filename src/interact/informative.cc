#include "interact/informative.h"

#include <limits>

#include "util/logging.h"

namespace rpqlearn {
namespace {

/// Forward, depth-bounded search of the product of the graph with the
/// coverage automaton for an uncovered path (one whose coverage successor is
/// the empty subset). Callers pass non-empty coverage states only: the
/// empty state is absorbing, so reaching it ends the search.
class UncoveredPathSearch {
 public:
  UncoveredPathSearch(const Graph& graph, const SubsetCoverage& coverage)
      : graph_(graph), coverage_(coverage) {}

  /// True iff some path of length 1..`budget` (≥ 1) from (v, cov) reaches
  /// the empty subset. Consults no memo at this level: the root call is
  /// unique per node.
  bool Search(NodeId v, StateId cov, uint32_t budget) {
    if (HasUncoveredEdge(v, cov)) return true;
    if (budget == 1) return false;
    for (const LabeledEdge& e : graph_.OutEdges(v)) {
      if (Interior(e.node, coverage_.Next(cov, e.label), budget - 1)) {
        return true;
      }
    }
    return false;
  }

 private:
  /// Budget-1 check: a direct out-edge scan.
  bool HasUncoveredEdge(NodeId v, StateId cov) const {
    for (const LabeledEdge& e : graph_.OutEdges(v)) {
      if (coverage_.IsEmptySubset(coverage_.Next(cov, e.label))) return true;
    }
    return false;
  }

  /// Search below the root. Budgets ≥ 2 go through the memo; the answer is
  /// monotone in the budget, so two bounds per (node, state) settle it.
  bool Interior(NodeId v, StateId cov, uint32_t budget) {
    if (budget == 1) return HasUncoveredEdge(v, cov);
    // v·|coverage| + cov < 2^64 for any 32-bit node and state ids.
    const uint64_t key =
        static_cast<uint64_t>(v) * coverage_.num_states() + cov;
    // References into an unordered_map survive the rehashes that the
    // recursive calls below may cause.
    Bounds& bounds = memo_[key];
    if (budget <= bounds.fails) return false;
    if (budget >= bounds.succeeds) return true;
    const bool found = Search(v, cov, budget);
    (found ? bounds.succeeds : bounds.fails) = budget;
    return found;
  }

  struct Bounds {
    /// Largest budget known to find no path.
    uint32_t fails = 0;
    /// Smallest budget known to find one.
    uint32_t succeeds = std::numeric_limits<uint32_t>::max();
  };

  const Graph& graph_;
  const SubsetCoverage& coverage_;
  std::unordered_map<uint64_t, Bounds> memo_;
};

}  // namespace

BitVector ComputeKInformative(const Graph& graph,
                              const SubsetCoverage& coverage) {
  const uint32_t nv = graph.num_nodes();
  const StateId init = coverage.initial();
  BitVector informative(nv);
  if (coverage.IsEmptySubset(init)) {
    // No negatives: the empty path is uncovered everywhere.
    for (NodeId v = 0; v < nv; ++v) informative.Set(v);
    return informative;
  }
  if (coverage.k() == 0) return informative;
  UncoveredPathSearch search(graph, coverage);
  for (NodeId v = 0; v < nv; ++v) {
    if (search.Search(v, init, coverage.k())) informative.Set(v);
  }
  return informative;
}

UncoveredPathCounter::UncoveredPathCounter(const Graph& graph,
                                           const SubsetCoverage& coverage)
    : graph_(graph),
      coverage_(coverage),
      num_budgets_(uint64_t{coverage.k()} + 1) {
  uint64_t num_keys = 0;
  RPQ_CHECK(!__builtin_mul_overflow(
      uint64_t{graph.num_nodes()} * coverage.num_states(), num_budgets_,
      &num_keys))
      << "UncoveredPathCounter memo key overflows 64 bits: "
      << graph.num_nodes() << " nodes x " << coverage.num_states()
      << " coverage states x " << num_budgets_ << " budgets";
}

uint64_t UncoveredPathCounter::Count(NodeId v) {
  return Sum(v, coverage_.initial(), coverage_.k());
}

uint64_t UncoveredPathCounter::Sum(NodeId v, StateId cov, uint32_t remaining) {
  uint64_t total = coverage_.IsEmptySubset(cov) ? 1 : 0;  // the path so far
  if (remaining == 0) return total;
  for (const LabeledEdge& e : graph_.OutEdges(v)) {
    const StateId next_cov = coverage_.Next(cov, e.label);
    const uint64_t sub = remaining == 1
                             ? (coverage_.IsEmptySubset(next_cov) ? 1 : 0)
                             : CountFrom(e.node, next_cov, remaining - 1);
    total = (total + sub < total) ? UINT64_MAX : total + sub;
  }
  return total;
}

uint64_t UncoveredPathCounter::CountFrom(NodeId v, StateId cov,
                                         uint32_t remaining) {
  if (remaining == 1) return Sum(v, cov, 1);
  const uint64_t key =
      (static_cast<uint64_t>(v) * coverage_.num_states() + cov) *
          num_budgets_ +
      remaining;
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  const uint64_t total = Sum(v, cov, remaining);
  memo_.emplace(key, total);
  return total;
}

}  // namespace rpqlearn
