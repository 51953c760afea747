#include "interact/informative.h"

#include <bit>
#include <limits>

#include "util/logging.h"

namespace rpqlearn {
namespace internal {

LastStepMasks::LastStepMasks(const Graph& graph,
                             const SubsetCoverage& coverage)
    : graph_(graph),
      k_(coverage.k()),
      words_((size_t{graph.num_symbols()} + 63) / 64),
      num_rows_(1) {
  RPQ_CHECK_EQ(graph.num_symbols(), coverage.num_symbols())
      << "graph and coverage alphabets differ";
  out_labels_.assign(size_t{graph.num_nodes()} * words_, 0);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    uint64_t* out = out_labels_.data() + size_t{v} * words_;
    for (const LabeledEdge& e : graph.OutEdges(v)) {
      out[e.label / 64] |= uint64_t{1} << (e.label % 64);
    }
  }
  // Ids follow BFS order, so the states below depth k, which have rows
  // along with the empty state 0, are the ids 1 .. num_rows_ − 1.
  while (num_rows_ < coverage.num_states() &&
         coverage.DepthOf(num_rows_) < k_) {
    ++num_rows_;
  }
  dead_labels_.assign(size_t{num_rows_} * words_, 0);
  for (StateId s = 0; s < num_rows_; ++s) {
    uint64_t* dead = dead_labels_.data() + size_t{s} * words_;
    for (Symbol a = 0; a < coverage.num_symbols(); ++a) {
      if (coverage.IsEmptySubset(coverage.Next(s, a))) {
        dead[a / 64] |= uint64_t{1} << (a % 64);
      }
    }
  }
}

const uint64_t* LastStepMasks::DeadLabels(StateId s) const {
  RPQ_CHECK(s < num_rows_)
      << "dead-label mask queried beyond truncation depth k=" << k_;
  return dead_labels_.data() + size_t{s} * words_;
}

bool LastStepMasks::AnyUncoveredEdge(NodeId v, StateId s) const {
  const uint64_t* out = OutLabels(v);
  const uint64_t* dead = DeadLabels(s);
  for (size_t w = 0; w < words_; ++w) {
    if ((out[w] & dead[w]) != 0) return true;
  }
  return false;
}

uint64_t LastStepMasks::CountUncoveredEdges(NodeId v, StateId s) const {
  const uint64_t* out = OutLabels(v);
  const uint64_t* dead = DeadLabels(s);
  uint64_t count = 0;
  for (size_t w = 0; w < words_; ++w) {
    for (uint64_t bits = out[w] & dead[w]; bits != 0; bits &= bits - 1) {
      const auto a = static_cast<Symbol>(w * 64 + std::countr_zero(bits));
      count += graph_.OutNeighbors(v, a).size();
    }
  }
  return count;
}

}  // namespace internal

namespace {

/// Forward, depth-bounded search of the product of the graph with the
/// coverage automaton for an uncovered path (one whose coverage successor is
/// the empty subset). Callers pass non-empty coverage states only: the
/// empty state is absorbing, so reaching it ends the search.
class UncoveredPathSearch {
 public:
  UncoveredPathSearch(const Graph& graph, const SubsetCoverage& coverage)
      : graph_(graph), coverage_(coverage), masks_(graph, coverage) {}

  /// True iff some path of length 1..`budget` (≥ 1) from (v, cov) reaches
  /// the empty subset. Consults no memo at this level: the root call is
  /// unique per node.
  bool Search(NodeId v, StateId cov, uint32_t budget) {
    if (masks_.AnyUncoveredEdge(v, cov)) return true;
    if (budget == 1) return false;
    for (const LabeledEdge& e : graph_.OutEdges(v)) {
      if (Interior(e.node, coverage_.Next(cov, e.label), budget - 1)) {
        return true;
      }
    }
    return false;
  }

 private:
  /// Search below the root. Budgets ≥ 2 go through the memo; the answer is
  /// monotone in the budget, so two bounds per (node, state) settle it.
  bool Interior(NodeId v, StateId cov, uint32_t budget) {
    if (budget == 1) return masks_.AnyUncoveredEdge(v, cov);
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
  const internal::LastStepMasks masks_;
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
      masks_(graph, coverage),
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
  if (remaining == 1) return total + masks_.CountUncoveredEdges(v, cov);
  for (const LabeledEdge& e : graph_.OutEdges(v)) {
    const uint64_t sub =
        CountFrom(e.node, coverage_.Next(cov, e.label), remaining - 1);
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
