#ifndef RPQLEARN_LEARN_COVERAGE_H_
#define RPQLEARN_LEARN_COVERAGE_H_

#include <cstdint>
#include <vector>

#include "automata/nfa.h"
#include "util/status.h"

namespace rpqlearn {

/// Depth-truncated deterministic subset automaton of an NFA, the machinery
/// behind the paper's coverage tests: a word `w` of length ≤ k is *covered*
/// iff the subset reached by `w` contains an accepting NFA state.
///
/// For the monadic learner the NFA is the graph with initial set S− and all
/// states accepting, so covered(w) ⟺ w ∈ paths_G(S−) ⟺ subset non-empty.
/// For the binary learner the NFA is the disjoint pair-tagged graph with
/// acceptance at the pairs' end nodes, so covered(w) ⟺ w ∈ paths2_G(S−).
///
/// States are materialized breadth-first up to depth k; transitions are only
/// defined for states first reached at depth < k (deeper queries would
/// correspond to words longer than k, which callers never ask about). The
/// empty subset is state 0 and absorbs all its transitions. The subsets
/// themselves exist only during Build, packed in one arena that Build frees
/// on return; the automaton keeps the table, depths and covering bits.
class SubsetCoverage {
 public:
  struct Options {
    uint32_t k = 2;
    /// Hard cap on materialized subset states, the empty and the initial
    /// subset included: Build returns an automaton with num_states() ≤
    /// max_states or ResourceExhausted (the learner then abstains, which is
    /// exactly the framework-with-abstain behavior of Sec. 3.1).
    size_t max_states = 1 << 20;
  };

  /// Builds the truncated subset automaton of `nfa` (which must not have
  /// ε-transitions).
  static StatusOr<SubsetCoverage> Build(const Nfa& nfa,
                                        const Options& options);

  uint32_t k() const { return k_; }
  uint32_t num_symbols() const { return num_symbols_; }
  uint32_t num_states() const {
    return static_cast<uint32_t>(covering_.size());
  }

  /// State of the initial subset (the empty state if the NFA has no initial
  /// states).
  StateId initial() const { return initial_; }

  /// Id of the empty subset.
  StateId empty_state() const { return 0; }
  bool IsEmptySubset(StateId s) const { return s == 0; }

  /// True iff the subset contains an accepting NFA state ("the word leading
  /// here is covered by the negatives").
  bool IsCovering(StateId s) const { return covering_[s]; }

  /// Deterministic transition; caller must only query states at depth < k
  /// (checked). The empty state loops to itself.
  StateId Next(StateId s, Symbol a) const;

  /// BFS depth at which the subset was first reached.
  uint32_t DepthOf(StateId s) const { return depth_[s]; }

 private:
  SubsetCoverage() = default;

  uint32_t k_ = 0;
  uint32_t num_symbols_ = 0;
  StateId initial_ = 0;
  std::vector<bool> covering_;
  std::vector<uint32_t> depth_;
  /// Transition rows of the states below depth k (a prefix of the ids).
  std::vector<StateId> table_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_LEARN_COVERAGE_H_
