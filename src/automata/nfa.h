#ifndef RPQLEARN_AUTOMATA_NFA_H_
#define RPQLEARN_AUTOMATA_NFA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "automata/word.h"

namespace rpqlearn {

/// Dense automaton state id.
using StateId = uint32_t;

/// Sentinel for "no state" (undefined transition).
inline constexpr StateId kNoState = static_cast<StateId>(-1);

/// Nondeterministic finite automaton with optional ε-transitions
/// (Appendix A of the paper). Also the working representation for
/// "graph as automaton": `paths_G(X)` is the language of the graph's NFA with
/// initial set `X` and every state accepting.
class Nfa {
 public:
  /// An automaton over symbols `{0, ..., num_symbols-1}`.
  explicit Nfa(uint32_t num_symbols) : num_symbols_(num_symbols) {}

  /// Adds a fresh state and returns its id.
  StateId AddState(bool accepting = false);

  /// Reserves capacity for `num_states` total states (bulk construction).
  void ReserveStates(uint32_t num_states);

  /// Reserves capacity for `count` labeled transitions out of `s`.
  void ReserveTransitions(StateId s, size_t count);

  /// Adds the transition `from --symbol--> to`.
  void AddTransition(StateId from, Symbol symbol, StateId to);

  /// Adds the ε-transition `from --ε--> to`.
  void AddEpsilonTransition(StateId from, StateId to);

  void AddInitial(StateId s);
  /// Adds `s` to the initial set of a finalized NFA, keeping
  /// initial_states() sorted and duplicate-free without a new Finalize().
  void InsertInitial(StateId s);
  void SetAccepting(StateId s, bool accepting);

  uint32_t num_states() const {
    return static_cast<uint32_t>(transitions_.size());
  }
  uint32_t num_symbols() const { return num_symbols_; }
  bool has_epsilon_transitions() const { return has_epsilon_; }

  const std::vector<StateId>& initial_states() const { return initial_; }
  bool IsAccepting(StateId s) const { return accepting_[s]; }

  /// Outgoing labeled transitions of `s` as (symbol, target) pairs, sorted by
  /// (symbol, target) once Finalize() has been called.
  const std::vector<std::pair<Symbol, StateId>>& TransitionsFrom(
      StateId s) const {
    return transitions_[s];
  }
  const std::vector<StateId>& EpsilonTransitionsFrom(StateId s) const {
    return epsilon_[s];
  }

  /// Sorts transition lists; call after construction for deterministic
  /// iteration order. Idempotent.
  void Finalize();

  /// ε-closure of `states`; the result is sorted and duplicate-free.
  /// `states` must be sorted.
  std::vector<StateId> EpsilonClosure(std::vector<StateId> states) const;

  /// One subset-construction step: ε-closure of all `symbol`-successors of
  /// `states`. `states` must be sorted; the result is sorted.
  std::vector<StateId> Step(const std::vector<StateId>& states,
                            Symbol symbol) const;

  /// True iff `states` (sorted) contains an accepting state.
  bool ContainsAccepting(const std::vector<StateId>& states) const;

  /// Membership test by subset simulation; O(|word| * |states| * degree).
  bool Accepts(const Word& word) const;

  /// Number of labeled transitions (excluding ε).
  size_t NumTransitions() const;

 private:
  uint32_t num_symbols_;
  bool has_epsilon_ = false;
  std::vector<std::vector<std::pair<Symbol, StateId>>> transitions_;
  std::vector<std::vector<StateId>> epsilon_;
  std::vector<bool> accepting_;
  std::vector<StateId> initial_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_AUTOMATA_NFA_H_
