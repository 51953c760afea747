#include "automata/nfa.h"

#include <algorithm>

#include "util/logging.h"

namespace rpqlearn {

StateId Nfa::AddState(bool accepting) {
  StateId id = static_cast<StateId>(transitions_.size());
  transitions_.emplace_back();
  epsilon_.emplace_back();
  accepting_.push_back(accepting);
  return id;
}

void Nfa::ReserveStates(uint32_t num_states) {
  transitions_.reserve(num_states);
  epsilon_.reserve(num_states);
  accepting_.reserve(num_states);
}

void Nfa::ReserveTransitions(StateId s, size_t count) {
  RPQ_DCHECK(s < num_states());
  transitions_[s].reserve(count);
}

void Nfa::AddTransition(StateId from, Symbol symbol, StateId to) {
  RPQ_DCHECK(from < num_states());
  RPQ_DCHECK(to < num_states());
  RPQ_DCHECK(symbol < num_symbols_);
  transitions_[from].emplace_back(symbol, to);
}

void Nfa::AddEpsilonTransition(StateId from, StateId to) {
  RPQ_DCHECK(from < num_states());
  RPQ_DCHECK(to < num_states());
  epsilon_[from].push_back(to);
  has_epsilon_ = true;
}

void Nfa::AddInitial(StateId s) {
  RPQ_DCHECK(s < num_states());
  initial_.push_back(s);
}

void Nfa::InsertInitial(StateId s) {
  RPQ_DCHECK(s < num_states());
  auto it = std::lower_bound(initial_.begin(), initial_.end(), s);
  if (it == initial_.end() || *it != s) initial_.insert(it, s);
}

void Nfa::SetAccepting(StateId s, bool accepting) {
  RPQ_DCHECK(s < num_states());
  accepting_[s] = accepting;
}

void Nfa::Finalize() {
  for (auto& list : transitions_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  for (auto& list : epsilon_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  std::sort(initial_.begin(), initial_.end());
  initial_.erase(std::unique(initial_.begin(), initial_.end()),
                 initial_.end());
}

std::vector<StateId> Nfa::EpsilonClosure(std::vector<StateId> states) const {
  if (!has_epsilon_) return states;
  std::vector<StateId> stack = states;
  std::vector<bool> seen(num_states(), false);
  for (StateId s : states) seen[s] = true;
  while (!stack.empty()) {
    StateId s = stack.back();
    stack.pop_back();
    for (StateId t : epsilon_[s]) {
      if (!seen[t]) {
        seen[t] = true;
        states.push_back(t);
        stack.push_back(t);
      }
    }
  }
  std::sort(states.begin(), states.end());
  return states;
}

std::vector<StateId> Nfa::Step(const std::vector<StateId>& states,
                               Symbol symbol) const {
  std::vector<StateId> next;
  for (StateId s : states) {
    // Transition lists are sorted by symbol after Finalize(); a linear scan
    // is still fine (and correct) either way.
    for (const auto& [a, t] : transitions_[s]) {
      if (a == symbol) next.push_back(t);
    }
  }
  std::sort(next.begin(), next.end());
  next.erase(std::unique(next.begin(), next.end()), next.end());
  return EpsilonClosure(std::move(next));
}

bool Nfa::ContainsAccepting(const std::vector<StateId>& states) const {
  for (StateId s : states) {
    if (accepting_[s]) return true;
  }
  return false;
}

bool Nfa::Accepts(const Word& word) const {
  std::vector<StateId> current = initial_;
  std::sort(current.begin(), current.end());
  current = EpsilonClosure(std::move(current));
  for (Symbol a : word) {
    if (current.empty()) return false;
    current = Step(current, a);
  }
  return ContainsAccepting(current);
}

size_t Nfa::NumTransitions() const {
  size_t total = 0;
  for (const auto& list : transitions_) total += list.size();
  return total;
}

}  // namespace rpqlearn
