#ifndef RPQLEARN_AUTOMATA_DFA_CSR_H_
#define RPQLEARN_AUTOMATA_DFA_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "automata/dfa.h"

namespace rpqlearn {

/// Frozen, evaluation-oriented snapshot of a Dfa: the forward transition
/// function as one flat `states × symbols` array plus a CSR reverse-transition
/// index (`Sources(a, t)` = all s with δ(s, a) = t). Built once per evaluation
/// call; the product-BFS inner loops of eval.cc read it with no per-lookup
/// indirection or allocation.
class FrozenDfa {
 public:
  explicit FrozenDfa(const Dfa& dfa);

  uint32_t num_states() const { return num_states_; }
  uint32_t num_symbols() const { return num_symbols_; }
  StateId initial_state() const { return initial_; }

  StateId Next(StateId from, Symbol symbol) const {
    return next_[static_cast<size_t>(from) * num_symbols_ + symbol];
  }
  bool IsAccepting(StateId s) const { return accepting_[s] != 0; }

  /// All states s with `s --symbol--> target`, ascending.
  std::span<const StateId> Sources(Symbol symbol, StateId target) const {
    const size_t cell = static_cast<size_t>(symbol) * num_states_ + target;
    return {rev_sources_.data() + rev_offsets_[cell],
            rev_offsets_[cell + 1] - rev_offsets_[cell]};
  }

  /// One non-empty reverse cell of a target state: the symbol plus the
  /// [begin, end) range of `Sources(symbol, target)` inside the flat source
  /// array. Offsets instead of spans, because spans into this object's own
  /// rev_sources_ would dangle after a copy or move.
  struct ReverseEntry {
    Symbol symbol;
    uint32_t begin;
    uint32_t end;
  };

  /// The non-empty reverse cells of `target`, symbol-ascending: exactly the
  /// (symbol, sources) pairs that can advance a backward product step into
  /// `target`. Empty cells never appear, so traversal loops skip
  /// symbols that cannot fire without probing them.
  std::span<const ReverseEntry> ReverseInto(StateId target) const {
    return {rev_entries_.data() + rev_entry_offsets_[target],
            rev_entry_offsets_[target + 1] - rev_entry_offsets_[target]};
  }

  /// The source span of one ReverseEntry.
  std::span<const StateId> EntrySources(const ReverseEntry& entry) const {
    return {rev_sources_.data() + entry.begin,
            static_cast<size_t>(entry.end - entry.begin)};
  }

 private:
  uint32_t num_states_;
  uint32_t num_symbols_;
  StateId initial_;
  std::vector<StateId> next_;       // num_states × num_symbols
  std::vector<uint8_t> accepting_;  // flat bool, avoids vector<bool> bit ops
  std::vector<uint32_t> rev_offsets_;  // num_symbols × num_states + 1
  std::vector<StateId> rev_sources_;   // grouped by (symbol, target)
  std::vector<uint32_t> rev_entry_offsets_;  // num_states + 1
  std::vector<ReverseEntry> rev_entries_;    // non-empty cells per target
};

}  // namespace rpqlearn

#endif  // RPQLEARN_AUTOMATA_DFA_CSR_H_
