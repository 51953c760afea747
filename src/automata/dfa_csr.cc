#include "automata/dfa_csr.h"

namespace rpqlearn {

FrozenDfa::FrozenDfa(const Dfa& dfa)
    : num_states_(dfa.num_states()),
      num_symbols_(dfa.num_symbols()),
      initial_(dfa.initial_state()) {
  const size_t cells = static_cast<size_t>(num_states_) * num_symbols_;
  next_.resize(cells);
  accepting_.resize(num_states_);
  for (StateId s = 0; s < num_states_; ++s) {
    accepting_[s] = dfa.IsAccepting(s) ? 1 : 0;
    for (Symbol a = 0; a < num_symbols_; ++a) {
      next_[static_cast<size_t>(s) * num_symbols_ + a] = dfa.Next(s, a);
    }
  }

  // Reverse index: counting sort of defined transitions by (symbol, target).
  rev_offsets_.assign(cells + 1, 0);
  for (StateId s = 0; s < num_states_; ++s) {
    for (Symbol a = 0; a < num_symbols_; ++a) {
      StateId t = next_[static_cast<size_t>(s) * num_symbols_ + a];
      if (t != kNoState) {
        ++rev_offsets_[static_cast<size_t>(a) * num_states_ + t + 1];
      }
    }
  }
  for (size_t i = 0; i < cells; ++i) rev_offsets_[i + 1] += rev_offsets_[i];
  rev_sources_.resize(rev_offsets_[cells]);
  std::vector<uint32_t> cursor(rev_offsets_.begin(), rev_offsets_.end() - 1);
  for (StateId s = 0; s < num_states_; ++s) {
    for (Symbol a = 0; a < num_symbols_; ++a) {
      StateId t = next_[static_cast<size_t>(s) * num_symbols_ + a];
      if (t != kNoState) {
        rev_sources_[cursor[static_cast<size_t>(a) * num_states_ + t]++] = s;
      }
    }
  }

  // Per-target list of non-empty reverse cells, symbol-ascending — the
  // iteration order of the backward monadic sweep (ReverseInto).
  rev_entry_offsets_.assign(num_states_ + 1, 0);
  for (StateId t = 0; t < num_states_; ++t) {
    rev_entry_offsets_[t + 1] = rev_entry_offsets_[t];
    for (Symbol a = 0; a < num_symbols_; ++a) {
      const size_t cell = static_cast<size_t>(a) * num_states_ + t;
      if (rev_offsets_[cell + 1] > rev_offsets_[cell]) {
        rev_entries_.push_back({a, rev_offsets_[cell], rev_offsets_[cell + 1]});
        ++rev_entry_offsets_[t + 1];
      }
    }
  }
}

}  // namespace rpqlearn
