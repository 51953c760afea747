#include "learn/coverage.h"

#include <algorithm>

#include "util/logging.h"

namespace rpqlearn {
namespace {

/// The subsets of one build, back to back: subset `s` is
/// members[offsets[s] .. offsets[s + 1]), duplicate-free and unordered.
struct SubsetArena {
  std::vector<StateId> members;
  std::vector<size_t> offsets{0};

  StateId size() const { return static_cast<StateId>(offsets.size() - 1); }
  const StateId* begin(StateId s) const {
    return members.data() + offsets[s];
  }
  const StateId* end(StateId s) const {
    return members.data() + offsets[s + 1];
  }
  void Append(const std::vector<StateId>& subset) {
    members.insert(members.end(), subset.begin(), subset.end());
    offsets.push_back(members.size());
  }
};

/// Order-independent hash of a duplicate-free subset: the sum of its
/// members, each mixed by the splitmix64 finalizer.
size_t SubsetHash(const std::vector<StateId>& subset) {
  uint64_t h = subset.size();
  for (StateId m : subset) {
    uint64_t x = m + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    h += x ^ (x >> 31);
  }
  return h;
}

/// Open-addressing hash set of the subset ids 0, 1, 2, ... (linear probing,
/// at most half full). It stores ids and their hashes only; the caller
/// decides equality against the subsets in the arena.
class SubsetIndex {
 public:
  SubsetIndex() : slots_(64, kNoState) {}

  /// Returns an added id with hash `h` for which `same(id)` holds; if there
  /// is none, adds the next id with hash `h` and returns it.
  template <typename Same>
  StateId FindOrAdd(size_t h, const Same& same) {
    if (2 * (hashes_.size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const StateId s = slots_[i];
      if (s == kNoState) {
        slots_[i] = static_cast<StateId>(hashes_.size());
        hashes_.push_back(h);
        return slots_[i];
      }
      if (hashes_[s] == h && same(s)) return s;
    }
  }

 private:
  void Grow() {
    std::vector<StateId> slots(2 * slots_.size(), kNoState);
    const size_t mask = slots.size() - 1;
    for (StateId s = 0; s < hashes_.size(); ++s) {
      size_t i = hashes_[s] & mask;
      while (slots[i] != kNoState) i = (i + 1) & mask;
      slots[i] = s;
    }
    slots_ = std::move(slots);
  }

  std::vector<StateId> slots_;  ///< kNoState = free; power-of-two size
  std::vector<size_t> hashes_;  ///< hash of each added id
};

Status CapExceeded() {
  return Status::ResourceExhausted("subset coverage exceeded state cap");
}

}  // namespace

StatusOr<SubsetCoverage> SubsetCoverage::Build(const Nfa& nfa,
                                               const Options& options) {
  RPQ_CHECK(!nfa.has_epsilon_transitions())
      << "SubsetCoverage requires an ε-free NFA";
  SubsetCoverage cov;
  cov.k_ = options.k;
  cov.num_symbols_ = nfa.num_symbols();

  // Ids are assigned in BFS order whatever the lookup structure, so the
  // automaton and the point where max_states trips do not depend on it.
  // The subsets live in `arena` for this build only.
  SubsetArena arena;
  SubsetIndex ids;
  // The candidate subset's members are the NFA states stamped with the
  // current generation, so equality with an interned subset is a size test
  // plus one stamp read per member, and no subset needs sorting.
  std::vector<uint32_t> stamp(nfa.num_states(), 0);
  uint32_t generation = 0;
  // Drops repeated members from `subset` and stamps the rest.
  auto make_candidate = [&](std::vector<StateId>* subset) {
    if (++generation == 0) {  // wrapped: old stamps would read as current
      std::fill(stamp.begin(), stamp.end(), 0);
      generation = 1;
    }
    size_t kept = 0;
    for (StateId m : *subset) {
      if (stamp[m] != generation) {
        stamp[m] = generation;
        (*subset)[kept++] = m;
      }
    }
    subset->resize(kept);
  };
  // Interns the candidate `subset`, first reached at `depth`. Returns
  // kNoState when a new state would pass max_states.
  auto intern = [&](const std::vector<StateId>& subset,
                    uint32_t depth) -> StateId {
    const StateId id = ids.FindOrAdd(SubsetHash(subset), [&](StateId s) {
      return static_cast<size_t>(arena.end(s) - arena.begin(s)) ==
                 subset.size() &&
             std::all_of(arena.begin(s), arena.end(s), [&](StateId m) {
               return stamp[m] == generation;
             });
    });
    if (id < arena.size()) return id;
    if (id >= options.max_states) return kNoState;
    arena.Append(subset);
    cov.covering_.push_back(nfa.ContainsAccepting(subset));
    cov.depth_.push_back(depth);
    return id;
  };

  // State 0: the empty subset, self-looping on every symbol.
  if (intern({}, 0) == kNoState) return CapExceeded();
  cov.table_.assign(cov.num_symbols_, 0);

  std::vector<StateId> start = nfa.initial_states();
  make_candidate(&start);
  if (!start.empty()) {
    cov.initial_ = intern(start, 0);
    if (cov.initial_ == kNoState) return CapExceeded();
  }

  // Ids follow BFS order, so the BFS queue is the id range after state 0,
  // and the states below depth k, the ones with a table row, are a prefix.
  std::vector<std::vector<StateId>> buckets(cov.num_symbols_);
  for (StateId current = 1; current < arena.size(); ++current) {
    if (cov.depth_[current] >= cov.k_) break;  // so are all later states
    cov.table_.resize(static_cast<size_t>(current + 1) * cov.num_symbols_);
    for (auto& bucket : buckets) bucket.clear();
    for (const StateId* m = arena.begin(current); m != arena.end(current);
         ++m) {
      for (const auto& [a, t] : nfa.TransitionsFrom(*m)) {
        buckets[a].push_back(t);
      }
    }
    for (Symbol a = 0; a < cov.num_symbols_; ++a) {
      std::vector<StateId>& next = buckets[a];
      StateId target = 0;  // the empty subset
      if (!next.empty()) {
        make_candidate(&next);
        target = intern(next, cov.depth_[current] + 1);
        if (target == kNoState) return CapExceeded();
      }
      cov.table_[static_cast<size_t>(current) * cov.num_symbols_ + a] =
          target;
    }
  }
  return cov;
}

StateId SubsetCoverage::Next(StateId s, Symbol a) const {
  RPQ_DCHECK(s < num_states());
  RPQ_DCHECK(a < num_symbols_);
  const size_t index = static_cast<size_t>(s) * num_symbols_ + a;
  RPQ_CHECK(index < table_.size())
      << "SubsetCoverage::Next queried beyond truncation depth k=" << k_;
  return table_[index];
}

}  // namespace rpqlearn
