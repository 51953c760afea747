#include "learn/coverage.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "util/logging.h"

namespace rpqlearn {
namespace {

/// Hash of a sorted NFA-state subset (boost-style hash_combine of the ids).
struct SubsetHash {
  size_t operator()(const std::vector<StateId>& subset) const {
    size_t h = subset.size();
    for (StateId s : subset) {
      h ^= s + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
  }
};

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
  std::unordered_map<std::vector<StateId>, StateId, SubsetHash> ids;
  auto add_state = [&](std::vector<StateId> subset,
                       uint32_t depth) -> StateId {
    StateId id = static_cast<StateId>(cov.subsets_.size());
    cov.covering_.push_back(nfa.ContainsAccepting(subset));
    cov.depth_.push_back(depth);
    cov.table_.insert(cov.table_.end(), cov.num_symbols_, kNoState);
    ids.emplace(subset, id);
    cov.subsets_.push_back(std::move(subset));
    return id;
  };

  // State 0: the empty subset, self-looping on every symbol.
  add_state({}, 0);
  for (Symbol a = 0; a < cov.num_symbols_; ++a) {
    cov.table_[a] = 0;
  }

  std::vector<StateId> start = nfa.initial_states();
  std::sort(start.begin(), start.end());
  start.erase(std::unique(start.begin(), start.end()), start.end());
  std::deque<StateId> queue;
  if (start.empty()) {
    cov.initial_ = 0;
  } else {
    cov.initial_ = add_state(std::move(start), 0);
    queue.push_back(cov.initial_);
  }

  std::vector<std::vector<StateId>> buckets(cov.num_symbols_);
  while (!queue.empty()) {
    StateId current = queue.front();
    queue.pop_front();
    if (cov.depth_[current] >= cov.k_) continue;  // no transitions needed
    for (auto& bucket : buckets) bucket.clear();
    for (StateId member : cov.subsets_[current]) {
      for (const auto& [a, t] : nfa.TransitionsFrom(member)) {
        buckets[a].push_back(t);
      }
    }
    for (Symbol a = 0; a < cov.num_symbols_; ++a) {
      std::vector<StateId>& next = buckets[a];
      StateId target;
      if (next.empty()) {
        target = 0;
      } else {
        std::sort(next.begin(), next.end());
        next.erase(std::unique(next.begin(), next.end()), next.end());
        auto it = ids.find(next);
        if (it != ids.end()) {
          target = it->second;
        } else {
          if (cov.subsets_.size() >= options.max_states) {
            return Status::ResourceExhausted(
                "subset coverage exceeded state cap");
          }
          target = add_state(next, cov.depth_[current] + 1);
          queue.push_back(target);
        }
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
  StateId t = table_[static_cast<size_t>(s) * num_symbols_ + a];
  RPQ_CHECK(t != kNoState)
      << "SubsetCoverage::Next queried beyond truncation depth k=" << k_;
  return t;
}

}  // namespace rpqlearn
