#include "learn/incremental.h"

#include <set>

#include "automata/minimize.h"
#include "automata/prefix_free.h"
#include "graph/graph_nfa.h"
#include "learn/scp.h"
#include "util/exec_context.h"

namespace rpqlearn {

IncrementalLearner::IncrementalLearner(const Graph& graph,
                                       LearnerOptions options)
    : graph_(graph),
      options_(options),
      graph_nfa_(GraphToNfa(graph, {})),
      negative_nfa_(GraphToNfa(graph, {})) {}

void IncrementalLearner::AddPositive(NodeId v) { sample_.AddPositive(v); }

void IncrementalLearner::AddNegative(NodeId v) {
  sample_.AddNegative(v);
  // The graph part of the NFA never changes; only its initial set grows.
  negative_nfa_.InsertInitial(v);
  // Coverage automata are stale now; RefreshCoverage rebuilds lazily and
  // revalidates cached SCPs against the new coverage.
}

void IncrementalLearner::RefreshCoverage(uint32_t k, KState* state) {
  if (state->coverage.has_value() &&
      state->built_for_negatives == sample_.negative.size()) {
    return;
  }
  SubsetCoverage::Options cov_options;
  cov_options.k = k;
  cov_options.max_states = options_.coverage_state_cap;
  StatusOr<SubsetCoverage> built =
      SubsetCoverage::Build(negative_nfa_, cov_options);
  state->built_for_negatives = sample_.negative.size();
  if (!built.ok()) {
    state->coverage.reset();
    state->exhausted = true;
    return;
  }
  state->exhausted = false;
  const bool had_coverage = state->coverage.has_value();
  state->coverage.emplace(std::move(built).value());

  // Revalidate cached SCPs: a word that is still uncovered is still the
  // SCP; a nullopt stays nullopt (the uncovered set only shrank). Covered
  // words are dropped and recomputed on demand.
  if (had_coverage) {
    for (auto it = state->scp.begin(); it != state->scp.end();) {
      bool keep = true;
      if (it->second.has_value()) {
        StateId s = state->coverage->initial();
        for (Symbol a : *it->second) s = state->coverage->Next(s, a);
        keep = !state->coverage->IsCovering(s);
      }
      it = keep ? std::next(it) : state->scp.erase(it);
    }
  } else {
    state->scp.clear();
  }
}

const SubsetCoverage* IncrementalLearner::CoverageAtK(uint32_t k) {
  KState& state = per_k_[k];
  RefreshCoverage(k, &state);
  return state.coverage.has_value() ? &*state.coverage : nullptr;
}

bool IncrementalLearner::MemoHolds(const KState::Memo& memo,
                                   const std::vector<Word>& words) const {
  if (memo.words != words) return false;
  for (size_t i = memo.negatives_checked; i < sample_.negative.size(); ++i) {
    if (memo.result.selected.Test(sample_.negative[i])) return false;
  }
  return true;
}

LearnOutcome IncrementalLearner::LearnAtK(uint32_t k) {
  LearnOutcome outcome;
  outcome.stats.k_used = k;

  KState& state = per_k_[k];
  RefreshCoverage(k, &state);
  if (!state.coverage.has_value()) return outcome;  // abstain

  std::set<Word, CanonicalWordLess> scp_words;
  for (NodeId v : sample_.positive) {
    auto it = state.scp.find(v);
    if (it == state.scp.end()) {
      StatusOr<ScpResult> scp = SmallestConsistentPath(
          graph_nfa_, {v}, *state.coverage, options_.scp_expansion_cap);
      if (!scp.ok()) return outcome;  // abstain
      it = state.scp.emplace(v, scp->path).first;
    }
    if (it->second.has_value()) {
      ++outcome.stats.positives_with_scp;
      scp_words.insert(*it->second);
    }
  }
  outcome.stats.num_scps = scp_words.size();

  auto record = [&outcome](const Generalization& gen) {
    outcome.stats.pta_states = gen.pta_states;
    outcome.stats.merges_attempted = gen.merges_attempted;
    outcome.stats.merges_accepted = gen.merges_accepted;
  };

  std::vector<Word> words(scp_words.begin(), scp_words.end());
  if (!state.memo.has_value() || !MemoHolds(*state.memo, words)) {
    state.memo.reset();
    Generalization fresh =
        GeneralizeAndEvaluate(graph_, words, negative_nfa_, options_);
    if (!fresh.status.ok()) {  // a trip or an evaluation error: no memo
      record(fresh);
      outcome.status = fresh.status;
      return outcome;
    }
    state.memo.emplace(
        KState::Memo{std::move(words), std::move(fresh), 0, std::nullopt});
  } else if (options_.exec != nullptr && options_.exec->tripped()) {
    // A reuse polls no checkpoint; report a trip as the fresh path would.
    outcome.status = options_.exec->TripStatus();
    return outcome;
  }

  KState::Memo& memo = *state.memo;
  memo.negatives_checked = sample_.negative.size();
  record(memo.result);
  if (!SelectionIsConsistent(memo.result.selected, sample_)) return outcome;
  if (!memo.query.has_value()) {
    memo.query = MakePrefixFree(Canonicalize(memo.result.hypothesis));
  }
  outcome.is_null = false;
  outcome.query = *memo.query;
  return outcome;
}

LearnOutcome IncrementalLearner::Learn() {
  uint32_t final_k =
      options_.auto_k ? std::max(options_.max_k, options_.k) : options_.k;
  LearnOutcome last;
  for (uint32_t k = options_.k; k <= final_k; ++k) {
    last = LearnAtK(k);
    if (!last.is_null || !last.status.ok()) return last;
  }
  return last;
}

}  // namespace rpqlearn
