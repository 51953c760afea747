#include "learn/binary.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "automata/minimize.h"
#include "automata/prefix_free.h"
#include "automata/pta.h"
#include "graph/graph_nfa.h"
#include "learn/coverage.h"
#include "learn/rpni.h"
#include "learn/scp.h"
#include "query/eval.h"
#include "util/exec_context.h"

namespace rpqlearn {
namespace {

LearnOutcome LearnBinaryWithFixedK(const Graph& graph,
                                   const PairSample& sample,
                                   const LearnerOptions& options,
                                   uint32_t k, const Nfa& negative_nfa) {
  LearnOutcome outcome;
  outcome.stats.k_used = k;

  SubsetCoverage::Options cov_options;
  cov_options.k = k;
  cov_options.max_states = options.coverage_state_cap;
  StatusOr<SubsetCoverage> coverage =
      SubsetCoverage::Build(negative_nfa, cov_options);
  if (!coverage.ok()) return outcome;

  std::set<Word, CanonicalWordLess> scp_words;
  for (const auto& [from, to] : sample.positive) {
    // Positive automaton: paths2_G(from, to) — acceptance at `to` only.
    Nfa positive = GraphToNfaBetween(graph, from, to);
    StatusOr<ScpResult> scp = SmallestConsistentPath(
        positive, {from}, coverage.value(), options.scp_expansion_cap);
    if (!scp.ok()) return outcome;
    if (scp->path.has_value()) {
      ++outcome.stats.positives_with_scp;
      scp_words.insert(*scp->path);
    }
  }
  outcome.stats.num_scps = scp_words.size();

  std::vector<Word> words(scp_words.begin(), scp_words.end());
  Dfa pta = BuildPta(words, graph.num_symbols());
  outcome.stats.pta_states = pta.num_states();

  Dfa hypothesis = pta;
  if (options.generalize && !words.empty()) {
    RpniStats rpni_stats;
    NfaDisjointnessOracle consistent(&negative_nfa);
    hypothesis = RpniGeneralizeOnPartition(pta, std::ref(consistent),
                                           &rpni_stats, options.exec);
    outcome.stats.merges_attempted = rpni_stats.merges_attempted;
    outcome.stats.merges_accepted = rpni_stats.merges_accepted;
    if (options.exec != nullptr && options.exec->tripped()) {
      outcome.status = options.exec->TripStatus();
      return outcome;
    }
  }

  // The consistency check: one binary evaluation over the sample's distinct
  // sources. Sorted distinct sources make the pair list sorted, so each
  // example is one binary search.
  std::vector<NodeId> sources;
  for (const auto& [from, to] : sample.positive) sources.push_back(from);
  for (const auto& [from, to] : sample.negative) sources.push_back(from);
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  EvalOptions eval;
  eval.exec = options.exec;
  StatusOr<std::vector<std::pair<NodeId, NodeId>>> selected =
      EvalBinaryFromSources(graph, hypothesis, sources, eval);
  if (!selected.ok()) {
    outcome.status = selected.status();
    return outcome;
  }
  const auto selects = [&selected](const std::pair<NodeId, NodeId>& pair) {
    return std::binary_search(selected->begin(), selected->end(), pair);
  };
  for (const auto& pair : sample.positive) {
    if (!selects(pair)) return outcome;
  }
  for (const auto& pair : sample.negative) {
    if (selects(pair)) return outcome;
  }

  outcome.is_null = false;
  // Unlike the monadic learner, do NOT reduce to the prefix-free form:
  // under binary semantics the destination node is fixed, so a query and
  // its prefix-free form select different pairs (prefix-freeness is only an
  // equivalence for the monadic semantics of Sec. 2).
  outcome.query = Canonicalize(hypothesis);
  return outcome;
}

}  // namespace

LearnOutcome LearnBinaryPathQuery(const Graph& graph,
                                  const PairSample& sample,
                                  const LearnerOptions& options) {
  Nfa negative_nfa = GraphToNfaPairs(graph, sample.negative);
  uint32_t final_k =
      options.auto_k ? std::max(options.max_k, options.k) : options.k;
  LearnOutcome last;
  for (uint32_t k = options.k; k <= final_k; ++k) {
    last = LearnBinaryWithFixedK(graph, sample, options, k, negative_nfa);
    if (!last.is_null || !last.status.ok()) return last;
  }
  return last;
}

}  // namespace rpqlearn
