#include "learn/learner.h"

#include <algorithm>
#include <set>

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

/// One pass of Algorithm 1 with a fixed k. Returns is_null on abstain.
LearnOutcome LearnWithFixedK(const Graph& graph, const Sample& sample,
                             const LearnerOptions& options, uint32_t k,
                             const Nfa& graph_nfa_all,
                             const Nfa& negative_nfa) {
  LearnOutcome outcome;
  outcome.stats.k_used = k;

  SubsetCoverage::Options cov_options;
  cov_options.k = k;
  cov_options.max_states = options.coverage_state_cap;
  StatusOr<SubsetCoverage> coverage =
      SubsetCoverage::Build(negative_nfa, cov_options);
  if (!coverage.ok()) return outcome;  // resource cap: abstain

  // Lines 1-2: the set P of smallest consistent paths, deduplicated. The
  // graph NFA is shared across positives; only the initial set varies.
  std::set<Word, CanonicalWordLess> scp_words;
  for (NodeId v : sample.positive) {
    StatusOr<ScpResult> scp =
        SmallestConsistentPath(graph_nfa_all, {v}, coverage.value(),
                               options.scp_expansion_cap);
    if (!scp.ok()) return outcome;  // expansion cap: abstain
    if (scp->path.has_value()) {
      ++outcome.stats.positives_with_scp;
      scp_words.insert(*scp->path);
    }
  }
  outcome.stats.num_scps = scp_words.size();

  // Lines 3-7.
  const Generalization gen = GeneralizeAndEvaluate(
      graph, std::vector<Word>(scp_words.begin(), scp_words.end()),
      negative_nfa, options);
  outcome.stats.pta_states = gen.pta_states;
  outcome.stats.merges_attempted = gen.merges_attempted;
  outcome.stats.merges_accepted = gen.merges_accepted;
  outcome.status = gen.status;
  if (!gen.status.ok() || !SelectionIsConsistent(gen.selected, sample)) {
    return outcome;  // tripped, or abstain
  }
  outcome.is_null = false;
  outcome.query = MakePrefixFree(Canonicalize(gen.hypothesis));
  return outcome;
}

}  // namespace

Generalization GeneralizeAndEvaluate(const Graph& graph,
                                     const std::vector<Word>& words,
                                     const Nfa& negative_nfa,
                                     const LearnerOptions& options) {
  Generalization gen;
  // Line 3: prefix tree acceptor of the SCPs.
  Dfa pta = BuildPta(words, graph.num_symbols());
  gen.pta_states = pta.num_states();

  // Lines 4-5: generalization by state merging while no negative node is
  // covered, i.e. while L(A) ∩ paths_G(S−) = ∅ (PTIME product emptiness),
  // decided on the zero-copy merge partition view.
  if (options.generalize && !words.empty()) {
    RpniStats rpni_stats;
    NfaDisjointnessOracle consistent(&negative_nfa);
    gen.hypothesis = RpniGeneralizeOnPartition(pta, std::ref(consistent),
                                               &rpni_stats, options.exec);
    gen.merges_attempted = rpni_stats.merges_attempted;
    gen.merges_accepted = rpni_stats.merges_accepted;
    if (options.exec != nullptr && options.exec->tripped()) {
      // Discard the partially generalized hypothesis: a half-merged query
      // is consistent but not the canonical result.
      gen.status = options.exec->TripStatus();
      return gen;
    }
  } else {
    gen.hypothesis = std::move(pta);
  }

  // Lines 6-7 test the nodes the hypothesis selects.
  EvalOptions eval;
  eval.exec = options.exec;
  StatusOr<BitVector> selected = EvalMonadic(graph, gen.hypothesis, eval);
  if (!selected.ok()) {
    gen.status = selected.status();
    return gen;
  }
  gen.selected = *std::move(selected);
  return gen;
}

bool SelectionIsConsistent(const BitVector& selected, const Sample& sample) {
  for (NodeId v : sample.positive) {
    if (!selected.Test(v)) return false;
  }
  for (NodeId v : sample.negative) {
    if (selected.Test(v)) return false;
  }
  return true;
}

LearnOutcome LearnPathQuery(const Graph& graph, const Sample& sample,
                            const LearnerOptions& options) {
  Nfa graph_nfa_all = GraphToNfa(graph, {});
  Nfa negative_nfa = GraphToNfa(graph, sample.negative);

  uint32_t final_k = options.auto_k ? std::max(options.max_k, options.k)
                                    : options.k;
  LearnOutcome last;
  for (uint32_t k = options.k; k <= final_k; ++k) {
    last = LearnWithFixedK(graph, sample, options, k, graph_nfa_all,
                           negative_nfa);
    if (!last.is_null || !last.status.ok()) return last;
  }
  return last;
}

}  // namespace rpqlearn
