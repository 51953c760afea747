#ifndef RPQLEARN_LEARN_LEARNER_H_
#define RPQLEARN_LEARN_LEARNER_H_

#include <vector>

#include "automata/dfa.h"
#include "automata/nfa.h"
#include "automata/word.h"
#include "graph/graph.h"
#include "learn/sample.h"
#include "util/bit_vector.h"
#include "util/status.h"

namespace rpqlearn {

class ExecContext;

/// Knobs of the paper's Algorithm 1 plus the dynamic-k policy of Sec. 5.1.
struct LearnerOptions {
  /// Initial maximal SCP length (the paper starts at 2 in experiments).
  uint32_t k = 2;
  /// If true, increment k while the learned query misses positives
  /// (Sec. 5.1: "if ... does not select all positive nodes, we increment k
  /// and iterate"); if false, use exactly `k` as in Algorithm 1.
  bool auto_k = true;
  /// Upper bound for the dynamic-k loop. Theorem 3.5 needs k = 2n+1 for
  /// queries of size n; the paper observes 2–4 suffices in practice.
  uint32_t max_k = 8;
  /// Ablation switch: when false, skip generalization and return the plain
  /// disjunction of SCPs (the PTA), as discussed in Sec. 5.2.
  bool generalize = true;
  /// Resource caps; hitting them makes the learner abstain.
  size_t coverage_state_cap = 1 << 20;
  size_t scp_expansion_cap = 4000000;
  /// Optional cooperative execution control: checkpointed once per RPNI
  /// merge trial and threaded into the hypothesis evaluation. A trip makes
  /// the learner abstain with `LearnOutcome.status` carrying the typed trip
  /// Status; null (the default) keeps the learner uninterruptible. Must
  /// outlive the learner call; not owned.
  ExecContext* exec = nullptr;
};

/// Diagnostics of one learner invocation.
struct LearnerStats {
  uint32_t k_used = 0;
  size_t num_scps = 0;            ///< distinct SCP words found
  size_t positives_with_scp = 0;  ///< positives that had an SCP within k
  size_t pta_states = 0;
  /// Merge trials of the RPNI run that produced the hypothesis. When
  /// IncrementalLearner reuses an earlier generalization, these are that
  /// run's counts, so they do not depend on whether the run was repeated.
  size_t merges_attempted = 0;
  size_t merges_accepted = 0;
};

/// Outcome of learning: either a query or the paper's `null` (abstain).
struct LearnOutcome {
  /// True when the learner abstained (no consistent query constructible
  /// from SCPs of length ≤ k, or a resource cap was hit).
  bool is_null = true;
  /// The learned query as a canonical prefix-free DFA; only meaningful when
  /// !is_null. Guaranteed consistent with the input sample.
  Dfa query{0};
  LearnerStats stats;
  /// Ok for a normal outcome (learned or organic abstain). A non-Ok status
  /// means LearnerOptions.exec tripped mid-learn (deadline, cancellation,
  /// memory budget, or injected fault): is_null is true and the partial
  /// hypothesis was discarded.
  Status status = Status::Ok();
};

/// Lines 3–5 of Algorithm 1 on one set of SCP words, plus the evaluation
/// that lines 6–7 test: the PTA of the words, generalized by RPNI while
/// L(A) ∩ paths_G(S−) = ∅, and the nodes the result selects.
struct Generalization {
  /// Non-Ok when LearnerOptions.exec tripped (the partially generalized
  /// hypothesis is discarded) or the evaluation failed; `hypothesis` and
  /// `selected` are then meaningless.
  Status status = Status::Ok();
  Dfa hypothesis{0};   ///< RPNI's output, before canonicalization
  BitVector selected;  ///< EvalMonadic(graph, hypothesis)
  size_t pta_states = 0;
  size_t merges_attempted = 0;
  size_t merges_accepted = 0;
};

/// Runs lines 3–5 of Algorithm 1 on `words` (canonically sorted, distinct)
/// against `negative_nfa` (the graph NFA with initial set S−) and evaluates
/// the hypothesis on `graph`. The one generalization step of both
/// LearnPathQuery and IncrementalLearner.
Generalization GeneralizeAndEvaluate(const Graph& graph,
                                     const std::vector<Word>& words,
                                     const Nfa& negative_nfa,
                                     const LearnerOptions& options);

/// Lines 6–7 of Algorithm 1: true iff `selected` holds every positive node of
/// `sample` (not only those whose SCPs built the PTA) and no negative one
/// (guaranteed by construction, cheap to verify).
bool SelectionIsConsistent(const BitVector& selected, const Sample& sample);

/// The paper's Algorithm 1 (monadic semantics): select the smallest
/// consistent path of length ≤ k for every positive node, build their PTA,
/// generalize by state merging while no negative node is covered, and
/// return the query iff it selects every positive node; otherwise abstain.
/// Runs in polynomial time for fixed k (Thm. 3.5).
LearnOutcome LearnPathQuery(const Graph& graph, const Sample& sample,
                            const LearnerOptions& options = {});

}  // namespace rpqlearn

#endif  // RPQLEARN_LEARN_LEARNER_H_
