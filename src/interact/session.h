#ifndef RPQLEARN_INTERACT_SESSION_H_
#define RPQLEARN_INTERACT_SESSION_H_

#include <vector>

#include "automata/dfa.h"
#include "graph/graph.h"
#include "interact/oracle.h"
#include "interact/strategy.h"
#include "learn/learner.h"
#include "learn/sample.h"
#include "util/status.h"

namespace rpqlearn {

/// Knobs of the interactive scenario (Fig. 9 of the paper).
struct SessionOptions {
  StrategyKind strategy = StrategyKind::kRandom;
  /// Dynamic k (Sec. 5.1): start at k_start; when no unlabeled node is
  /// k-informative, increase k up to k_max before halting.
  uint32_t k_start = 2;
  uint32_t k_max = 8;
  /// Safety bound on the number of interactions.
  size_t max_interactions = 100000;
  /// Learner configuration used after every label.
  LearnerOptions learner;
  /// Evaluation knobs (thread count, direction mode, condensation policy)
  /// for the per-interaction F1 scoring. When `eval.exec` is set,
  /// the same ExecContext governs the whole session: one checkpoint per
  /// interaction, plus the finer-grained checkpoints inside every learner
  /// rerun and evaluation. A trip halts the session cleanly with the typed
  /// Status in SessionResult.status and whatever query was learned so far.
  EvalOptions eval;
  /// Seed for the strategy's randomness.
  uint64_t seed = 1;
  /// Run the learner (and the F1-halt test) only every `learn_every`
  /// interactions; 1 = the paper's loop.
  size_t learn_every = 1;
};

/// One user interaction (steps 3–6 of Fig. 9).
struct InteractionRecord {
  NodeId node = 0;
  bool positive = false;
  /// Wall time to choose the node, query the user, and relearn.
  double seconds = 0.0;
  /// F1 of the learned query vs the goal after this interaction (-1 when
  /// the learner abstained or was skipped this round).
  double f1 = -1.0;
};

/// Result of a full interactive session.
struct SessionResult {
  std::vector<InteractionRecord> interactions;
  /// Last non-null learned query (empty-language DFA if always null).
  Dfa final_query{0};
  /// True iff the halt condition "learned query selects exactly the goal
  /// set" (F1 = 1) was reached.
  bool reached_goal = false;
  /// Final k in use when the session stopped.
  uint32_t final_k = 0;
  /// Fraction of graph nodes labeled.
  double label_fraction = 0.0;
  /// Ok for a normal halt (goal reached, no informative node, or the
  /// interaction budget). Carries the typed trip Status when
  /// SessionOptions.eval.exec tripped mid-session; interactions recorded
  /// before the trip are kept.
  Status status = Status::Ok();
};

/// Runs the interactive scenario: starting from an empty sample, repeatedly
/// pick a k-informative node by the strategy, ask the oracle for its label,
/// relearn, and stop when the learned query is indistinguishable from the
/// goal on the graph (F1 = 1), no informative node remains at k_max, or the
/// interaction budget is exhausted.
SessionResult RunInteractiveSession(const Graph& graph, const Oracle& oracle,
                                    const SessionOptions& options);

}  // namespace rpqlearn

#endif  // RPQLEARN_INTERACT_SESSION_H_
