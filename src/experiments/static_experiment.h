#ifndef RPQLEARN_EXPERIMENTS_STATIC_EXPERIMENT_H_
#define RPQLEARN_EXPERIMENTS_STATIC_EXPERIMENT_H_

#include <vector>

#include "automata/dfa.h"
#include "graph/graph.h"
#include "learn/learner.h"
#include "query/eval.h"
#include "util/status.h"

namespace rpqlearn {

/// One point of the static-experiment curves (Figs. 11 and 12): randomly
/// label a fraction of the nodes consistently with the goal query, learn,
/// and score the learned query as a classifier against the goal.
struct StaticPoint {
  double label_fraction = 0.0;
  double f1_mean = 0.0;
  double time_mean_seconds = 0.0;
  double abstain_rate = 0.0;  ///< fraction of trials where learner was null
  uint32_t max_k_used = 0;
};

/// Configuration of a sweep over label fractions.
struct StaticSweepOptions {
  std::vector<double> fractions = {0.005, 0.01, 0.02, 0.05,
                                   0.07,  0.10, 0.15, 0.20};
  int trials = 3;
  uint64_t seed = 1;
  LearnerOptions learner;
  /// Evaluation knobs (thread count, direction-optimizing mode/threshold,
  /// condensation policy) for scoring learned queries against the goal.
  /// An ExecContext in `eval.exec` governs the whole sweep (it is also
  /// handed to the learner when `learner.exec` is unset); its trip Status —
  /// like any evaluation failure — propagates out of the sweep instead of
  /// aborting the process.
  EvalOptions eval;
};

/// Runs the Sec. 5.2 static experiment for one goal query. Returns the trip
/// or validation Status when an evaluation or learner run fails mid-sweep.
StatusOr<std::vector<StaticPoint>> RunStaticSweep(
    const Graph& graph, const Dfa& goal, const StaticSweepOptions& options);

/// The "labels needed for F1 = 1 without interactions" column of Table 2:
/// grows the random labeled fraction by `step` until the learned query
/// reaches F1 = 1; returns the fraction (or max_fraction if never reached).
/// Shares RunStaticSweep's failure contract.
StatusOr<double> LabelsNeededForPerfectF1(const Graph& graph, const Dfa& goal,
                                          double step, double max_fraction,
                                          uint64_t seed,
                                          const LearnerOptions& learner,
                                          const EvalOptions& eval = {});

}  // namespace rpqlearn

#endif  // RPQLEARN_EXPERIMENTS_STATIC_EXPERIMENT_H_
