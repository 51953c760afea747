#ifndef RPQLEARN_EXPERIMENTS_INTERACTIVE_EXPERIMENT_H_
#define RPQLEARN_EXPERIMENTS_INTERACTIVE_EXPERIMENT_H_

#include <string>

#include "automata/dfa.h"
#include "graph/graph.h"
#include "interact/session.h"
#include "util/status.h"

namespace rpqlearn {

/// One row fragment of Table 2: an interactive run of a goal query with a
/// given strategy.
struct InteractiveSummary {
  std::string strategy;               ///< "kR" or "kS"
  size_t interactions = 0;            ///< labels provided
  double label_percent = 0.0;         ///< 100 · labels / |V|
  double mean_seconds = 0.0;          ///< mean time between interactions
  bool reached_goal = false;          ///< F1 = 1 achieved
  uint32_t final_k = 0;
};

/// Runs one interactive session against `goal` and summarizes it. `eval`
/// carries the evaluation knobs (thread count, parallel threshold) for the
/// oracle's goal set and every per-interaction F1 scoring pass. An ExecContext in `eval.exec` bounds the whole run; its
/// trip Status (and any other evaluation failure) propagates instead of
/// aborting the process.
StatusOr<InteractiveSummary> RunInteractiveExperiment(
    const Graph& graph, const Dfa& goal, StrategyKind strategy, uint64_t seed,
    size_t max_interactions = 5000, const EvalOptions& eval = {});

}  // namespace rpqlearn

#endif  // RPQLEARN_EXPERIMENTS_INTERACTIVE_EXPERIMENT_H_
