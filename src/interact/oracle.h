#ifndef RPQLEARN_INTERACT_ORACLE_H_
#define RPQLEARN_INTERACT_ORACLE_H_

#include <utility>

#include "automata/dfa.h"
#include "graph/graph.h"
#include "query/eval.h"
#include "util/bit_vector.h"
#include "util/logging.h"

namespace rpqlearn {

/// Simulated user of the interactive scenario (Sec. 4.1 / Sec. 5.3): labels
/// a node positively iff the goal query selects it. The experiments assume
/// the user labels consistently with a goal query; this class is that
/// assumption made executable.
class Oracle {
 public:
  /// From a precomputed goal result set.
  explicit Oracle(BitVector goal) : goal_(std::move(goal)) {}

  /// Evaluates the goal query on the graph once and labels from the result.
  /// `eval` selects the evaluation knobs (threads, parallel threshold,
  /// ExecContext); invalid options abort (the simulated user is
  /// experiment harness code, not a fallible API).
  static Oracle FromQuery(const Graph& graph, const Dfa& goal_query,
                          const EvalOptions& eval = {}) {
    StatusOr<Oracle> oracle = TryFromQuery(graph, goal_query, eval);
    RPQ_CHECK(oracle.ok()) << oracle.status().ToString();
    return *std::move(oracle);
  }

  /// Fallible variant of FromQuery for callers that carry an ExecContext in
  /// `eval` (or otherwise expect evaluation to fail): the goal evaluation's
  /// trip Status propagates instead of aborting the process.
  static StatusOr<Oracle> TryFromQuery(const Graph& graph,
                                       const Dfa& goal_query,
                                       const EvalOptions& eval = {}) {
    StatusOr<BitVector> goal = EvalMonadic(graph, goal_query, eval);
    if (!goal.ok()) return goal.status();
    return Oracle(*std::move(goal));
  }

  /// The user's answer for node `v`: true = positive example.
  bool Label(NodeId v) const { return goal_.Test(v); }

  /// The full goal result set (used by the halt condition F1 = 1).
  const BitVector& goal() const { return goal_; }

 private:
  BitVector goal_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_INTERACT_ORACLE_H_
