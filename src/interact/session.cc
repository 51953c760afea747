#include "interact/session.h"

#include <optional>

#include "learn/incremental.h"
#include "query/engine.h"
#include "query/eval.h"
#include "query/metrics.h"
#include "util/exec_context.h"
#include "util/logging.h"
#include "util/timer.h"

namespace rpqlearn {

SessionResult RunInteractiveSession(const Graph& graph, const Oracle& oracle,
                                    const SessionOptions& options) {
  SessionResult result;
  Rng rng(options.seed);
  uint32_t k = options.k_start;
  bool have_query = false;

  // Engine facade for the per-interaction hypothesis evaluations. The
  // learner's hypotheses recur as labels arrive (a negative often sends it
  // back to an earlier query), and the session graph never mutates, so a
  // repeat hypothesis hits the engine's plan cache and is answered from the
  // plan's retained monadic fixed point without any sweep. The engine also
  // owns the graph-only evaluation structure the options may call for (the
  // per-label SCC condensation), building it lazily once instead of per
  // call. Results are bit-identical to EvalMonadic — plans and snapshots
  // are pure reuse.
  ExecContext* exec = options.eval.exec;
  EngineOptions engine_options;
  engine_options.eval = options.eval;
  Engine engine(graph, engine_options);

  // Incremental learner: SCPs and coverage automata are cached across
  // interactions and only revalidated when negatives arrive.
  LearnerOptions learner_options = options.learner;
  learner_options.auto_k = false;  // the session drives k itself (Sec. 5.1)
  learner_options.exec = exec;  // one context governs the whole session
  IncrementalLearner learner(graph, learner_options);

  // Reruns the learner at the current k; returns the F1 against the goal,
  // or -1 when the learner abstained. A trip anywhere inside (merge trials,
  // hypothesis evaluation, F1 scoring) lands in result.status, which the
  // interaction loop tests after every call.
  auto relearn = [&](uint32_t current_k) -> double {
    LearnOutcome outcome = learner.LearnAtK(current_k);
    if (!outcome.status.ok()) {
      result.status = outcome.status;
      return -1.0;
    }
    if (outcome.is_null) return -1.0;
    result.final_query = outcome.query;
    have_query = true;
    StatusOr<Engine::PlanPtr> plan = engine.Plan(result.final_query);
    if (!plan.ok()) {
      result.status = plan.status();
      return -1.0;
    }
    StatusOr<MonadicNodes> selected = (*plan)->RunMonadic();
    if (!selected.ok()) {
      result.status = selected.status();
      return -1.0;
    }
    return ComputeMetrics(**selected, oracle.goal()).f1;
  };

  while (result.interactions.size() < options.max_interactions) {
    // One checkpoint per interaction, on top of the finer-grained ones the
    // learner and evaluator run themselves.
    if (exec != nullptr && !exec->Checkpoint()) {
      result.status = exec->TripStatus();
      break;
    }
    WallTimer timer;

    // The coverage automaton at the session's k, shared between the
    // strategy and the learner.
    const SubsetCoverage* coverage = learner.CoverageAtK(k);
    if (coverage == nullptr) break;  // resource cap: halt with current query
    BitVector informative = ComputeKInformative(graph, *coverage);

    std::optional<NodeId> next =
        PickNextNode(graph, learner.sample(), *coverage, informative,
                     options.strategy, &rng);
    if (!next.has_value()) {
      // No k-informative node: increase k (Sec. 5.1) or halt. Relearning at
      // the larger k may already reach the goal (longer SCPs become
      // available) without any further label.
      if (k < options.k_max) {
        ++k;
        const double f1 = relearn(k);
        if (!result.status.ok()) break;
        if (f1 == 1.0) {
          result.reached_goal = true;
          break;
        }
        continue;
      }
      break;
    }

    InteractionRecord record;
    record.node = *next;
    record.positive = oracle.Label(*next);
    if (record.positive) {
      learner.AddPositive(*next);
    } else {
      learner.AddNegative(*next);
    }

    // Relearn from all labels (step 6 of Fig. 9).
    if (result.interactions.size() % options.learn_every == 0) {
      record.f1 = relearn(k);
    }

    record.seconds = timer.ElapsedSeconds();
    result.interactions.push_back(record);

    if (!result.status.ok()) break;  // tripped during this relearn
    if (record.f1 == 1.0) {
      result.reached_goal = true;
      break;
    }
  }

  result.final_k = k;
  result.label_fraction =
      graph.num_nodes() == 0
          ? 0.0
          : static_cast<double>(learner.sample().size()) / graph.num_nodes();
  if (!have_query) {
    // Represent "nothing learned" as the empty-language query.
    Dfa empty(graph.num_symbols());
    empty.AddState(false);
    result.final_query = empty;
  }
  return result;
}

}  // namespace rpqlearn
