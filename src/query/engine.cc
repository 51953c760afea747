#include "query/engine.h"

#include <algorithm>

#include "automata/minimize.h"
#include "graph/dynamic.h"
#include "query/path_query.h"

namespace rpqlearn {

// ---------------------------------------------------------------- QueryPlan

QueryPlan::QueryPlan(const Engine* engine, Dfa dfa)
    : engine_(engine),
      dfa_(std::move(dfa)),
      frozen_(dfa_),
      fingerprint_(DfaFingerprint(frozen_)) {}

StatusOr<MonadicNodes> QueryPlan::RunMonadic(ExecContext* exec) const {
  StatusOr<EvalOptions> options = engine_->PrepareRun(exec);
  if (!options.ok()) return options.status();

  std::lock_guard<std::mutex> lock(monadic_mutex_);
  if (monadic_ == nullptr) {
    // The retained materialization must never keep a per-request context:
    // Create() uses `exec` for this one build only (see build_exec).
    EvalOptions retained = *options;
    retained.exec = engine_->options_.eval.exec;
    StatusOr<std::unique_ptr<MaterializedMonadic>> created =
        MaterializedMonadic::Create(engine_->graph(), dfa_, retained,
                                    options->exec);
    if (!created.ok()) return created.status();
    monadic_ = std::move(*created);
    return monadic_->Results();
  }
  const uint64_t warm_before = monadic_->stats().warm_hits;
  StatusOr<MonadicNodes> nodes = monadic_->Results(options->exec);
  if (nodes.ok() && monadic_->stats().warm_hits != warm_before) {
    engine_->CountMonadicWarmHit();
  }
  return nodes;
}

StatusOr<std::vector<std::pair<NodeId, NodeId>>> QueryPlan::RunBinary(
    std::span<const NodeId> sources, ExecContext* exec) const {
  StatusOr<EvalOptions> options = engine_->PrepareRun(exec);
  if (!options.ok()) return options.status();
  return EvalBinaryFromSources(engine_->graph(), dfa_, sources, *options);
}

// ------------------------------------------------------------------- Engine

Engine::Engine(const Graph& graph, EngineOptions options)
    : graph_(&graph),
      options_(std::move(options)),
      validated_(ValidateEvalOptions(options_.eval)) {}

Engine::Engine(const DynamicGraph& dynamic, EngineOptions options)
    : Engine(dynamic.graph(), std::move(options)) {}

StatusOr<Engine::PlanPtr> Engine::Plan(const Dfa& query) const {
  if (!validated_.ok()) return validated_.status();
  if (query.num_symbols() > graph_->num_symbols()) {
    return Status::InvalidArgument(
        "query alphabet has " + std::to_string(query.num_symbols()) +
        " symbols but the graph has " + std::to_string(graph_->num_symbols()));
  }
  Dfa canonical = Canonicalize(query);
  const FrozenDfa frozen(canonical);
  const uint64_t fingerprint = DfaFingerprint(frozen);

  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < plans_.size(); ++i) {
    if (plans_[i]->fingerprint() != fingerprint ||
        !FrozenDfaStructurallyEqual(plans_[i]->frozen(), frozen)) {
      continue;
    }
    std::shared_ptr<QueryPlan> plan = plans_[i];
    plans_.erase(plans_.begin() + static_cast<std::ptrdiff_t>(i));
    plans_.insert(plans_.begin(), plan);
    ++counters_.plan_hits;
    return PlanPtr(plan);
  }

  ++counters_.plan_misses;
  std::shared_ptr<QueryPlan> plan(new QueryPlan(this, std::move(canonical)));
  if (options_.plan_cache_capacity > 0) {
    plans_.insert(plans_.begin(), plan);
    if (plans_.size() > options_.plan_cache_capacity) {
      plans_.pop_back();
      ++counters_.plan_evictions;
    }
  }
  return PlanPtr(plan);
}

StatusOr<Engine::PlanPtr> Engine::Plan(std::string_view regex) const {
  // Parse against a copy of the graph's alphabet: the width check rejects
  // labels the graph does not carry, and the copy keeps the interning local
  // (a rejected parse must not grow anything shared).
  Alphabet alphabet = graph_->alphabet();
  StatusOr<PathQuery> parsed =
      PathQuery::Parse(regex, &alphabet, graph_->num_symbols());
  if (!parsed.ok()) return parsed.status();
  return Plan(parsed->dfa());
}

EngineCounters Engine::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void Engine::CountMonadicWarmHit() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.monadic_warm_hits;
}

StatusOr<EvalOptions> Engine::PrepareRun(ExecContext* exec) const {
  if (!validated_.ok()) return validated_.status();
  EvalOptions options = *validated_;
  if (exec != nullptr) options.exec = exec;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.runs;
  }
  return options;
}

}  // namespace rpqlearn
