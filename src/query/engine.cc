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

StatusOr<QueryResult> QueryPlan::Run(const QueryRequest& request) const {
  QueryResult result;
  result.semantics = request.semantics;
  switch (request.semantics) {
    case QueryRequest::Semantics::kMonadicNodes: {
      StatusOr<MonadicNodes> nodes = RunMonadic(request.exec);
      if (!nodes.ok()) return nodes.status();
      result.nodes = **nodes;
      return result;
    }
    case QueryRequest::Semantics::kMonadicBounded: {
      std::shared_ptr<const Engine::Snapshots> snapshots;
      StatusOr<EvalOptions> options = engine_->PrepareRun(request, &snapshots);
      if (!options.ok()) return options.status();
      StatusOr<BitVector> nodes = EvalMonadicBounded(
          engine_->graph(), dfa_, request.max_length, *options);
      if (!nodes.ok()) return nodes.status();
      result.nodes = *std::move(nodes);
      return result;
    }
    case QueryRequest::Semantics::kBinaryPairs: {
      std::shared_ptr<const Engine::Snapshots> snapshots;
      StatusOr<EvalOptions> options = engine_->PrepareRun(request, &snapshots);
      if (!options.ok()) return options.status();
      auto pairs = EvalBinary(engine_->graph(), dfa_, *options);
      if (!pairs.ok()) return pairs.status();
      result.pairs = *std::move(pairs);
      return result;
    }
    case QueryRequest::Semantics::kBinaryFromSources: {
      auto pairs = RunBinary(request.sources, request.exec);
      if (!pairs.ok()) return pairs.status();
      result.pairs = *std::move(pairs);
      return result;
    }
  }
  return Status::InvalidArgument("unknown QueryRequest semantics");
}

StatusOr<MonadicNodes> QueryPlan::RunMonadic(ExecContext* exec) const {
  QueryRequest request;
  request.exec = exec;
  std::shared_ptr<const Engine::Snapshots> snapshots;
  StatusOr<EvalOptions> options = engine_->PrepareRun(request, &snapshots);
  if (!options.ok()) return options.status();

  std::lock_guard<std::mutex> lock(monadic_mutex_);
  if (!engine_->options_.cache_monadic_results) {
    StatusOr<BitVector> nodes = EvalMonadic(engine_->graph(), dfa_, *options);
    if (!nodes.ok()) return nodes.status();
    // Moved out, not retained: the caller reads its result after this lock
    // is released, so concurrent cold runs must never share storage.
    return MonadicNodes(*std::move(nodes));
  }
  if (monadic_ == nullptr) {
    // The retained materialization must never keep a per-request context:
    // Create() uses `exec` for this one build only (see build_exec).
    EvalOptions retained = *options;
    retained.exec = engine_->options_.eval.exec;
    retained.condensed_cache = nullptr;  // materializations are snapshot-free
    StatusOr<std::unique_ptr<MaterializedMonadic>> created =
        MaterializedMonadic::Create(engine_->graph(), dfa_, retained,
                                    options->exec);
    if (!created.ok()) return created.status();
    monadic_ = std::move(*created);
    StatusOr<const BitVector*> built = monadic_->Results();
    if (!built.ok()) return built.status();  // unreachable: just built
    return MonadicNodes(*built);
  }
  const uint64_t warm_before = monadic_->stats().warm_hits;
  StatusOr<const BitVector*> nodes = monadic_->Results(options->exec);
  if (!nodes.ok()) return nodes.status();
  if (monadic_->stats().warm_hits != warm_before) {
    engine_->CountMonadicWarmHit();
  }
  return MonadicNodes(*nodes);
}

StatusOr<std::vector<std::pair<NodeId, NodeId>>> QueryPlan::RunBinary(
    std::span<const NodeId> sources, ExecContext* exec) const {
  QueryRequest request;
  request.exec = exec;
  std::shared_ptr<const Engine::Snapshots> snapshots;
  StatusOr<EvalOptions> options = engine_->PrepareRun(request, &snapshots);
  if (!options.ok()) return options.status();
  return EvalBinaryFromSources(engine_->graph(), dfa_, sources, *options);
}

StatusOr<std::vector<std::vector<std::pair<NodeId, NodeId>>>>
QueryPlan::RunBinaryBatch(std::span<const std::span<const NodeId>> source_groups,
                          ExecContext* exec) const {
  std::vector<NodeId> coalesced;
  size_t total = 0;
  for (const auto& group : source_groups) total += group.size();
  coalesced.reserve(total);
  for (const auto& group : source_groups) {
    coalesced.insert(coalesced.end(), group.begin(), group.end());
  }
  StatusOr<std::vector<std::pair<NodeId, NodeId>>> flat =
      RunBinary(coalesced, exec);
  if (!flat.ok()) return flat.status();

  // Split the flat input-order-grouped pair vector back per request group.
  // Occurrences of the same source all carry identical destination sets, so
  // each occurrence's group length is (pairs with that src) / (occurrences
  // of that src) — adjacent duplicate-source groups are sliced exactly.
  std::vector<uint32_t> occurrences(engine_->graph().num_nodes(), 0);
  std::vector<size_t> pair_counts(engine_->graph().num_nodes(), 0);
  for (NodeId src : coalesced) ++occurrences[src];
  for (const auto& [src, dst] : *flat) ++pair_counts[src];

  std::vector<std::vector<std::pair<NodeId, NodeId>>> split;
  split.reserve(source_groups.size());
  size_t cursor = 0;
  for (const auto& group : source_groups) {
    std::vector<std::pair<NodeId, NodeId>> part;
    for (NodeId src : group) {
      const size_t len = pair_counts[src] / occurrences[src];
      part.insert(part.end(), flat->begin() + cursor,
                  flat->begin() + cursor + len);
      cursor += len;
    }
    split.push_back(std::move(part));
  }
  return split;
}

// ------------------------------------------------------------------- Engine

Engine::Engine(const Graph& graph, EngineOptions options)
    : graph_(&graph),
      options_(std::move(options)),
      validated_(ValidateEvalOptions(options_.eval)) {}

Engine::Engine(const DynamicGraph& dynamic, EngineOptions options)
    : graph_(&dynamic.graph()),
      dynamic_(&dynamic),
      options_(std::move(options)),
      validated_(ValidateEvalOptions(options_.eval)) {}

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

StatusOr<QueryResult> Engine::Run(const Dfa& query,
                                  const QueryRequest& request) const {
  StatusOr<PlanPtr> plan = Plan(query);
  if (!plan.ok()) return plan.status();
  return (*plan)->Run(request);
}

EngineCounters Engine::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void Engine::CountMonadicWarmHit() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.monadic_warm_hits;
}

StatusOr<EvalOptions> Engine::PrepareRun(
    const QueryRequest& request,
    std::shared_ptr<const Snapshots>* holder) const {
  if (!validated_.ok()) return validated_.status();
  EvalOptions options = *validated_;
  if (dynamic_ != nullptr) {
    // Borrow the DynamicGraph's incrementally maintained snapshot; the
    // holder stays empty (the DynamicGraph owns its lifetime).
    options = dynamic_->WithCaches(options);
  } else {
    *holder = CurrentSnapshots();
    if (*holder != nullptr) options.condensed_cache = &(*holder)->condensed;
  }
  if (request.exec != nullptr) options.exec = request.exec;
  if (request.stats != nullptr) options.stats = request.stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.runs;
  }
  return options;
}

std::shared_ptr<const Engine::Snapshots> Engine::CurrentSnapshots() const {
  if (validated_->condense == CondenseMode::kOff) return nullptr;

  const uint64_t version = graph_->version();
  std::lock_guard<std::mutex> lock(mutex_);
  if (snapshots_ != nullptr && snapshots_->graph_version == version) {
    return snapshots_;
  }
  auto fresh = std::make_shared<Snapshots>(
      Snapshots{version, CondensedGraph::Build(*graph_)});
  ++counters_.snapshot_builds;
  snapshots_ = std::move(fresh);
  return snapshots_;
}

}  // namespace rpqlearn
