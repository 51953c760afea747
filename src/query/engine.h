#ifndef RPQLEARN_QUERY_ENGINE_H_
#define RPQLEARN_QUERY_ENGINE_H_

/// The evaluation facade: one object per served graph, one plan per query,
/// one call per request.
///
///   Engine engine(graph);                    // owns per-graph cached state
///   auto plan = engine.Plan(query);          // canonicalize/freeze once
///   auto nodes = (*plan)->RunMonadic();      // q(G), warm when unchanged
///   auto pairs = (*plan)->RunBinary(sources);  // binary from sources
///
/// Each semantics the system serves has one entry point here and one
/// product-BFS driver under it (src/query/eval.h): RunMonadic drives
/// EvalMonadic through the plan's retained MaterializedMonadic, and
/// RunBinary drives EvalBinaryFromSources.
///
/// An `Engine` owns, per graph, a **plan cache**: an LRU of QueryPlans
/// keyed by the structural fingerprint of the canonical query DFA
/// (collisions resolved by exact structural comparison), so a repeat query
/// — the interactive loop's recurring hypotheses, a server's hot queries —
/// reuses its frozen transition tables, parse/canonicalization work, and
/// warm results.
///
/// A `QueryPlan` owns, per query:
///   - the canonical Dfa and its FrozenDfa (flat + reverse-CSR tables);
///   - the DfaFingerprint identity key;
///   - a lazily-built MaterializedMonadic (src/query/eval_incremental.h)
///     retaining the monadic fixed point, so a repeat monadic request
///     against an unchanged graph is answered without any sweep — the warm
///     path of the interactive session's recurring hypotheses.
///
/// Every result is bit-identical to the corresponding eval.h call with the
/// same options: plans are pure reuse, never a different algorithm.
///
/// An `Engine` built over a `DynamicGraph` subscribes to it: every applied
/// update is queued on each cached plan whose retained fixed point reads
/// the update's label, and that plan's next monadic run repairs the batch
/// in place (src/query/eval_incremental.h) instead of sweeping from
/// scratch. Over a plain `Graph`, or for a plan evicted from the cache, the
/// per-label version check turns an unqueued mutation into a rebuild.
///
/// Thread-safety: Plan() and the QueryPlan runs are safe to call
/// concurrently from any number of threads **as long as the graph is not
/// mutated concurrently** — exactly Graph's own contract. Callers that
/// interleave updates (the query server) serialize them against runs
/// externally (reader/writer lock). An update's fan-out copies the plan
/// list under the engine lock, releases it, and then takes each plan's
/// lock in turn to queue, so it never holds both (a monadic run holds its
/// plan's lock and then the engine lock); the first run after an update
/// then repairs or refreshes whatever the update touched.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "automata/dfa.h"
#include "automata/dfa_csr.h"
#include "query/eval.h"
#include "query/eval_incremental.h"
#include "util/bit_vector.h"
#include "util/status.h"

namespace rpqlearn {

class DynamicGraph;
class Engine;

/// Facade telemetry, snapshot via Engine::counters(). Monotone except under
/// Engine destruction; reads are consistent (taken under the engine lock).
struct EngineCounters {
  /// Plan() calls answered from the plan cache / requiring a fresh build.
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  /// Plans dropped by the LRU policy (capacity overflow).
  uint64_t plan_evictions = 0;
  /// RunMonadic / RunBinary calls through this engine.
  uint64_t runs = 0;
  /// Monadic runs answered from a plan's retained fixed point with no work
  /// (the warm path).
  uint64_t monadic_warm_hits = 0;
  /// Monadic runs answered by repairing the plan's retained fixed point
  /// with the updates queued on it.
  uint64_t monadic_repairs = 0;
};

/// The result of one monadic run: a borrowed view of the plan's retained
/// fixed point, valid until the next run against a mutated graph. Runs on
/// an unchanged graph only read it, so concurrent callers share it.
using MonadicNodes = const BitVector*;

/// A compiled query bound to one Engine: canonical DFA, frozen transition
/// tables, fingerprint identity, and the retained monadic fixed point.
/// Created by Engine::Plan and shared — a plan must not outlive its Engine,
/// but holding the shared_ptr across cache eviction is fine (eviction only
/// drops the engine's own reference).
class QueryPlan {
 public:
  /// Structural fingerprint of the frozen canonical DFA (DfaFingerprint) —
  /// the plan-cache key.
  uint64_t fingerprint() const { return fingerprint_; }
  /// The canonical (trimmed, minimized) query DFA this plan evaluates.
  const Dfa& dfa() const { return dfa_; }
  const FrozenDfa& frozen() const { return frozen_; }

  /// Monadic node semantics, bit-identical to EvalMonadic under the
  /// engine's EvalOptions, borrowed from the plan's retained fixed point.
  /// `exec`, when non-null, overrides the engine-level ExecContext for this
  /// run (the server arms one per admitted request); Status on an
  /// ExecContext trip.
  StatusOr<MonadicNodes> RunMonadic(ExecContext* exec = nullptr) const;

  /// Binary-from-sources semantics, bit-identical to EvalBinaryFromSources
  /// under the engine's EvalOptions; `exec` as for RunMonadic. Status on an
  /// out-of-range source or an ExecContext trip.
  StatusOr<std::vector<std::pair<NodeId, NodeId>>> RunBinary(
      std::span<const NodeId> sources, ExecContext* exec = nullptr) const;

 private:
  friend class Engine;

  QueryPlan(const Engine* engine, Dfa dfa);

  /// Queues an applied update on the retained fixed point, if any.
  void QueueUpdate(NodeId src, Symbol label, NodeId dst, bool insert) const;

  const Engine* engine_;
  Dfa dfa_;
  FrozenDfa frozen_;
  uint64_t fingerprint_;

  /// Retained monadic fixed point (lazily built on the first monadic run)
  /// plus the lock that serializes concurrent monadic runs on this plan —
  /// binary runs are stateless and bypass it.
  mutable std::mutex monadic_mutex_;
  mutable std::unique_ptr<MaterializedMonadic> monadic_;
};

/// Engine configuration. The eval options are validated at construction
/// (Plan and the runs surface the Status of an invalid configuration).
struct EngineOptions {
  /// Base evaluation knobs for every run: threads, parallel threshold,
  /// default ExecContext and stats sink.
  EvalOptions eval;
  /// Plans kept by the LRU cache; 0 disables caching (every Plan() call
  /// compiles a fresh plan, whose first monadic run sweeps — for tests and
  /// cold-path benchmarks).
  size_t plan_cache_capacity = 32;
};

class Engine {
 public:
  using PlanPtr = std::shared_ptr<const QueryPlan>;

  /// An engine over a borrowed graph; `graph` must outlive the engine.
  explicit Engine(const Graph& graph, EngineOptions options = {});
  /// An engine over `dynamic.graph()` that subscribes to its updates (see
  /// above); `dynamic` must outlive the engine, and its updates still
  /// require external serialization against runs.
  explicit Engine(DynamicGraph& dynamic, EngineOptions options = {});
  /// Unsubscribes from the DynamicGraph, if any.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Compiles (or fetches from the plan cache) the plan of `query`. The
  /// query DFA is canonicalized first, so equivalent DFAs share one plan.
  /// InvalidArgument when the engine was constructed with invalid
  /// EvalOptions or the query's alphabet exceeds the graph's.
  StatusOr<PlanPtr> Plan(const Dfa& query) const;

  /// Parses `regex` against the graph's alphabet (the paper's syntax, see
  /// src/regex/parser.h; labels must exist on the graph) and plans it. The
  /// parser's DFA is already canonical, so it is not canonicalized again.
  StatusOr<PlanPtr> Plan(std::string_view regex) const;

  const Graph& graph() const { return *graph_; }
  /// The validated base EvalOptions every run starts from.
  const StatusOr<EvalOptions>& eval_options() const { return validated_; }

  EngineCounters counters() const;

 private:
  friend class QueryPlan;
  friend class DynamicGraph;

  /// Checks the engine and the query's width against the graph.
  Status ValidateQuery(const Dfa& query) const;
  /// The cached or fresh plan of an already canonical query DFA.
  StatusOr<PlanPtr> PlanCanonical(Dfa canonical) const;

  /// The engine's EvalOptions for one run, the run's ExecContext (when
  /// non-null) overriding the engine-level one.
  StatusOr<EvalOptions> PrepareRun(ExecContext* exec) const;

  /// Counts a monadic run as a warm hit or a repair from the plan's
  /// MaterializedStats before and after it.
  void CountMonadicRun(const MaterializedStats& before,
                       const MaterializedStats& after) const;

  /// Called by the subscribed DynamicGraph for every applied update.
  void QueueUpdate(NodeId src, Symbol label, NodeId dst, bool insert);

  const Graph* graph_;
  /// The graph this engine subscribed to, or null over a plain Graph.
  DynamicGraph* dynamic_ = nullptr;
  EngineOptions options_;
  StatusOr<EvalOptions> validated_;

  mutable std::mutex mutex_;
  /// Most-recently-used first.
  mutable std::vector<std::shared_ptr<QueryPlan>> plans_;
  mutable EngineCounters counters_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_QUERY_ENGINE_H_
