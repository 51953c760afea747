#ifndef RPQLEARN_QUERY_ENGINE_H_
#define RPQLEARN_QUERY_ENGINE_H_

/// The unified evaluation facade: one object per served graph, one plan per
/// query, one call per request.
///
/// The engine layer under src/query/eval.h accreted entry points as it grew
/// — EvalMonadic / EvalMonadicBounded / EvalBinary / EvalBinaryFromSources,
/// each with StatusOr overloads, plus the loose EvalOptions / snapshot-cache
/// / ExecContext threading every caller had to repeat. `Engine` collapses
/// that surface behind two ideas:
///
///   Engine engine(graph);                  // owns per-graph cached state
///   auto plan = engine.Plan(query);        // parse/canonicalize/freeze once
///   auto result = (*plan)->Run(request);   // dispatch with cached snapshots
///
/// An `Engine` owns, per graph:
///   - a **plan cache**: an LRU of QueryPlans keyed by the structural
///     fingerprint of the canonical query DFA (collisions resolved by exact
///     structural comparison), so a repeat query — the interactive loop's
///     recurring hypotheses, a server's hot queries — reuses its frozen
///     transition tables, parse/canonicalization work, and warm results;
///   - a **graph snapshot**: the per-label SCC condensation
///     (CondensedGraph) the round engines consult, built lazily and
///     re-validated against Graph::version() per run — a mutated graph
///     triggers one rebuild, never a stale read (the evaluation engines
///     independently reject mismatched snapshots, so the version keying
///     here is belt over braces). An Engine constructed over a DynamicGraph
///     borrows that graph's incrementally *maintained* snapshot instead of
///     rebuilding from scratch.
///
/// A `QueryPlan` owns, per query:
///   - the canonical Dfa and its FrozenDfa (flat + reverse-CSR tables);
///   - the DfaFingerprint identity key;
///   - a lazily-built MaterializedMonadic (src/query/eval_incremental.h)
///     retaining the monadic fixed point, so a repeat monadic request
///     against an unchanged graph is answered without any sweep — the warm
///     path of the interactive session's recurring hypotheses.
///
/// Every result is bit-identical to the corresponding free-function call
/// with the same options: plans and snapshots are pure reuse, never a
/// different algorithm.
///
/// Thread-safety: Plan() and QueryPlan::Run() are safe to call concurrently
/// from any number of threads **as long as the graph is not mutated
/// concurrently** — exactly Graph's own contract. Callers that interleave
/// updates (the query server) serialize them against runs externally
/// (reader/writer lock); the version keying then guarantees the first run
/// after an update refreshes whatever the update invalidated.
///
/// The free functions in eval.h remain the low-level layer this facade
/// drives (and the differential oracles pin them bit-for-bit); new call
/// sites should prefer the facade — the server, the interactive session,
/// the experiment harnesses, and the bench drivers all go through it.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "automata/dfa.h"
#include "automata/dfa_csr.h"
#include "graph/condense.h"
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
  /// Condensation snapshot (re)builds — 1 on a static graph; one more per
  /// graph version the engine actually served.
  uint64_t snapshot_builds = 0;
  /// QueryPlan::Run dispatches through this engine.
  uint64_t runs = 0;
  /// Monadic runs answered from a plan's retained fixed point without a
  /// sweep (the warm path).
  uint64_t monadic_warm_hits = 0;
};

/// One evaluation request against a plan. Default-constructed = monadic
/// node semantics, no limits.
struct QueryRequest {
  enum class Semantics : uint8_t {
    kMonadicNodes = 0,    ///< q(G): the selected-node column
    kMonadicBounded = 1,  ///< q(G) restricted to witness paths ≤ max_length
    kBinaryPairs = 2,     ///< all (src, dst) pairs (every node a source)
    kBinaryFromSources = 3,  ///< (src, dst) pairs for the given sources
  };
  Semantics semantics = Semantics::kMonadicNodes;
  /// Sources for kBinaryFromSources (input-order groups, duplicates
  /// answered twice — EvalBinaryFromSources semantics).
  std::vector<NodeId> sources;
  /// Witness-path bound for kMonadicBounded.
  uint32_t max_length = 0;
  /// Per-request execution control (deadline / cancellation / budget);
  /// overrides the engine-level ExecContext when non-null. The server arms
  /// one per admitted request.
  ExecContext* exec = nullptr;
  /// Per-request round-counter sink; overrides the engine-level sink.
  EvalStats* stats = nullptr;
};

/// The result of one monadic run: either a borrowed view of the plan's
/// retained fixed point (result caching on — no copy) or an owned column
/// (result caching off — every run moves its result out, so concurrent cold
/// runs never share mutable state). Dereferences like a `const BitVector*`.
/// A borrowed view stays valid until the next Run against a mutated graph;
/// an owned column lives as long as this object.
class MonadicNodes {
 public:
  explicit MonadicNodes(const BitVector* borrowed) : borrowed_(borrowed) {}
  explicit MonadicNodes(BitVector owned) : owned_(std::move(owned)) {}

  const BitVector& operator*() const { return owned_ ? *owned_ : *borrowed_; }
  const BitVector* operator->() const { return &**this; }

 private:
  const BitVector* borrowed_ = nullptr;
  std::optional<BitVector> owned_;
};

/// One evaluation result; `semantics` says which payload is meaningful.
struct QueryResult {
  QueryRequest::Semantics semantics = QueryRequest::Semantics::kMonadicNodes;
  /// Monadic semantics: the selected-node column.
  BitVector nodes;
  /// Binary semantics: (src, dst) pairs, grouped per source occurrence in
  /// input order, destinations ascending.
  std::vector<std::pair<NodeId, NodeId>> pairs;
};

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

  /// Evaluates one request. Bit-identical to the matching eval.h free
  /// function under the engine's EvalOptions; Status on invalid requests
  /// (out-of-range sources) or an ExecContext trip.
  StatusOr<QueryResult> Run(const QueryRequest& request) const;

  /// Convenience: Run with monadic node semantics. With result caching on,
  /// the returned MonadicNodes borrows the plan's retained fixed point
  /// (valid until the next Run against a mutated graph); with caching off
  /// it owns the freshly evaluated column outright.
  StatusOr<MonadicNodes> RunMonadic(ExecContext* exec = nullptr) const;

  /// Convenience: Run with binary-from-sources semantics.
  StatusOr<std::vector<std::pair<NodeId, NodeId>>> RunBinary(
      std::span<const NodeId> sources, ExecContext* exec = nullptr) const;

  /// Coalesced execution of several binary requests against this one plan:
  /// the groups' sources are concatenated into a single evaluation — whose
  /// 64-lane batches then span request boundaries — and the flat pair
  /// result is split back per group. Element i of the result is
  /// bit-identical to RunBinary(source_groups[i]). This is the request-
  /// batching primitive of the query server.
  StatusOr<std::vector<std::vector<std::pair<NodeId, NodeId>>>> RunBinaryBatch(
      std::span<const std::span<const NodeId>> source_groups,
      ExecContext* exec = nullptr) const;

 private:
  friend class Engine;

  QueryPlan(const Engine* engine, Dfa dfa);

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
/// (Plan/Run surface the Status of an invalid configuration).
struct EngineOptions {
  /// Base evaluation knobs for every run: threads, direction mode,
  /// condensation policy, default ExecContext and stats sink.
  EvalOptions eval;
  /// Plans kept by the LRU cache; 0 disables caching (every Plan() call
  /// compiles afresh — for tests and cold-path benchmarks).
  size_t plan_cache_capacity = 32;
  /// When true (default), monadic node requests are served through each
  /// plan's retained fixed point — a repeat query on an unchanged graph is
  /// a warm hit with no sweep. False forces every monadic run through a
  /// full evaluation (cold-path benchmarks).
  bool cache_monadic_results = true;
};

class Engine {
 public:
  using PlanPtr = std::shared_ptr<const QueryPlan>;

  /// An engine over a borrowed graph; `graph` must outlive the engine.
  explicit Engine(const Graph& graph, EngineOptions options = {});
  /// An engine borrowing a DynamicGraph's *maintained* snapshot: runs
  /// consult dynamic.condensed() (incrementally repaired on every update)
  /// instead of an engine-built one. `dynamic` must outlive the
  /// engine; updates still require external serialization against runs.
  explicit Engine(const DynamicGraph& dynamic, EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Compiles (or fetches from the plan cache) the plan of `query`. The
  /// query DFA is canonicalized first, so equivalent DFAs share one plan.
  /// InvalidArgument when the engine was constructed with invalid
  /// EvalOptions or the query's alphabet exceeds the graph's.
  StatusOr<PlanPtr> Plan(const Dfa& query) const;

  /// Parses `regex` against the graph's alphabet (the paper's syntax, see
  /// src/regex/parser.h; labels must exist on the graph) and plans it.
  StatusOr<PlanPtr> Plan(std::string_view regex) const;

  /// One-shot convenience: Plan(query) then Run(request).
  StatusOr<QueryResult> Run(const Dfa& query, const QueryRequest& request) const;

  const Graph& graph() const { return *graph_; }
  /// The validated base EvalOptions every run starts from (the snapshot
  /// cache pointer is filled per run and never set here).
  const StatusOr<EvalOptions>& eval_options() const { return validated_; }

  EngineCounters counters() const;

 private:
  friend class QueryPlan;

  /// Version-keyed snapshot bundle. Runs hold the shared_ptr for their
  /// whole duration, so a concurrent refresh (graph mutated between runs)
  /// can never pull structures out from under an in-flight evaluation.
  struct Snapshots {
    uint64_t graph_version = 0;
    CondensedGraph condensed;
  };

  /// The engine's EvalOptions for one run: snapshot cache pointer filled
  /// in, per-request exec/stats overrides applied. `holder` receives the
  /// snapshot bundle keeping that pointer alive.
  StatusOr<EvalOptions> PrepareRun(const QueryRequest& request,
                                   std::shared_ptr<const Snapshots>* holder) const;

  std::shared_ptr<const Snapshots> CurrentSnapshots() const;

  void CountMonadicWarmHit() const;

  const Graph* graph_;
  const DynamicGraph* dynamic_ = nullptr;  ///< non-null: borrow its snapshot
  EngineOptions options_;
  StatusOr<EvalOptions> validated_;

  mutable std::mutex mutex_;
  /// Most-recently-used first.
  mutable std::vector<std::shared_ptr<QueryPlan>> plans_;
  mutable std::shared_ptr<const Snapshots> snapshots_;
  mutable EngineCounters counters_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_QUERY_ENGINE_H_
