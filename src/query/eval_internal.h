#ifndef RPQLEARN_QUERY_EVAL_INTERNAL_H_
#define RPQLEARN_QUERY_EVAL_INTERNAL_H_

/// Internal building blocks shared by the round engines (src/query/eval.cc)
/// and the sweepers (eval_monadic_sweeper.h, eval_binary_sweeper.h): the
/// per-call read-only tables, the binary condensation planner step, the
/// per-sweep round counters and the scratch estimates. Everything here is a
/// pure function of (graph, frozen DFA, validated options) — no engine
/// state.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "automata/dfa_csr.h"
#include "graph/condense.h"
#include "graph/graph.h"
#include "query/eval.h"

namespace rpqlearn {
namespace eval_internal {

constexpr uint32_t kLaneBatch = 64;  // one source per bit of the lane mask

/// Symbols shared by query and graph: edges labeled outside the query
/// alphabet can never advance the product, and query symbols outside the
/// graph alphabet have no edges.
inline Symbol SharedSymbolCount(const Graph& graph, const FrozenDfa& query) {
  return std::min(query.num_symbols(), graph.num_symbols());
}

struct StateTransition {
  Symbol symbol;
  StateId target;
};

/// Read-only per-call tables shared by all workers of one evaluation:
/// per-state lists of defined transitions on shared symbols (so the inner
/// loops never probe undefined cells), the accepting set, and the frozen
/// DFA whose reverse entries the monadic backward rounds walk.
struct BinaryTables {
  std::vector<std::vector<StateTransition>> transitions;
  std::vector<StateId> accepting_states;
  std::vector<uint8_t> accepting_flag;
  const FrozenDfa* frozen = nullptr;
  Symbol num_shared = 0;
  StateId q0 = 0;
  uint32_t nq = 0;
  uint32_t nv = 0;
};

inline BinaryTables BuildBinaryTables(const Graph& graph,
                                      const FrozenDfa& frozen) {
  BinaryTables tables;
  tables.frozen = &frozen;
  tables.num_shared = SharedSymbolCount(graph, frozen);
  tables.nq = frozen.num_states();
  tables.nv = graph.num_nodes();
  tables.q0 = frozen.initial_state();
  tables.transitions.resize(tables.nq);
  tables.accepting_flag.assign(tables.nq, 0);
  for (StateId q = 0; q < tables.nq; ++q) {
    for (Symbol a = 0; a < tables.num_shared; ++a) {
      StateId t = frozen.Next(q, a);
      if (t != kNoState) tables.transitions[q].push_back({a, t});
    }
    if (frozen.IsAccepting(q)) {
      tables.accepting_states.push_back(q);
      tables.accepting_flag[q] = 1;
    }
  }
  return tables;
}

/// Per-batch (or per-sweep) round counts, accumulated locally and folded
/// into EvalOptions.stats by the caller.
struct RoundCounters {
  uint64_t sparse = 0;
  uint64_t condensed_expansions = 0;
  uint64_t components_collapsed = 0;
  uint64_t pairs = 0;  // frontier pairs expanded, summed over rounds

  RoundCounters& operator+=(const RoundCounters& other) {
    sparse += other.sparse;
    condensed_expansions += other.condensed_expansions;
    components_collapsed += other.components_collapsed;
    pairs += other.pairs;
    return *this;
  }
};

// ----------------------------------------------------------- condensation

/// One engaged kleene-star self-loop (state q, label a with δ(q, a) = q):
/// the per-label condensation the rounds expand through, plus a dense index
/// into the per-evaluation expanded-lane tables. The LabelCondensation
/// pointer targets an element of a CondensedGraph's internal vector, so it
/// stays valid when the owning CondensedGraph object moves.
struct CondenseLoop {
  Symbol symbol;
  const LabelCondensation* label;
  StateId state;
  uint32_t index;
};

/// The kleene-star planner step of one binary evaluation call, resolved
/// once from (graph, frozen DFA, validated options): which (state, label)
/// self-loops expand component-at-a-time, over which condensation. Inactive
/// — an empty plan the binary sweeper treats as "condense nothing" — when
/// the mode is kOff, the query has no star state, or the kAuto gates
/// decline. `propagates` additionally replaces the sweeper's "has outgoing
/// transitions" frontier-enqueue test: a state whose every transition is an
/// engaged self-loop never propagates through per-edge rounds (the closure
/// owns those hops).
struct CondensePlan {
  bool active = false;
  std::vector<std::vector<CondenseLoop>> loops;  // per state; engaged only
  std::vector<CondenseLoop> by_index;            // the same loops, flat
  std::vector<uint8_t> engaged_any;              // per state
  std::vector<uint8_t> propagates;               // per state
  std::vector<uint32_t> comp_counts;             // per engaged-loop index
  uint32_t num_loops = 0;
  CondensedGraph owned;  // backing store when no matching cache was passed

  bool Engaged(StateId q, Symbol a) const {
    if (!active) return false;
    for (const CondenseLoop& loop : loops[q]) {
      if (loop.symbol == a) return true;
    }
    return false;
  }
};

/// Below this many graph edges CondenseMode::kAuto skips condensation
/// entirely: the learner's inner loops evaluate on toy graphs where a
/// Tarjan pass costs as much as the BFS it would accelerate. kOn ignores
/// the gate (tests and benchmarks pin it).
constexpr size_t kAutoCondenseMinEdges = 64;

/// Resolves the condensation planner step. Fills `plan->propagates` for
/// every configuration (the sweeper consults it unconditionally); the rest
/// only when condensation engages. The batched binary rounds amortize a
/// per-call Tarjan build across their 64-lane source batches, so a plan
/// builds its own condensation when no matching
/// EvalOptions.condensed_cache is passed.
inline void BuildCondensePlan(const Graph& graph, const BinaryTables& tables,
                              const EvalOptions& validated,
                              CondensePlan* plan) {
  plan->propagates.resize(tables.nq);
  for (StateId q = 0; q < tables.nq; ++q) {
    plan->propagates[q] = tables.transitions[q].empty() ? 0 : 1;
  }
  if (validated.condense == CondenseMode::kOff) return;

  // Star states: q with δ(q, a) = q for a graph label a.
  std::vector<std::vector<Symbol>> star_labels(tables.nq);
  std::vector<Symbol> needed;
  for (StateId q = 0; q < tables.nq; ++q) {
    for (const StateTransition& tr : tables.transitions[q]) {
      if (tr.target != q) continue;
      star_labels[q].push_back(tr.symbol);
      if (std::find(needed.begin(), needed.end(), tr.symbol) ==
          needed.end()) {
        needed.push_back(tr.symbol);
      }
    }
  }
  if (needed.empty()) return;
  if (validated.condense == CondenseMode::kAuto &&
      graph.num_edges() < kAutoCondenseMinEdges) {
    return;
  }

  const CondensedGraph* cond = validated.condensed_cache;
  if (cond != nullptr && cond->num_nodes() == graph.num_nodes() &&
      cond->num_graph_edges() == graph.num_edges() &&
      cond->graph_version() == graph.version()) {
    for (Symbol a : needed) {
      if (!cond->HasLabel(a)) {
        cond = nullptr;
        break;
      }
    }
  } else {
    cond = nullptr;
  }
  if (cond == nullptr) {
    plan->owned = CondensedGraph::Build(graph, needed);
    cond = &plan->owned;
  }

  plan->loops.resize(tables.nq);
  plan->engaged_any.assign(tables.nq, 0);
  for (StateId q = 0; q < tables.nq; ++q) {
    for (Symbol a : star_labels[q]) {
      const LabelCondensation& label = cond->Label(a);
      // kAuto engages a loop only when its label actually has a nontrivial
      // component to collapse; kOn engages every star loop (the expansion
      // degenerates to the per-edge push on an acyclic label, still exact).
      if (validated.condense == CondenseMode::kAuto &&
          label.summary().largest_component < 2) {
        continue;
      }
      const CondenseLoop loop{a, &label, q, plan->num_loops};
      plan->loops[q].push_back(loop);
      plan->by_index.push_back(loop);
      plan->comp_counts.push_back(label.num_components());
      ++plan->num_loops;
      plan->engaged_any[q] = 1;
    }
  }
  if (plan->num_loops == 0) return;
  plan->active = true;

  // A state propagates through per-edge rounds only if it has a transition
  // the closure does not own.
  for (StateId q = 0; q < tables.nq; ++q) {
    if (!plan->engaged_any[q]) continue;
    bool per_edge = false;
    for (const StateTransition& tr : tables.transitions[q]) {
      if (!(tr.target == q && plan->Engaged(q, tr.symbol))) {
        per_edge = true;
        break;
      }
    }
    plan->propagates[q] = per_edge ? 1 : 0;
  }
}

/// Budget estimates of the dominant per-sweep / per-worker scratch arrays,
/// charged against the ExecContext before the arrays are allocated.
/// Estimates cover the product-space-proportional allocations (reached
/// bitmap, masks, pending flags, condensation expanded/pending tables);
/// frontier lists are workload-dependent and not charged.
inline size_t CondenseScratchBytes(const CondensePlan& plan,
                                   size_t per_component) {
  if (!plan.active) return 0;
  size_t cells = 0;
  for (uint32_t count : plan.comp_counts) cells += count;
  return cells * per_component;
}

/// MonadicSweeper: one product-space BitVector (reached).
inline size_t MonadicSweepScratchBytes(size_t num_pairs) {
  return (num_pairs + 7) / 8;
}

/// BinarySweeper: 8-byte lane mask + pending flag per product cell, and
/// 8-byte expanded + pending lane sets per condensation component.
inline size_t BinaryScratchBytes(size_t num_pairs, const CondensePlan& plan) {
  return num_pairs * (sizeof(uint64_t) + 1) +
         CondenseScratchBytes(plan, 2 * sizeof(uint64_t));
}

}  // namespace eval_internal
}  // namespace rpqlearn

#endif  // RPQLEARN_QUERY_EVAL_INTERNAL_H_
