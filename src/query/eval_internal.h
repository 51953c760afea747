#ifndef RPQLEARN_QUERY_EVAL_INTERNAL_H_
#define RPQLEARN_QUERY_EVAL_INTERNAL_H_

/// Internal building blocks shared by the round engines (src/query/eval.cc)
/// and the sweepers (eval_monadic_sweeper.h, eval_binary_sweeper.h): the
/// per-call read-only tables, the per-sweep round counters and the scratch
/// estimates. Everything here is a
/// pure function of (graph, frozen DFA, validated options) — no engine
/// state.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "automata/dfa_csr.h"
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
  uint64_t pairs = 0;  // frontier pairs expanded, summed over rounds

  RoundCounters& operator+=(const RoundCounters& other) {
    sparse += other.sparse;
    pairs += other.pairs;
    return *this;
  }
};

// Budget estimates of the dominant per-sweep / per-worker scratch arrays,
// charged against the ExecContext before the arrays are allocated.
// Estimates cover the product-space-proportional allocations (reached
// bitmap, masks, pending flags); frontier lists are workload-dependent and
// not charged.

/// MonadicSweeper: one product-space BitVector (reached).
inline size_t MonadicSweepScratchBytes(size_t num_pairs) {
  return (num_pairs + 7) / 8;
}

/// BinarySweeper: 8-byte lane mask + pending flag per product cell.
inline size_t BinaryScratchBytes(size_t num_pairs) {
  return num_pairs * (sizeof(uint64_t) + 1);
}

}  // namespace eval_internal
}  // namespace rpqlearn

#endif  // RPQLEARN_QUERY_EVAL_INTERNAL_H_
