#ifndef RPQLEARN_TESTS_EVAL_TEST_UTIL_H_
#define RPQLEARN_TESTS_EVAL_TEST_UTIL_H_

// Test-side forms of the two evaluation entry points (src/query/eval.h):
// abort-on-error wrappers for inputs that are valid by construction, and
// the all-pairs binary result as EvalBinaryFromSources over every node.

#include <numeric>
#include <utility>
#include <vector>

#include "automata/dfa.h"
#include "graph/graph.h"
#include "query/eval.h"
#include "query/eval_reference.h"
#include "util/bit_vector.h"
#include "util/logging.h"
#include "util/status.h"

namespace rpqlearn {

using PairVec = std::vector<std::pair<NodeId, NodeId>>;

/// EvalMonadic, aborting on a non-OK status.
inline BitVector EvalMonadicOrDie(const Graph& graph, const Dfa& query,
                                  const EvalOptions& options = {}) {
  StatusOr<BitVector> result = EvalMonadic(graph, query, options);
  RPQ_CHECK(result.ok()) << result.status().ToString();
  return *std::move(result);
}

/// Every node of `graph`, ascending: the all-pairs source list.
inline std::vector<NodeId> AllNodes(const Graph& graph) {
  std::vector<NodeId> nodes(graph.num_nodes());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return nodes;
}

/// All-pairs binary semantics: EvalBinaryFromSources over (0, …, |V|-1),
/// so the pairs come out (src asc, dst asc).
inline StatusOr<PairVec> EvalAllPairs(const Graph& graph, const Dfa& query,
                                      const EvalOptions& options = {}) {
  const std::vector<NodeId> sources = AllNodes(graph);
  return EvalBinaryFromSources(graph, query, sources, options);
}

/// EvalAllPairs, aborting on a non-OK status.
inline PairVec EvalAllPairsOrDie(const Graph& graph, const Dfa& query,
                                 const EvalOptions& options = {}) {
  StatusOr<PairVec> result = EvalAllPairs(graph, query, options);
  RPQ_CHECK(result.ok()) << result.status().ToString();
  return *std::move(result);
}

/// Whether (src, dst) is selected under binary semantics, by the seed
/// reference's forward product search from (src, q0).
inline bool PairSelectedByReference(const Graph& graph, const Dfa& query,
                                    NodeId src, NodeId dst) {
  return EvalBinaryFromReference(graph, query, src).Test(dst);
}

/// N-ary semantics (Appendix B): a tuple (ν1..νn) is selected by
/// Q = (q1..q(n-1)) iff every consecutive pair (νi, νi+1) is selected by qi
/// under binary semantics.
inline bool TupleSelectedPairwise(const Graph& graph,
                                  const std::vector<Dfa>& queries,
                                  const std::vector<NodeId>& tuple) {
  RPQ_CHECK_EQ(tuple.size(), queries.size() + 1);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!PairSelectedByReference(graph, queries[i], tuple[i], tuple[i + 1])) {
      return false;
    }
  }
  return true;
}

}  // namespace rpqlearn

#endif  // RPQLEARN_TESTS_EVAL_TEST_UTIL_H_
