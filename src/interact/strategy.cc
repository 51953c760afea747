#include "interact/strategy.h"

#include <vector>

#include "util/logging.h"

namespace rpqlearn {

std::optional<NodeId> PickNextNode(const Graph& graph, const Sample& sample,
                                   const SubsetCoverage& coverage,
                                   const BitVector& informative,
                                   StrategyKind kind, Rng* rng) {
  RPQ_CHECK_EQ(informative.size(), graph.num_nodes());
  // S+ ∪ S− is marked once per call, so a candidate costs a bit test
  // rather than a search of both lists.
  BitVector labeled(graph.num_nodes());
  for (NodeId v : sample.positive) labeled.Set(v);
  for (NodeId v : sample.negative) labeled.Set(v);
  BitVector unlabeled_informative = informative;
  unlabeled_informative.SubtractWith(labeled);
  const std::vector<NodeId> candidates = unlabeled_informative.ToIndices();
  if (candidates.empty()) return std::nullopt;

  switch (kind) {
    case StrategyKind::kRandom:
      return candidates[rng->NextBelow(candidates.size())];
    case StrategyKind::kSmallestPaths: {
      UncoveredPathCounter counter(graph, coverage);
      NodeId best = candidates[0];
      uint64_t best_count = counter.Count(best);
      for (size_t i = 1; i < candidates.size(); ++i) {
        uint64_t count = counter.Count(candidates[i]);
        if (count < best_count) {
          best_count = count;
          best = candidates[i];
        }
      }
      return best;
    }
  }
  RPQ_CHECK(false) << "unknown strategy";
  __builtin_unreachable();
}

}  // namespace rpqlearn
