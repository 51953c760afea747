#ifndef RPQLEARN_LEARN_INCREMENTAL_H_
#define RPQLEARN_LEARN_INCREMENTAL_H_

#include <map>
#include <optional>
#include <unordered_map>

#include "graph/graph.h"
#include "learn/coverage.h"
#include "learn/learner.h"
#include "learn/sample.h"

namespace rpqlearn {

/// Incremental version of Algorithm 1 for the interactive loop (Sec. 4),
/// where one label arrives per round and the learner reruns every time.
/// Three facts make caching sound:
///
///  * Adding examples only ever *grows* paths_G(S−), i.e. shrinks the set
///    of uncovered words. A cached SCP that is still uncovered therefore
///    remains the canonically-least uncovered path; and a positive that had
///    no SCP within k gains none. Only SCPs that become covered must be
///    recomputed.
///  * The coverage automaton and negative NFA depend only on S− (for a given
///    k), so positive labels reuse them unchanged. A negative label adds
///    its node to the negative NFA's initial set in place; the graph part of
///    that NFA is built once, with the learner, and never rebuilt.
///  * RPNI's output H is a function of the PTA, i.e. of the SCP word set,
///    and of the oracle's verdicts. The oracle tests L(T) ∩ paths_G(S−) = ∅,
///    which can only turn from true to false as S− grows, and every quotient
///    T it accepted has L(T) ⊆ L(H). So when the word set is unchanged and H
///    selects none of the negatives added since, every verdict repeats and
///    RPNI returns H again. LearnAtK keeps the last generalization per k and
///    reuses it then; a positive label changes RPNI's input only through
///    the word set. The consistency check still runs on every call.
///
/// Produces byte-identical results to LearnPathQuery at the same k.
class IncrementalLearner {
 public:
  IncrementalLearner(const Graph& graph, LearnerOptions options);

  void AddPositive(NodeId v);
  void AddNegative(NodeId v);

  const Sample& sample() const { return sample_; }

  /// Runs Algorithm 1 at exactly SCP bound `k`, reusing cached coverage and
  /// SCPs where valid.
  LearnOutcome LearnAtK(uint32_t k);

  /// Dynamic-k variant mirroring LearnPathQuery: sweeps k from options.k to
  /// options.max_k until a query is returned.
  LearnOutcome Learn();

  /// The coverage automaton for the current negatives at `k` (built on
  /// demand and cached). Lets the interactive session share it with the
  /// informativeness computation. Null on resource exhaustion.
  const SubsetCoverage* CoverageAtK(uint32_t k);

 private:
  struct KState {
    std::optional<SubsetCoverage> coverage;
    /// Number of negatives the coverage was built for.
    size_t built_for_negatives = 0;
    /// Cached SCP per positive node (nullopt = proven absent within k).
    std::unordered_map<NodeId, std::optional<Word>> scp;
    /// True when the coverage build hit the state cap at this k.
    bool exhausted = false;
    /// The last generalization at this k and the words it generalized.
    struct Memo {
      std::vector<Word> words;
      Generalization result;
      /// How many of S− (a prefix, in label order) were already tested
      /// against result.selected.
      size_t negatives_checked = 0;
      /// Canonical prefix-free form of the hypothesis, once returned.
      std::optional<Dfa> query;
    };
    std::optional<Memo> memo;
  };

  /// Ensures state.coverage matches the current negatives.
  void RefreshCoverage(uint32_t k, KState* state);

  /// True iff RPNI on `words` and the current S− provably returns the
  /// memo's hypothesis (see the class comment).
  bool MemoHolds(const KState::Memo& memo,
                 const std::vector<Word>& words) const;

  const Graph& graph_;
  LearnerOptions options_;
  Sample sample_;
  Nfa graph_nfa_;     ///< whole graph, no initial states (shared by SCPs)
  Nfa negative_nfa_;  ///< whole graph, initial set S− (grown in place)
  std::map<uint32_t, KState> per_k_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_LEARN_INCREMENTAL_H_
