// Workflow mining (Sec. 1, Fig. 2): a biologist wants the workflow pattern
//   ProteinPurification . ProteinSeparation* . MassSpectrometry
// but specifies it only by labeling workflow steps as positive or negative
// examples. We model the interrelated workflows as an edge-labeled graph
// where an edge's label is the module it invokes, and learn the pattern
// under both monadic and binary semantics.

#include <cstdio>
#include <numeric>
#include <vector>

#include "graph/graph.h"
#include "learn/binary.h"
#include "learn/learner.h"
#include "query/engine.h"
#include "regex/from_dfa.h"
#include "regex/printer.h"

using namespace rpqlearn;

namespace {

/// A small library of interrelated scientific workflows. Nodes are stages,
/// edge labels are the modules executed between stages.
Graph BuildWorkflowGraph() {
  GraphBuilder b;
  b.InternLabels({"ProteinPurification", "ProteinSeparation",
                  "MassSpectrometry", "CellLysis", "DataAnalysis"});
  // Workflow 1: purification -> separation -> separation -> spectrometry.
  NodeId w1s0 = b.AddNode("w1_start");
  NodeId w1s1 = b.AddNode("w1_a");
  NodeId w1s2 = b.AddNode("w1_b");
  NodeId w1s3 = b.AddNode("w1_c");
  NodeId w1s4 = b.AddNode("w1_end");
  b.AddEdge(w1s0, "ProteinPurification", w1s1);
  b.AddEdge(w1s1, "ProteinSeparation", w1s2);
  b.AddEdge(w1s2, "ProteinSeparation", w1s3);
  b.AddEdge(w1s3, "MassSpectrometry", w1s4);

  // Workflow 2: purification -> spectrometry directly.
  NodeId w2s0 = b.AddNode("w2_start");
  NodeId w2s1 = b.AddNode("w2_a");
  NodeId w2s2 = b.AddNode("w2_end");
  b.AddEdge(w2s0, "ProteinPurification", w2s1);
  b.AddEdge(w2s1, "MassSpectrometry", w2s2);

  // Workflow 3: lysis -> separation -> analysis (no spectrometry).
  NodeId w3s0 = b.AddNode("w3_start");
  NodeId w3s1 = b.AddNode("w3_a");
  NodeId w3s2 = b.AddNode("w3_b");
  NodeId w3s3 = b.AddNode("w3_end");
  b.AddEdge(w3s0, "CellLysis", w3s1);
  b.AddEdge(w3s1, "ProteinSeparation", w3s2);
  b.AddEdge(w3s2, "DataAnalysis", w3s3);

  // Workflow 4: purification -> separation -> analysis (wrong tail).
  NodeId w4s0 = b.AddNode("w4_start");
  NodeId w4s1 = b.AddNode("w4_a");
  NodeId w4s2 = b.AddNode("w4_b");
  NodeId w4s3 = b.AddNode("w4_end");
  b.AddEdge(w4s0, "ProteinPurification", w4s1);
  b.AddEdge(w4s1, "ProteinSeparation", w4s2);
  b.AddEdge(w4s2, "DataAnalysis", w4s3);
  return b.Build();
}

}  // namespace

int main() {
  Graph graph = BuildWorkflowGraph();
  std::printf("workflow library: %u stages, %zu module invocations\n",
              graph.num_nodes(), graph.num_edges());

  // The biologist labels the starting stages of workflows 1 and 2 as
  // positive (they match the pattern she has in mind) and those of
  // workflows 3 and 4 as negative.
  Sample sample;
  sample.AddPositive(graph.FindNodeByName("w1_start"));
  sample.AddPositive(graph.FindNodeByName("w2_start"));
  sample.AddNegative(graph.FindNodeByName("w3_start"));
  sample.AddNegative(graph.FindNodeByName("w4_start"));

  LearnerOptions options;
  options.max_k = 6;
  LearnOutcome outcome = LearnPathQuery(graph, sample, options);
  if (outcome.is_null) {
    std::printf("learner abstained (null)\n");
    return 1;
  }
  std::printf("learned workflow pattern: %s\n",
              RegexToString(DfaToRegex(outcome.query), graph.alphabet())
                  .c_str());

  // Binary semantics: which (start, end) stage pairs are linked by the
  // learned pattern?
  PairSample pairs;
  pairs.positive = {{graph.FindNodeByName("w1_start"),
                     graph.FindNodeByName("w1_end")},
                    {graph.FindNodeByName("w2_start"),
                     graph.FindNodeByName("w2_end")}};
  pairs.negative = {{graph.FindNodeByName("w3_start"),
                     graph.FindNodeByName("w3_end")}};
  LearnOutcome binary = LearnBinaryPathQuery(graph, pairs, options);
  if (!binary.is_null) {
    std::printf("learned binary pattern:   %s\n",
                RegexToString(DfaToRegex(binary.query), graph.alphabet())
                    .c_str());
    // Every stage a source: the all-pairs binary result.
    std::vector<NodeId> stages(graph.num_nodes());
    std::iota(stages.begin(), stages.end(), NodeId{0});
    Engine engine(graph);
    auto plan = engine.Plan(binary.query);
    if (!plan.ok()) {
      std::printf("plan error: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    auto selected = (*plan)->RunBinary(stages);
    if (!selected.ok()) {
      std::printf("binary eval error: %s\n",
                  selected.status().ToString().c_str());
      return 1;
    }
    std::printf("pairs selected by it:\n");
    for (const auto& [s, t] : *selected) {
      std::printf("  %s -> %s\n", graph.NodeName(s).c_str(),
                  graph.NodeName(t).c_str());
    }
  }
  return 0;
}
