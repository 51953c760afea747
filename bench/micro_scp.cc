// Microbenchmarks of the learning-specific machinery: negative-coverage
// subset automaton construction, SCP search, k-informativeness, the kS
// pick and a full learner invocation.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "graph/graph_nfa.h"
#include "interact/informative.h"
#include "interact/strategy.h"
#include "learn/coverage.h"
#include "learn/learner.h"
#include "learn/scp.h"
#include "query/engine.h"
#include "util/random.h"
#include "workloads/workloads.h"

namespace rpqlearn {
namespace {

/// A reproducible sample labeled by syn2 on a small synthetic graph.
struct Setup {
  Dataset dataset = BuildSyntheticDataset(3000);
  Sample sample;
  Setup() {
    Engine engine(dataset.graph);
    Engine::PlanPtr plan =
        bench::UnwrapOrExit(engine.Plan(dataset.queries[1].query), "syn2");
    BitVector goal = *bench::UnwrapOrExit(plan->RunMonadic(), "syn2");
    Rng rng(99);
    auto nodes =
        rng.SampleWithoutReplacement(dataset.graph.num_nodes(), 150);
    sample = Sample::FromGoal(goal, nodes);
  }

  /// The negatives' coverage automaton at k = 2.
  StatusOr<SubsetCoverage> CoverageAtK2() const {
    SubsetCoverage::Options options;
    options.k = 2;
    return SubsetCoverage::Build(GraphToNfa(dataset.graph, sample.negative),
                                 options);
  }
};

void BM_CoverageBuild(benchmark::State& state) {
  Setup setup;
  Nfa negatives = GraphToNfa(setup.dataset.graph, setup.sample.negative);
  SubsetCoverage::Options options;
  options.k = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SubsetCoverage::Build(negatives, options));
  }
}
BENCHMARK(BM_CoverageBuild)->Arg(2)->Arg(3);

void BM_ScpSearch(benchmark::State& state) {
  Setup setup;
  auto coverage = setup.CoverageAtK2();
  if (!coverage.ok()) {
    state.SkipWithError("coverage cap");
    return;
  }
  Nfa graph_nfa = GraphToNfa(setup.dataset.graph, {});
  size_t i = 0;
  for (auto _ : state) {
    NodeId v = setup.sample.positive[i % setup.sample.positive.size()];
    benchmark::DoNotOptimize(
        SmallestConsistentPath(graph_nfa, {v}, coverage.value()));
    ++i;
  }
}
BENCHMARK(BM_ScpSearch);

void BM_KInformative(benchmark::State& state) {
  Setup setup;
  auto coverage = setup.CoverageAtK2();
  if (!coverage.ok()) {
    state.SkipWithError("coverage cap");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeKInformative(setup.dataset.graph, coverage.value()));
  }
}
BENCHMARK(BM_KInformative);

void BM_KSmallestPick(benchmark::State& state) {
  Setup setup;
  auto coverage = setup.CoverageAtK2();
  if (!coverage.ok()) {
    state.SkipWithError("coverage cap");
    return;
  }
  const BitVector informative =
      ComputeKInformative(setup.dataset.graph, coverage.value());
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PickNextNode(
        setup.dataset.graph, setup.sample, coverage.value(), informative,
        StrategyKind::kSmallestPaths, &rng));
  }
}
BENCHMARK(BM_KSmallestPick);

void BM_FullLearner(benchmark::State& state) {
  Setup setup;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LearnPathQuery(setup.dataset.graph, setup.sample, {}));
  }
}
BENCHMARK(BM_FullLearner);

}  // namespace
}  // namespace rpqlearn

BENCHMARK_MAIN();
