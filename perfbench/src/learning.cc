// learn_interactive: the paper's interactive scenario (Table 2). Every goal
// bio1..bio6 of the AliBaba-shaped dataset under both node-proposal
// strategies, driven through RunInteractiveSession with Table 2's
// small-scale learner caps. The session set repeats while the run's time
// allows; every session that reports F1 = 1 is re-verified against the
// oracle's goal set.
//
// The traced run replays each session from its public calls (CoverageAtK,
// ComputeKInformative, PickNextNode, LearnAtK, Engine::Plan +
// QueryPlan::RunMonadic + ComputeMetrics) with one root span per
// interaction, and checks that the replay picks the same nodes and reaches
// the same per-interaction F1 and final query as the session did.

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "interact/informative.h"
#include "interact/oracle.h"
#include "interact/session.h"
#include "interact/strategy.h"
#include "learn/incremental.h"
#include "query/engine.h"
#include "query/eval.h"
#include "query/metrics.h"
#include "trace.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using rpqlearn::Dfa;
using rpqlearn::NodeId;
using rpqlearn::SessionOptions;
using rpqlearn::SessionResult;
using rpqlearn::StrategyKind;

/// Interaction cap per session. Sessions that do not reach F1 = 1 stop here
/// and count the cap as their labels.
constexpr size_t kMaxInteractions = 400;
/// The AliBaba-shaped graph is the dataset's own instance, not the run
/// seed's: across graph seeds, which sessions reach k = 3 changed, and with
/// it interaction p99 (4.6 to 50 ms) and the set's wall time (6.8 to
/// 10.1 s). The run seed drives the kR sessions' node choices instead.
constexpr uint64_t kGraphSeed = 42;
/// bio5 under kR reaches k = 3 (where interactions cost ~10x more) at this
/// session seed, so every run keeps one session that exercises the k
/// increase; the other sessions take their seeds from the run seed.
constexpr size_t kPinnedGoal = 4;  // bio5
constexpr uint64_t kPinnedSeed = 13;
/// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 15;

constexpr StrategyKind kStrategies[] = {StrategyKind::kRandom,
                                        StrategyKind::kSmallestPaths};

const char* StrategyName(StrategyKind kind) {
  return kind == StrategyKind::kRandom ? "kR" : "kS";
}

SessionOptions MakeSessionOptions(StrategyKind strategy, uint64_t seed) {
  SessionOptions options;
  options.strategy = strategy;
  options.seed = seed;
  options.k_start = 2;
  options.k_max = 3;
  options.max_interactions = kMaxInteractions;
  options.learner.max_k = 3;
  options.learner.coverage_state_cap = 20000;
  return options;
}

struct SessionSpec {
  size_t goal = 0;
  StrategyKind strategy = StrategyKind::kRandom;
  uint64_t seed = 1;
};

/// What the traced replay of one session observed.
struct Replay {
  std::vector<NodeId> nodes;
  std::vector<double> f1;
  Dfa final_query{0};
  bool have_query = false;
  bool reached_goal = false;
  uint64_t merges_attempted = 0;
  uint64_t merges_accepted = 0;
  uint64_t hypothesis_runs = 0;
  uint64_t hypothesis_warm_hits = 0;
};

/// Replays RunInteractiveSession (src/interact/session.cc) call for call,
/// with spans around each layer call. `next_id` numbers the interactions.
Replay ReplaySession(const rpqlearn::Graph& graph,
                     const rpqlearn::Oracle& oracle,
                     const SessionOptions& options, Tracer& tracer,
                     uint64_t* next_id) {
  Replay replay;
  rpqlearn::Rng rng(options.seed);
  uint32_t k = options.k_start;
  rpqlearn::EngineOptions engine_options;
  engine_options.eval = options.eval;
  rpqlearn::Engine engine(graph, engine_options);
  rpqlearn::LearnerOptions learner_options = options.learner;
  learner_options.auto_k = false;
  rpqlearn::IncrementalLearner learner(graph, learner_options);

  auto relearn = [&](uint32_t current_k, uint64_t id, int32_t parent) {
    rpqlearn::LearnOutcome outcome;
    {
      ScopedSpan span(tracer, "learn.learn_at_k", id, parent);
      outcome = learner.LearnAtK(current_k);
    }
    replay.merges_attempted += outcome.stats.merges_attempted;
    replay.merges_accepted += outcome.stats.merges_accepted;
    if (!outcome.status.ok() || outcome.is_null) return -1.0;
    replay.final_query = outcome.query;
    replay.have_query = true;
    ScopedSpan score(tracer, "interact.score", id, parent);
    rpqlearn::StatusOr<rpqlearn::Engine::PlanPtr> plan = [&] {
      ScopedSpan span(tracer, "engine.plan", id, score.index());
      return engine.Plan(replay.final_query);
    }();
    if (!plan.ok()) return -1.0;
    rpqlearn::StatusOr<rpqlearn::MonadicNodes> selected = [&] {
      ScopedSpan span(tracer, "engine.run_monadic", id, score.index());
      return (*plan)->RunMonadic();
    }();
    if (!selected.ok()) return -1.0;
    return rpqlearn::ComputeMetrics(**selected, oracle.goal()).f1;
  };

  while (replay.nodes.size() < options.max_interactions) {
    const uint64_t id = (*next_id)++;
    const int32_t root = tracer.Begin("interaction", id);
    const rpqlearn::SubsetCoverage* coverage = [&] {
      ScopedSpan span(tracer, "interact.coverage", id, root);
      return learner.CoverageAtK(k);
    }();
    if (coverage == nullptr) {
      tracer.End(root);
      break;
    }
    const rpqlearn::BitVector informative = [&] {
      ScopedSpan span(tracer, "interact.informative", id, root);
      return rpqlearn::ComputeKInformative(graph, *coverage);
    }();
    const std::optional<NodeId> next = [&] {
      ScopedSpan span(tracer, "interact.pick", id, root);
      return rpqlearn::PickNextNode(graph, learner.sample(), *coverage,
                                    informative, options.strategy, &rng);
    }();
    if (!next.has_value()) {
      // Not an interaction: the session raises k and relearns, untimed.
      tracer.Rename(root, "k_increase");
      if (k < options.k_max) {
        ++k;
        double f1;
        {
          ScopedSpan span(tracer, "interact.k_bump", id, root);
          f1 = relearn(k, id, span.index());
        }
        tracer.End(root);
        if (f1 == 1.0) {
          replay.reached_goal = true;
          break;
        }
        continue;
      }
      tracer.End(root);
      break;
    }
    {
      ScopedSpan span(tracer, "learn.add_example", id, root);
      if (oracle.Label(*next)) {
        learner.AddPositive(*next);
      } else {
        learner.AddNegative(*next);
      }
    }
    double f1 = -1.0;
    if (replay.nodes.size() % options.learn_every == 0) {
      f1 = relearn(k, id, root);
    }
    tracer.End(root);
    replay.nodes.push_back(*next);
    replay.f1.push_back(f1);
    if (f1 == 1.0) {
      replay.reached_goal = true;
      break;
    }
  }
  if (!replay.have_query) {
    Dfa empty(graph.num_symbols());
    empty.AddState(false);
    replay.final_query = empty;
  }
  const rpqlearn::EngineCounters counters = engine.counters();
  replay.hypothesis_runs = counters.runs;
  replay.hypothesis_warm_hits = counters.monadic_warm_hits;
  return replay;
}

std::vector<double> Ms(std::vector<double> us) {
  for (double& v : us) v /= 1e3;
  return us;
}

}  // namespace

RunResult RunLearnInteractive(const RunArgs& args) {
  RunResult result;

  // Set-up: dataset generation plus the oracle goal evaluations, repeated;
  // the last repetition's dataset and oracles are the ones used.
  std::vector<double> setup_seconds;
  std::optional<rpqlearn::Dataset> dataset;
  std::vector<rpqlearn::Oracle> oracles;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dataset.reset();
    oracles.clear();
    const Clock::time_point start = Clock::now();
    dataset.emplace(rpqlearn::BuildAlibabaDataset(kGraphSeed));
    for (const rpqlearn::Workload& goal : dataset->queries) {
      oracles.push_back(
          rpqlearn::Oracle::FromQuery(dataset->graph, goal.query));
    }
    setup_seconds.push_back(SecondsSince(start));
  }
  const rpqlearn::Graph& graph = dataset->graph;
  std::printf("learn_interactive: %u nodes, %zu edges, %zu goals x 2 "
              "strategies, cap %zu interactions, max_k 3, coverage cap 20000\n",
              graph.num_nodes(), graph.num_edges(), dataset->queries.size(),
              kMaxInteractions);

  std::vector<SessionSpec> specs;
  for (size_t goal = 0; goal < dataset->queries.size(); ++goal) {
    for (size_t s = 0; s < 2; ++s) {
      const bool pinned =
          goal == kPinnedGoal && kStrategies[s] == StrategyKind::kRandom;
      const uint64_t seed =
          pinned ? kPinnedSeed : args.seed * 1000 + goal * 10 + s + 1;
      specs.push_back({goal, kStrategies[s], seed});
    }
  }

  // Timed session sets. A set is not started when the previous one says it
  // would end past the run's time; at least one set always runs.
  std::vector<double> interaction_ms;
  std::vector<double> set_seconds;
  std::vector<SessionResult> first_set;
  uint64_t labels_to_goal = 0;
  uint64_t interactions = 0;
  bool reached_k3 = false;
  const Clock::time_point run_start = Clock::now();
  while (set_seconds.empty() ||
         SecondsSince(run_start) + set_seconds.back() <= args.seconds) {
    const Clock::time_point set_start = Clock::now();
    std::vector<SessionResult> sessions;
    for (const SessionSpec& spec : specs) {
      sessions.push_back(rpqlearn::RunInteractiveSession(
          graph, oracles[spec.goal],
          MakeSessionOptions(spec.strategy, spec.seed)));
    }
    set_seconds.push_back(SecondsSince(set_start));

    uint64_t set_labels = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
      const SessionResult& session = sessions[i];
      const std::string name = dataset->queries[specs[i].goal].name + "/" +
                               StrategyName(specs[i].strategy);
      ++result.attempted;
      if (!session.status.ok()) {
        // A failed session counts as failed and as never reaching the goal
        // (its cap in labels), so failures cannot read as fewer labels. It
        // is not an output mismatch: it produced no answer to check.
        ++result.failed;
        set_labels += kMaxInteractions;
        std::printf("  session %s failed: %s\n", name.c_str(),
                    session.status.ToString().c_str());
        continue;
      }
      for (const rpqlearn::InteractionRecord& record : session.interactions) {
        interaction_ms.push_back(record.seconds * 1e3);
      }
      interactions += session.interactions.size();
      set_labels +=
          session.reached_goal ? session.interactions.size() : kMaxInteractions;
      reached_k3 = reached_k3 || session.final_k >= 3;
      if (session.reached_goal) {
        // F1 = 1 claimed: the final query must select exactly the goal set.
        rpqlearn::StatusOr<rpqlearn::BitVector> selected =
            rpqlearn::EvalMonadic(graph, session.final_query,
                                  rpqlearn::EvalOptions{});
        if (!selected.ok() || !(*selected == oracles[specs[i].goal].goal())) {
          ++result.failed;
          result.Mismatch("session " + name +
                          " reports F1 = 1 but its query does not select "
                          "the goal set");
        }
      }
    }
    if (first_set.empty()) {
      first_set = std::move(sessions);
      labels_to_goal = set_labels;
    }
  }
  double total_set_seconds = 0.0;
  for (double s : set_seconds) total_set_seconds += s;

  for (size_t i = 0; i < specs.size(); ++i) {
    const SessionResult& session = first_set[i];
    std::printf("  %-4s %s: %3zu interactions, reached F1=1: %s, final k %u\n",
                dataset->queries[specs[i].goal].name.c_str(),
                StrategyName(specs[i].strategy), session.interactions.size(),
                session.reached_goal ? "yes" : "no ", session.final_k);
  }
  if (!reached_k3) {
    std::printf("  note: no session reached k = 3 on this run\n");
  }

  const double setup_s = Median(setup_seconds);
  const double learn_wall_s = Median(set_seconds);
  const double p50 = Percentile(interaction_ms, 50);
  const double p99 = Percentile(interaction_ms, 99);
  std::printf("  %zu session sets, %zu interactions timed; sessions attempted "
              "%llu, succeeded %llu, failed %llu\n",
              set_seconds.size(), interaction_ms.size(),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.attempted - result.failed),
              static_cast<unsigned long long>(result.failed));
  std::printf("  setup_s            %.4f s\n", setup_s);
  std::printf("  interaction_p50_ms %.4f ms\n", p50);
  std::printf("  interaction_p99_ms %.4f ms\n", p99);
  std::printf("  learn_wall_s       %.4f s\n", learn_wall_s);
  std::printf("  labels_to_goal     %llu labels\n",
              static_cast<unsigned long long>(labels_to_goal));

  if (!args.trace) {
    result.Set("setup_s", setup_s);
    result.Set("latency_p99_ms", p99);
    result.Set("throughput_per_s",
               static_cast<double>(interactions) / total_set_seconds);
    result.Set("peak_rss_mb", PeakRssMb());
    return result;
  }

  // Traced replay of the first set, compared against it call for call.
  Tracer tracer(true);
  uint64_t next_id = 0;
  Replay totals;
  const Clock::time_point replay_start = Clock::now();
  for (size_t i = 0; i < specs.size(); ++i) {
    const SessionSpec& spec = specs[i];
    Replay replay =
        ReplaySession(graph, oracles[spec.goal],
                      MakeSessionOptions(spec.strategy, spec.seed), tracer,
                      &next_id);
    const SessionResult& session = first_set[i];
    bool same = replay.nodes.size() == session.interactions.size() &&
                replay.reached_goal == session.reached_goal &&
                replay.final_query == session.final_query;
    for (size_t j = 0; same && j < replay.nodes.size(); ++j) {
      same = replay.nodes[j] == session.interactions[j].node &&
             replay.f1[j] == session.interactions[j].f1;
    }
    if (!same) {
      result.Mismatch("traced replay of " +
                      dataset->queries[spec.goal].name + "/" +
                      StrategyName(spec.strategy) +
                      " diverges from RunInteractiveSession");
    }
    totals.merges_attempted += replay.merges_attempted;
    totals.merges_accepted += replay.merges_accepted;
    totals.hypothesis_runs += replay.hypothesis_runs;
    totals.hypothesis_warm_hits += replay.hypothesis_warm_hits;
  }
  const double replay_seconds = SecondsSince(replay_start);
  std::printf("  traced replay: %.3f s vs %.3f s untraced\n%s", replay_seconds,
              learn_wall_s, tracer.SelfTimeReport().c_str());

  const std::vector<double> coverage_ms =
      Ms(tracer.DurationsUs("interact.coverage"));
  const std::vector<double> pick_ms = Ms(tracer.DurationsUs("interact.pick"));
  const std::vector<double> learn_ms =
      Ms(tracer.DurationsUs("learn.learn_at_k"));
  double k_bump_ms = 0.0;
  for (double ms : Ms(tracer.DurationsUs("interact.k_bump"))) k_bump_ms += ms;
  result.Set("interact.interaction_p50_ms", p50);
  result.Set("interact.coverage_ms_p50", Percentile(coverage_ms, 50));
  result.Set("interact.coverage_ms_p99", Percentile(coverage_ms, 99));
  result.Set("interact.informative_ms_p50",
             Percentile(Ms(tracer.DurationsUs("interact.informative")), 50));
  result.Set("interact.pick_ms_p50", Percentile(pick_ms, 50));
  result.Set("interact.pick_ms_p99", Percentile(pick_ms, 99));
  result.Set("learn.learn_at_k_ms_p50", Percentile(learn_ms, 50));
  result.Set("learn.learn_at_k_ms_p99", Percentile(learn_ms, 99));
  result.Set("learn.merges_attempted",
             static_cast<double>(totals.merges_attempted));
  result.Set("learn.merge_accept_rate",
             totals.merges_attempted == 0
                 ? 0.0
                 : static_cast<double>(totals.merges_accepted) /
                       static_cast<double>(totals.merges_attempted));
  result.Set("interact.score_ms_p50",
             Percentile(Ms(tracer.DurationsUs("interact.score")), 50));
  result.Set("engine.hypothesis_warm_rate",
             totals.hypothesis_runs == 0
                 ? 0.0
                 : static_cast<double>(totals.hypothesis_warm_hits) /
                       static_cast<double>(totals.hypothesis_runs));
  result.Set("interact.k_bump_ms", k_bump_ms);
  result.Set("interact.labels_to_goal", static_cast<double>(labels_to_goal));
  result.Set("interact.learn_wall_s", learn_wall_s);
  result.Set("trace.overhead_frac", replay_seconds / learn_wall_s - 1.0);
  result.Set("trace.coverage", tracer.Coverage("interaction"));
  const std::string trace_path =
      args.work_dir + "/trace-learn_interactive.csv";
  if (!tracer.WriteCsv(trace_path)) {
    std::printf("  could not write %s\n", trace_path.c_str());
  }
  return result;
}

}  // namespace perfbench
