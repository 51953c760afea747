#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "automata/dfa.h"
#include "automata/random_automata.h"
#include "graph/dynamic.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "query/engine.h"
#include "query/eval.h"
#include "query/eval_incremental.h"
#include "query/eval_reference.h"
#include "regex/printer.h"
#include "regex/random_regex.h"
#include "regex/to_nfa.h"
#include "util/exec_context.h"
#include "util/fault.h"
#include "util/random.h"
#include "eval_test_util.h"
#include "fuzz_env.h"

namespace rpqlearn {
namespace {

// Seeded randomized differential fuzzer over the whole evaluation matrix:
// random graphs (Erdős–Rényi and scale-free, from src/graph/generators.*) ×
// random queries (regex ASTs from src/regex/random_regex.* compiled through
// the production Thompson → determinize → minimize pipeline, plus raw
// random DFAs) drive the seed reference against the engines at thread
// counts {1, 2, 8}.
// On a mismatch the failing case is shrunk (greedy edge and node removal
// while the mismatch persists) and printed as a self-contained
// reproduction block.
//
// Three sibling campaigns share the same corpus machinery: a
// fault-injection campaign (RPQ_FUZZ_FAULTS) that verifies typed unwinding
// and clean retry under injected faults, and an update-interleaving
// campaign (RPQ_FUZZ_UPDATES, on by default) that replays random
// insert/delete/compact/evaluate traces through the delta-edge overlay of a
// DynamicGraph, diffing every evaluation bit-for-bit against a
// rebuild-from-scratch oracle. The update
// campaign additionally carries a live materialized monadic query and an
// Engine plan over the same DynamicGraph (RPQ_EVAL_INCREMENTAL, on by
// default), whose batched repairs are held to the same bit-for-bit
// standard at every evaluation step.
//
// The default run fuzzes 200 cases; set RPQ_FUZZ_ITERS for longer campaigns
// (the nightly CI job runs 10×).
constexpr uint32_t kDefaultFuzzIterations = 200;

/// Whether the update-interleaving campaign runs: RPQ_FUZZ_UPDATES ∈
/// {on, off}, default on (the nightly matrix sweeps both). Any other value
/// is a typo and fails the campaign loudly rather than silently fuzzing
/// nothing.
enum class FuzzUpdates { kOff, kOn, kInvalid };

FuzzUpdates FuzzUpdatesMode() {
  const char* env = std::getenv("RPQ_FUZZ_UPDATES");
  if (env == nullptr) return FuzzUpdates::kOn;
  const std::string value(env);
  if (value == "on" || value == "1") return FuzzUpdates::kOn;
  if (value == "off" || value == "0") return FuzzUpdates::kOff;
  return FuzzUpdates::kInvalid;
}

/// Whether the update campaign additionally carries *live materialized
/// queries* (src/query/eval_incremental.h) through every trace — a
/// MaterializedMonadic registered on the trace's DynamicGraph and the plan
/// of an Engine built over it, on which every update is queued and
/// repaired at the next evaluation step (delta-frontier re-seeding for
/// inserts, delete-and-rederive for deletes), with auto-compactions firing
/// at a deliberately tiny threshold — diffed bit-for-bit against the
/// rebuild oracle at every evaluation step. RPQ_EVAL_INCREMENTAL ∈
/// {on, off}, default on (the nightly matrix sweeps both). Any other value
/// is a typo and fails the campaign loudly.
enum class FuzzIncremental { kOff, kOn, kInvalid };

FuzzIncremental FuzzIncrementalMode() {
  const char* env = std::getenv("RPQ_EVAL_INCREMENTAL");
  if (env == nullptr) return FuzzIncremental::kOn;
  const std::string value(env);
  if (value == "on" || value == "1") return FuzzIncremental::kOn;
  if (value == "off" || value == "0") return FuzzIncremental::kOff;
  return FuzzIncremental::kInvalid;
}

/// Whether the fault-injection campaign runs: RPQ_FUZZ_FAULTS ∈ {on, off},
/// default off (the nightly matrix sweeps both). Any other value is a typo
/// and fails the campaign loudly rather than silently fuzzing nothing.
enum class FuzzFaults { kOff, kOn, kInvalid };

FuzzFaults FuzzFaultsMode() {
  const char* env = std::getenv("RPQ_FUZZ_FAULTS");
  if (env == nullptr) return FuzzFaults::kOff;
  const std::string value(env);
  if (value == "on" || value == "1") return FuzzFaults::kOn;
  if (value == "off" || value == "0") return FuzzFaults::kOff;
  return FuzzFaults::kInvalid;
}

// ----------------------------------------------------------- fuzz inputs

/// A graph in shrinkable form: plain edge list plus fixed node/label counts.
/// num_labels never shrinks so the query's alphabet stays valid.
struct EdgeList {
  uint32_t num_nodes = 0;
  uint32_t num_labels = 0;
  std::vector<std::array<uint32_t, 3>> edges;  // {src, label, dst}

  Graph BuildGraph() const {
    GraphBuilder builder;
    std::vector<std::string> labels;
    for (uint32_t i = 0; i < num_labels; ++i) {
      labels.push_back("l" + std::to_string(i));
    }
    builder.InternLabels(labels);
    builder.AddNodes(num_nodes);
    for (const auto& e : edges) {
      builder.AddEdge(e[0], static_cast<Symbol>(e[1]), e[2]);
    }
    return builder.Build();
  }
};

EdgeList ExtractEdgeList(const Graph& g) {
  EdgeList el;
  el.num_nodes = g.num_nodes();
  el.num_labels = g.num_symbols();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const LabeledEdge& e : g.OutEdges(v)) {
      el.edges.push_back({v, e.label, e.node});
    }
  }
  return el;
}

EdgeList RandomEdgeList(Rng* rng, uint32_t num_labels) {
  const uint64_t kind = rng->NextBelow(10);
  if (kind < 5) {
    // Small uniform graphs: the bulk of the corpus.
    ErdosRenyiOptions options;
    options.num_nodes = 2 + static_cast<uint32_t>(rng->NextBelow(60));
    options.num_edges =
        rng->NextBelow(4 * static_cast<size_t>(options.num_nodes) + 1);
    options.num_labels = num_labels;
    options.seed = rng->Next();
    return ExtractEdgeList(GenerateErdosRenyi(options));
  }
  if (kind < 7) {
    // Scale-free topology with Zipfian labels: heavy hubs saturate the
    // product BFS.
    ScaleFreeOptions options;
    options.num_nodes = 10 + static_cast<uint32_t>(rng->NextBelow(80));
    options.num_edges = 3 * static_cast<size_t>(options.num_nodes);
    options.num_labels = num_labels;
    options.seed = rng->Next();
    return ExtractEdgeList(GenerateScaleFree(options));
  }
  // Larger uniform graphs crossing several 64-source lane batches.
  ErdosRenyiOptions options;
  options.num_nodes = 65 + static_cast<uint32_t>(rng->NextBelow(140));
  options.num_edges = 2 * static_cast<size_t>(options.num_nodes) +
                      rng->NextBelow(3 * static_cast<size_t>(options.num_nodes));
  options.num_labels = num_labels;
  options.seed = rng->Next();
  return ExtractEdgeList(GenerateErdosRenyi(options));
}

/// A query DFA plus a human-readable description for reproduction output.
struct FuzzQuery {
  Dfa dfa;
  std::string description;
};

std::string DescribeDfa(const Dfa& dfa) {
  std::ostringstream out;
  out << "dfa states=" << dfa.num_states() << " symbols=" << dfa.num_symbols()
      << " initial=" << dfa.initial_state() << " accepting={";
  bool first = true;
  for (StateId s = 0; s < dfa.num_states(); ++s) {
    if (!dfa.IsAccepting(s)) continue;
    if (!first) out << ",";
    out << s;
    first = false;
  }
  out << "} delta={";
  first = true;
  for (StateId s = 0; s < dfa.num_states(); ++s) {
    for (Symbol a = 0; a < dfa.num_symbols(); ++a) {
      const StateId t = dfa.Next(s, a);
      if (t == kNoState) continue;
      if (!first) out << ", ";
      out << s << "-l" << a << "->" << t;
      first = false;
    }
  }
  out << "}";
  return out.str();
}

FuzzQuery MakeQuery(Rng* rng, uint32_t query_symbols) {
  if (rng->NextBernoulli(0.6)) {
    RandomRegexOptions options;
    options.num_symbols = query_symbols;
    options.max_depth = 2 + static_cast<uint32_t>(rng->NextBelow(3));
    const RegexPtr regex = RandomRegex(rng, options);
    // A local alphabet sized to the query: it may name more symbols than
    // the graph has (the oversized-alphabet cases).
    Alphabet alphabet;
    alphabet.InternGenerated("l", query_symbols);
    FuzzQuery query{RegexToCanonicalDfa(regex, query_symbols),
                    "regex " + RegexToString(regex, alphabet)};
    return query;
  }
  RandomAutomatonOptions options;
  options.num_states = 1 + static_cast<uint32_t>(rng->NextBelow(6));
  options.num_symbols = query_symbols;
  options.transition_density = 0.3 + 0.6 * rng->NextDouble();
  options.accepting_probability = 0.4;
  Dfa dfa = RandomDfa(rng, options);
  std::string description = DescribeDfa(dfa);
  return FuzzQuery{std::move(dfa), std::move(description)};
}

/// The case-defining draws of one fuzz iteration, in their fixed order.
/// The fuzzer and every corpus meta-check below replay this exact prefix
/// from the case seed, so a meta-check always inspects the same graphs and
/// queries the differential matrix actually runs.
struct FuzzCase {
  uint32_t num_labels;
  EdgeList edge_list;
  bool oversized_alphabet;
  FuzzQuery query;
};

FuzzCase DrawCase(Rng* rng) {
  // Discarded draws (a retired shard count, then a retired condense mode):
  // they keep every case seed's graph and query as they were.
  rng->NextBelow(7);
  rng->NextBelow(3);
  const uint32_t num_labels = 1 + static_cast<uint32_t>(rng->NextBelow(4));
  EdgeList edge_list = RandomEdgeList(rng, num_labels);
  // Mostly queries over the graph's alphabet; occasionally a strictly
  // larger query alphabet, which binary semantics must handle (symbols
  // the graph lacks never fire) but monadic rejects by contract.
  const bool oversized_alphabet = rng->NextBernoulli(0.15);
  const uint32_t query_symbols =
      oversized_alphabet
          ? num_labels + 1 + static_cast<uint32_t>(rng->NextBelow(2))
          : num_labels;
  return FuzzCase{num_labels, std::move(edge_list), oversized_alphabet,
                  MakeQuery(rng, query_symbols)};
}

// ------------------------------------------------------- engine configs

struct EngineConfig {
  const char* name;
  uint32_t threads;
};

/// The fuzzed configuration matrix: thread counts 1, 2 and 8.
const EngineConfig kEngineConfigs[] = {
    {"sparse/threads=1", 1},
    {"sparse/threads=2", 2},
    {"sparse/threads=8", 8},
};

EvalOptions ToOptions(const EngineConfig& config) {
  EvalOptions options;
  options.threads = config.threads;
  options.parallel_threshold_pairs = 0;  // force the parallel path
  return options;
}

/// The served semantics: monadic, and binary from sources (all pairs is
/// binary from every node).
enum class CheckKind { kMonadic, kBinaryAllPairs, kBinaryFromSources };

const char* CheckName(CheckKind kind) {
  switch (kind) {
    case CheckKind::kMonadic: return "monadic";
    case CheckKind::kBinaryAllPairs: return "binary-all-pairs";
    case CheckKind::kBinaryFromSources: return "binary-from-sources";
  }
  return "?";
}

/// Clamps a source template onto a (possibly shrunk) graph.
std::vector<NodeId> ClampSources(const std::vector<NodeId>& sources,
                                 uint32_t num_nodes) {
  std::vector<NodeId> clamped;
  for (NodeId src : sources) clamped.push_back(src % num_nodes);
  return clamped;
}

std::vector<std::pair<NodeId, NodeId>> FromSourcesReference(
    const Graph& graph, const Dfa& query, const std::vector<NodeId>& sources) {
  std::vector<std::pair<NodeId, NodeId>> expected;
  for (NodeId src : sources) {
    BitVector targets = EvalBinaryFromReference(graph, query, src);
    for (uint32_t dst : targets.ToIndices()) expected.emplace_back(src, dst);
  }
  return expected;
}

/// True iff `config` disagrees with the seed reference on `check`. The
/// shrinker re-runs this as its failure predicate.
bool Mismatches(const Graph& graph, const Dfa& query, CheckKind check,
                const EngineConfig& config,
                const std::vector<NodeId>& source_template) {
  if (graph.num_nodes() == 0) return false;
  const EvalOptions options = ToOptions(config);
  switch (check) {
    case CheckKind::kMonadic: {
      StatusOr<BitVector> actual = EvalMonadic(graph, query, options);
      if (!actual.ok()) return true;
      return !(*actual == EvalMonadicReference(graph, query));
    }
    case CheckKind::kBinaryAllPairs: {
      auto actual = EvalAllPairs(graph, query, options);
      if (!actual.ok()) return true;
      return *actual != EvalBinaryReference(graph, query);
    }
    case CheckKind::kBinaryFromSources: {
      const std::vector<NodeId> sources =
          ClampSources(source_template, graph.num_nodes());
      auto actual = EvalBinaryFromSources(graph, query, sources, options);
      if (!actual.ok()) return true;
      return *actual != FromSourcesReference(graph, query, sources);
    }
  }
  return false;
}

// ------------------------------------------------------------- shrinking

/// Greedy minimization: repeatedly drop edges, then nodes (remapping ids),
/// keeping any removal under which the mismatch persists. Bounded by a
/// predicate-evaluation budget so a pathological case cannot hang the run.
EdgeList ShrinkGraph(EdgeList current,
                     const std::function<bool(const EdgeList&)>& fails) {
  int budget = 1500;
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    for (size_t i = current.edges.size(); i-- > 0 && budget > 0;) {
      EdgeList candidate = current;
      candidate.edges.erase(candidate.edges.begin() +
                            static_cast<ptrdiff_t>(i));
      --budget;
      if (fails(candidate)) {
        current = std::move(candidate);
        progress = true;
      }
    }
    for (uint32_t v = current.num_nodes; v-- > 0 && budget > 0;) {
      if (current.num_nodes <= 1 || v >= current.num_nodes) continue;
      EdgeList candidate;
      candidate.num_nodes = current.num_nodes - 1;
      candidate.num_labels = current.num_labels;
      for (std::array<uint32_t, 3> e : current.edges) {
        if (e[0] == v || e[2] == v) continue;
        if (e[0] > v) --e[0];
        if (e[2] > v) --e[2];
        candidate.edges.push_back(e);
      }
      --budget;
      if (fails(candidate)) {
        current = std::move(candidate);
        progress = true;
      }
    }
  }
  return current;
}

std::string ReproBlock(uint64_t case_seed, CheckKind check,
                       const EngineConfig& config, const EdgeList& graph,
                       const std::string& query_description,
                       const std::vector<NodeId>& sources) {
  std::ostringstream out;
  out << "\n=== RPQ eval fuzz mismatch (minimized) ===\n"
      << "case_seed: " << case_seed << "\n"
      << "check: " << CheckName(check) << "\n"
      << "engine: " << config.name << "\n"
      << "query: " << query_description << "\n"
      << "graph: nodes=" << graph.num_nodes
      << " labels=" << graph.num_labels << " edges=" << graph.edges.size()
      << "\n";
  for (const auto& e : graph.edges) {
    out << "  " << e[0] << " --l" << e[1] << "--> " << e[2] << "\n";
  }
  if (check == CheckKind::kBinaryFromSources) {
    out << "sources (mod nodes): [";
    for (size_t i = 0; i < sources.size(); ++i) {
      if (i > 0) out << ", ";
      out << sources[i];
    }
    out << "]\n";
  }
  out << "==========================================";
  return out.str();
}

// ------------------------------------------------------------ the fuzzer

TEST(EvalFuzzTest, DifferentialAgainstSeedReference) {
  const StatusOr<uint32_t> iterations =
      FuzzIterations(kDefaultFuzzIterations);
  ASSERT_TRUE(iterations.ok()) << iterations.status().ToString();
  Rng master(0x5eedf00d);
  uint32_t mismatches = 0;
  for (uint32_t iteration = 0; iteration < *iterations; ++iteration) {
    const uint64_t case_seed = master.Next();
    Rng rng(case_seed);
    // The case-defining draws (labels, graph, query) are shared with the
    // fault and update campaigns via DrawCase.
    FuzzCase fuzz_case = DrawCase(&rng);
    const EdgeList& edge_list = fuzz_case.edge_list;
    const Graph graph = edge_list.BuildGraph();
    const bool oversized_alphabet = fuzz_case.oversized_alphabet;
    const FuzzQuery& query = fuzz_case.query;

    // The retired bounded check's length draw, kept so every later draw
    // stays put.
    (void)rng.NextBelow(8);
    std::vector<NodeId> sources;
    const size_t num_sources = 1 + rng.NextBelow(120);
    for (size_t i = 0; i < num_sources; ++i) {
      sources.push_back(
          static_cast<NodeId>(rng.NextBelow(graph.num_nodes())));
    }

    std::vector<CheckKind> checks = {CheckKind::kBinaryAllPairs,
                                     CheckKind::kBinaryFromSources};
    if (!oversized_alphabet) checks.push_back(CheckKind::kMonadic);

    for (CheckKind check : checks) {
      for (const EngineConfig& config : kEngineConfigs) {
        if (!Mismatches(graph, query.dfa, check, config, sources)) {
          continue;
        }
        ++mismatches;
        const EdgeList minimized =
            ShrinkGraph(edge_list, [&](const EdgeList& candidate) {
              return Mismatches(candidate.BuildGraph(), query.dfa, check,
                                config, sources);
            });
        ADD_FAILURE() << ReproBlock(case_seed, check, config, minimized,
                                    query.description, sources);
        break;  // one repro per check is enough; move to the next check
      }
      if (mismatches >= 5) break;  // don't flood the log
    }
    if (mismatches >= 5) {
      ADD_FAILURE() << "stopping after 5 mismatching cases ("
                    << iteration + 1 << " of " << *iterations
                    << " iterations fuzzed)";
      break;
    }
  }
}

/// `value` in double quotes, the way a knob error names it.
std::string Quoted(const char* value) {
  std::string quoted = "\"";
  quoted += value;
  quoted += '"';
  return quoted;
}

TEST(EvalFuzzTest, MalformedIterationCountIsRejected) {
  // A typoed RPQ_FUZZ_ITERS fails the campaigns, naming the value, instead
  // of fuzzing some other count.
  for (const char* bad : {"2k", "garbage", "0", "-5", "", " 7", "1e3",
                          "99999999999"}) {
    const ScopedEnv env("RPQ_FUZZ_ITERS", bad);
    const StatusOr<uint32_t> iterations =
        FuzzIterations(kDefaultFuzzIterations);
    ASSERT_FALSE(iterations.ok()) << "RPQ_FUZZ_ITERS=\"" << bad << "\"";
    EXPECT_EQ(iterations.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(iterations.status().message().find(Quoted(bad)),
              std::string::npos)
        << iterations.status().ToString();
  }
  const ScopedEnv env("RPQ_FUZZ_ITERS", "2000");
  const StatusOr<uint32_t> iterations = FuzzIterations(kDefaultFuzzIterations);
  ASSERT_TRUE(iterations.ok()) << iterations.status().ToString();
  EXPECT_EQ(*iterations, 2000u);
}

// ------------------------------------------------- fault-injection fuzzing

/// One evaluation of `check` under `options`, serialized to a comparable
/// string. Unlike Mismatches, a non-ok result is surfaced to the caller —
/// the fault campaign needs to distinguish a legitimate trip from a wrong
/// answer.
StatusOr<std::string> RunCheckSerialized(const Graph& graph, const Dfa& query,
                                         CheckKind check,
                                         const EvalOptions& options,
                                         const std::vector<NodeId>& sources) {
  std::string rendered;
  switch (check) {
    case CheckKind::kMonadic: {
      StatusOr<BitVector> actual = EvalMonadic(graph, query, options);
      if (!actual.ok()) return actual.status();
      for (uint32_t v : actual->ToIndices()) {
        rendered += std::to_string(v) + ";";
      }
      return rendered;
    }
    case CheckKind::kBinaryAllPairs: {
      auto actual = EvalAllPairs(graph, query, options);
      if (!actual.ok()) return actual.status();
      for (const auto& [src, dst] : *actual) {
        rendered += std::to_string(src) + ">" + std::to_string(dst) + ";";
      }
      return rendered;
    }
    case CheckKind::kBinaryFromSources: {
      auto actual = EvalBinaryFromSources(graph, query, sources, options);
      if (!actual.ok()) return actual.status();
      for (const auto& [src, dst] : *actual) {
        rendered += std::to_string(src) + ">" + std::to_string(dst) + ";";
      }
      return rendered;
    }
  }
  return rendered;
}

TEST(EvalFuzzTest, FaultInjectionCampaign) {
  // Seeded fault-injection campaign over the shared fuzz corpus: each case
  // replays the exact DrawCase prefix of the differential fuzzer, picks one
  // engine configuration and check kind, measures the uninterrupted run's
  // checkpoint count, then re-runs with a randomly drawn FaultPlan. A plan
  // that fires must unwind to the matching typed Status with progress
  // attached, and a fresh retry must reproduce the reference result
  // bit-identically; a plan whose trigger lies beyond the run must change
  // nothing. Off by default (RPQ_FUZZ_FAULTS=on enables; the nightly job
  // sweeps {off, on}).
  const FuzzFaults faults_mode = FuzzFaultsMode();
  ASSERT_NE(faults_mode, FuzzFaults::kInvalid)
      << "invalid RPQ_FUZZ_FAULTS value \"" << std::getenv("RPQ_FUZZ_FAULTS")
      << "\"; expected \"on\" or \"off\"";
  if (faults_mode == FuzzFaults::kOff) {
    GTEST_SKIP() << "fault-injection campaign disabled; set "
                    "RPQ_FUZZ_FAULTS=on to run it";
  }

  const StatusOr<uint32_t> iterations =
      FuzzIterations(kDefaultFuzzIterations);
  ASSERT_TRUE(iterations.ok()) << iterations.status().ToString();
  // The engine draw stays ten-way, so every later draw of a case stays put;
  // its slots map onto the three configurations by thread count.
  constexpr size_t kConfigSlots[] = {0, 1, 2, 0, 1, 2, 0, 1, 2, 0};
  Rng master(0x5eedf00d);
  uint64_t fired_cases = 0;
  for (uint32_t iteration = 0; iteration < *iterations; ++iteration) {
    const uint64_t case_seed = master.Next();
    Rng rng(case_seed);
    FuzzCase fuzz_case = DrawCase(&rng);
    const Graph graph = fuzz_case.edge_list.BuildGraph();
    // The retired bounded check's length draw, kept so every later draw
    // stays put.
    (void)rng.NextBelow(8);
    std::vector<NodeId> sources;
    const size_t num_sources = 1 + rng.NextBelow(120);
    for (size_t i = 0; i < num_sources; ++i) {
      sources.push_back(
          static_cast<NodeId>(rng.NextBelow(graph.num_nodes())));
    }

    // The retired bounded check's slot keeps its draw and runs the monadic
    // check, so the check, engine and fault-plan draws stay put.
    std::vector<CheckKind> checks = {CheckKind::kBinaryAllPairs,
                                     CheckKind::kBinaryFromSources};
    if (!fuzz_case.oversized_alphabet) {
      checks.push_back(CheckKind::kMonadic);
      checks.push_back(CheckKind::kMonadic);
    }
    const CheckKind check = checks[rng.NextBelow(checks.size())];
    const EngineConfig& config =
        kEngineConfigs[kConfigSlots[rng.NextBelow(std::size(kConfigSlots))]];
    SCOPED_TRACE("case_seed=" + std::to_string(case_seed) + " check=" +
                 CheckName(check) + " engine=" + config.name);

    // Uninterrupted run: reference result + total checkpoint count.
    EvalOptions options = ToOptions(config);
    ExecContext baseline;
    EvalStats baseline_stats;
    options.exec = &baseline;
    options.stats = &baseline_stats;
    StatusOr<std::string> reference =
        RunCheckSerialized(graph, fuzz_case.query.dfa, check, options,
                           sources);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const uint64_t total_checkpoints = baseline.checkpoints();
    if (total_checkpoints == 0) continue;  // empty case: nowhere to inject

    // Injected run. The trigger range deliberately overshoots by ~25% so a
    // slice of the plans never fires — those must be perfect no-ops.
    const FaultPlan plan =
        DrawFaultPlan(&rng, total_checkpoints + total_checkpoints / 4 + 1);
    FaultInjector injector(plan);
    ExecContext exec;
    exec.set_fault_injector(&injector);
    EvalStats stats;
    options.exec = &exec;
    options.stats = &stats;
    StatusOr<std::string> injected = RunCheckSerialized(
        graph, fuzz_case.query.dfa, check, options, sources);

    if (injector.fired()) {
      ++fired_cases;
      ASSERT_FALSE(injected.ok())
          << "plan fired at checkpoint " << plan.trigger_checkpoint
          << " but the engine returned a result";
      EXPECT_EQ(injected.status().code(), FaultInjector::CodeFor(plan.kind))
          << injected.status().ToString();
      EXPECT_NE(injected.status().message().find("progress:"),
                std::string::npos)
          << injected.status().ToString();

      ExecContext retry_exec;
      EvalStats retry_stats;
      options.exec = &retry_exec;
      options.stats = &retry_stats;
      StatusOr<std::string> retry = RunCheckSerialized(
          graph, fuzz_case.query.dfa, check, options, sources);
      ASSERT_TRUE(retry.ok()) << retry.status().ToString();
      EXPECT_EQ(*retry, *reference)
          << "retry after an injected trip diverged from the reference";
    } else {
      ASSERT_TRUE(injected.ok()) << injected.status().ToString();
      EXPECT_EQ(*injected, *reference)
          << "an unfired injector perturbed the result";
    }
    if (HasFailure()) return;  // one repro is enough; stop the campaign
  }
  // The overshoot keeps ~80% of plans inside the run; a campaign where
  // (almost) nothing fired is fuzzing nothing and must fail loudly.
  EXPECT_GT(fired_cases, *iterations / 4)
      << "too few injected faults actually fired";
}

// ---------------------------------------- update-interleaving fuzzing

// Differential fuzzing of the delta-edge overlay and its update routing:
// random traces of insert/delete/compact/evaluate steps replayed against a
// DynamicGraph (overlay reads, auto-compaction), with every evaluation
// diffed bit-for-bit against a rebuild-from-scratch oracle — a fresh CSR
// built from an independently maintained edge-set model, evaluated by the
// seed reference. A mismatch is shrunk over *both* axes (drop trace steps,
// then shrink the initial graph, then drop steps again) and printed as a
// repro block that serializes the full mutation trace, so a failing case
// replays standalone.

/// One step of an update-interleaving trace. Endpoints and labels are
/// stored raw and clamped (mod the live node/label counts) at replay, so a
/// shrunk graph keeps every step meaningful — the same trick ClampSources
/// plays for the from-sources templates. A delete's raw `src` instead picks
/// one of the live edges (see StepEdge).
struct TraceStep {
  enum Kind : uint8_t { kInsert, kDelete, kCompact, kEvaluate };
  Kind kind = kInsert;
  uint32_t src = 0;
  uint32_t label = 0;
  uint32_t dst = 0;
};

struct UpdateTrace {
  EdgeList initial;
  std::vector<TraceStep> steps;
};

using EdgeModel = std::set<std::array<uint32_t, 3>>;  // {src, label, dst}

/// The edge a trace step names, given the live edge set before the step:
/// an insert names its clamped operands; a delete names the
/// (src mod |model|)-th live edge, so that deletes land (random operands
/// would almost never hit a live edge of a small graph), or its clamped
/// operands when no edge is live.
std::array<uint32_t, 3> StepEdge(const TraceStep& step, const EdgeModel& model,
                                 uint32_t num_nodes, uint32_t num_labels) {
  if (step.kind == TraceStep::kDelete && !model.empty()) {
    return *std::next(model.begin(),
                      static_cast<ptrdiff_t>(step.src % model.size()));
  }
  return {step.src % num_nodes, step.label % num_labels,
          step.dst % num_nodes};
}

std::vector<TraceStep> DrawTraceSteps(Rng* rng) {
  std::vector<TraceStep> steps;
  const size_t num_steps = 4 + rng->NextBelow(28);
  for (size_t i = 0; i < num_steps; ++i) {
    TraceStep step;
    const uint64_t kind = rng->NextBelow(100);
    if (kind < 40) {
      step.kind = TraceStep::kInsert;
    } else if (kind < 65) {
      step.kind = TraceStep::kDelete;
    } else if (kind < 70) {
      step.kind = TraceStep::kCompact;
    } else {
      step.kind = TraceStep::kEvaluate;
    }
    step.src = static_cast<uint32_t>(rng->Next() & 0xffffffffu);
    step.label = static_cast<uint32_t>(rng->Next() & 0xffffffffu);
    step.dst = static_cast<uint32_t>(rng->Next() & 0xffffffffu);
    steps.push_back(step);
  }
  // Every trace ends in an evaluation so trailing mutations are observed.
  steps.push_back(TraceStep{TraceStep::kEvaluate, 0, 0, 0});
  return steps;
}

/// The update campaign's engine rows: threads {1, 8}.
struct UpdateRow {
  const char* name;
  uint32_t threads;
};

const UpdateRow kUpdateRows[] = {
    {"threads=1", 1},
    {"threads=8", 8},
};
constexpr size_t kNumUpdateRows = sizeof(kUpdateRows) / sizeof(kUpdateRows[0]);

EvalOptions UpdateRowOptions(const UpdateRow& row) {
  EvalOptions options;
  options.threads = row.threads;
  options.parallel_threshold_pairs = 0;
  return options;
}

/// The seed-reference result of `check`, serialized exactly like
/// RunCheckSerialized renders the engine result — the oracle side of the
/// bit-for-bit diff.
std::string RunReferenceSerialized(const Graph& graph, const Dfa& query,
                                   CheckKind check,
                                   const std::vector<NodeId>& sources) {
  std::string rendered;
  switch (check) {
    case CheckKind::kMonadic:
      for (uint32_t v : EvalMonadicReference(graph, query).ToIndices()) {
        rendered += std::to_string(v) + ";";
      }
      return rendered;
    case CheckKind::kBinaryAllPairs:
      for (const auto& [src, dst] : EvalBinaryReference(graph, query)) {
        rendered += std::to_string(src) + ">" + std::to_string(dst) + ";";
      }
      return rendered;
    case CheckKind::kBinaryFromSources:
      for (const auto& [src, dst] :
           FromSourcesReference(graph, query, sources)) {
        rendered += std::to_string(src) + ">" + std::to_string(dst) + ";";
      }
      return rendered;
  }
  return rendered;
}

/// A maintained monadic result rendered like RunReferenceSerialized's
/// monadic check, or its error status.
std::string SerializeSelected(const StatusOr<const BitVector*>& selected) {
  if (!selected.ok()) return selected.status().ToString();
  std::string rendered;
  for (uint32_t v : (*selected)->ToIndices()) {
    rendered += std::to_string(v) + ";";
  }
  return rendered;
}

/// Sentinel: no sabotage — the honest replay of the campaign.
constexpr size_t kNoSabotage = static_cast<size_t>(-1);

/// Which deliberate bug a replay injects, for the harness-sensitivity
/// tests. The first two target the trace's last insert step, the third
/// every delete step: one withheld re-derive seldom shows in a small graph,
/// and the cases it shows in take the shrinker seconds to minimize.
enum class Sabotage {
  kNone,
  /// The insert is applied to the oracle model but *withheld* from the
  /// DynamicGraph, as if the overlay had dropped the update — every
  /// evaluation after it can see the divergence.
  kDropLastInsert,
  /// The insert reaches the DynamicGraph (plain evaluations stay correct)
  /// but the live materialized query withholds its delta-frontier
  /// re-seeding (SkipNextInsertReseedForTesting) — a wrong incremental
  /// repair only the materialized diff can catch.
  kSkipLastReseed,
  /// Deletes reach the DynamicGraph, but the live materialized query
  /// repairs every batch holding one without the re-derive step
  /// (SkipNextRederiveForTesting), so over-deleted cells that keep another
  /// derivation stay dropped.
  kSkipRederive,
};

/// Replays `trace` and serializes every evaluation's engine result (plus
/// edge-count/version breadcrumbs), returning the mismatch count against
/// the rebuild-from-scratch oracle. The engine side is a DynamicGraph
/// evaluated through its overlay; the oracle side is an independent
/// edge-set model rebuilt into a fresh CSR per evaluation and evaluated by
/// the seed reference.
///
/// With RPQ_EVAL_INCREMENTAL on (the default), the DynamicGraph also
/// carries (query alphabet permitting) a MaterializedMonadic and an Engine
/// plan across the whole trace — the updates between two evaluation steps
/// repaired as one batch at the second, auto-compactions firing at a tiny
/// threshold — and every evaluation step additionally diffs both
/// maintained results against the same oracle. Evaluation steps fall at
/// random gaps, so batches of every size from 1 up occur.
uint32_t ReplayTrace(const UpdateTrace& trace, const Dfa& query,
                     const UpdateRow& row, CheckKind check,
                     const std::vector<NodeId>& sources, Sabotage sabotage,
                     std::string* fingerprint) {
  const uint32_t n = trace.initial.num_nodes;
  const uint32_t num_labels = trace.initial.num_labels;
  if (n == 0) return 0;

  size_t sabotaged_step = kNoSabotage;
  if (sabotage == Sabotage::kDropLastInsert ||
      sabotage == Sabotage::kSkipLastReseed) {
    for (size_t i = trace.steps.size(); i-- > 0;) {
      if (trace.steps[i].kind == TraceStep::kInsert) {
        sabotaged_step = i;
        break;
      }
    }
  }

  DynamicGraph dynamic(trace.initial.BuildGraph());
  EdgeModel model(trace.initial.edges.begin(), trace.initial.edges.end());

  const EvalOptions options = UpdateRowOptions(row);
  const std::vector<NodeId> clamped = ClampSources(sources, n);
  uint32_t mismatch_count = 0;

  // A live materialized monadic query riding the full trace, skipped for
  // oversized query alphabets like the monadic checks. The tiny
  // auto-compact threshold makes most traces compact mid-flight, covering
  // the notification path under materialized results.
  MaterializedMonadic* mm = nullptr;
  std::unique_ptr<Engine> engine;
  Engine::PlanPtr plan;
  if (FuzzIncrementalMode() == FuzzIncremental::kOn) {
    dynamic.set_auto_compact_threshold(6);
    if (query.num_symbols() <= num_labels) {
      StatusOr<MaterializedMonadic*> monadic =
          dynamic.MaterializeMonadic(query, options);
      if (monadic.ok()) mm = *monadic; else ++mismatch_count;
      engine = std::make_unique<Engine>(dynamic, EngineOptions{options});
      StatusOr<Engine::PlanPtr> planned = engine->Plan(query);
      // The first run builds the fixed point the trace then repairs.
      if (planned.ok() && (*planned)->RunMonadic().ok()) {
        plan = *planned;
      } else {
        ++mismatch_count;
      }
    }
  }

  size_t eval_index = 0;
  for (size_t i = 0; i < trace.steps.size(); ++i) {
    const TraceStep& step = trace.steps[i];
    const auto [src, label, dst] = StepEdge(step, model, n, num_labels);
    switch (step.kind) {
      case TraceStep::kInsert:
        model.insert({src, label, dst});
        if (i == sabotaged_step && sabotage == Sabotage::kDropLastInsert) {
          break;
        }
        if (i == sabotaged_step && sabotage == Sabotage::kSkipLastReseed &&
            mm != nullptr) {
          mm->SkipNextInsertReseedForTesting();
        }
        dynamic.InsertEdge(src, label, dst);
        break;
      case TraceStep::kDelete:
        model.erase({src, label, dst});
        if (sabotage == Sabotage::kSkipRederive && mm != nullptr) {
          mm->SkipNextRederiveForTesting();
        }
        dynamic.DeleteEdge(src, label, dst);
        break;
      case TraceStep::kCompact:
        dynamic.Compact();
        break;
      case TraceStep::kEvaluate: {
        // Rebuild-from-scratch oracle: fresh CSR from the model.
        EdgeList rebuilt;
        rebuilt.num_nodes = n;
        rebuilt.num_labels = num_labels;
        rebuilt.edges.assign(model.begin(), model.end());
        const Graph oracle_graph = rebuilt.BuildGraph();

        StatusOr<std::string> actual = RunCheckSerialized(
            dynamic.graph(), query, check, options, clamped);
        const std::string expected =
            RunReferenceSerialized(oracle_graph, query, check, clamped);
        const bool mismatch = !actual.ok() || *actual != expected;
        if (mismatch) ++mismatch_count;
        if (fingerprint != nullptr) {
          *fingerprint += "eval#" + std::to_string(eval_index) + " edges=" +
                          std::to_string(dynamic.graph().num_edges()) +
                          " version=" +
                          std::to_string(dynamic.graph().version()) + " -> " +
                          (actual.ok() ? *actual : actual.status().ToString())
                          + "\n";
        }

        // The live materialized results, diffed against the same oracle.
        if (mm != nullptr) {
          const std::string mm_actual = SerializeSelected(mm->Results());
          const std::string mm_expected = RunReferenceSerialized(
              oracle_graph, query, CheckKind::kMonadic, clamped);
          if (mm_actual != mm_expected) ++mismatch_count;
          if (fingerprint != nullptr) {
            *fingerprint += "  mm repairs=" +
                            std::to_string(mm->stats().repairs) +
                            " rebuilds=" +
                            std::to_string(mm->stats().full_evals) + " -> " +
                            mm_actual + "\n";
          }
          if (plan != nullptr) {
            const std::string plan_actual =
                SerializeSelected(plan->RunMonadic());
            if (plan_actual != mm_expected) ++mismatch_count;
            if (fingerprint != nullptr) {
              *fingerprint += "  plan -> " + plan_actual + "\n";
            }
          }
        }
        ++eval_index;
        break;
      }
    }
  }
  return mismatch_count;
}

/// Greedy two-axis minimization: drop trace steps, shrink the initial
/// graph (edges then nodes, with the steps clamped mod the shrunk counts),
/// then drop steps again — keeping every reduction under which the
/// mismatch persists.
UpdateTrace ShrinkTrace(UpdateTrace current,
                        const std::function<bool(const UpdateTrace&)>& fails) {
  const auto drop_steps = [&](UpdateTrace trace) {
    bool progress = true;
    int budget = 400;
    while (progress && budget > 0) {
      progress = false;
      for (size_t i = trace.steps.size(); i-- > 0 && budget > 0;) {
        UpdateTrace candidate = trace;
        candidate.steps.erase(candidate.steps.begin() +
                              static_cast<ptrdiff_t>(i));
        --budget;
        if (fails(candidate)) {
          trace = std::move(candidate);
          progress = true;
        }
      }
    }
    return trace;
  };
  current = drop_steps(std::move(current));
  UpdateTrace with_shrunk_graph = current;
  with_shrunk_graph.initial =
      ShrinkGraph(current.initial, [&](const EdgeList& candidate) {
        UpdateTrace probe = current;
        probe.initial = candidate;
        return fails(probe);
      });
  if (fails(with_shrunk_graph)) current = std::move(with_shrunk_graph);
  return drop_steps(std::move(current));
}

const char* StepName(TraceStep::Kind kind) {
  switch (kind) {
    case TraceStep::kInsert: return "insert";
    case TraceStep::kDelete: return "delete";
    case TraceStep::kCompact: return "compact";
    case TraceStep::kEvaluate: return "evaluate";
  }
  return "?";
}

/// Serializes the *full mutation trace* — initial graph plus every step
/// with its clamped operands — so a shrunk failing case replays standalone
/// without the original RNG stream.
std::string UpdateReproBlock(uint64_t case_seed, CheckKind check,
                             const UpdateRow& row, const UpdateTrace& trace,
                             const std::string& query_description,
                             const std::vector<NodeId>& sources) {
  std::ostringstream out;
  out << "\n=== RPQ update-interleaving fuzz mismatch (minimized) ===\n"
      << "case_seed: " << case_seed << "\n"
      << "check: " << CheckName(check) << "\n"
      << "engine: " << row.name << "\n"
      << "query: " << query_description << "\n"
      << "initial graph: nodes=" << trace.initial.num_nodes
      << " labels=" << trace.initial.num_labels
      << " edges=" << trace.initial.edges.size() << "\n";
  for (const auto& e : trace.initial.edges) {
    out << "  " << e[0] << " --l" << e[1] << "--> " << e[2] << "\n";
  }
  out << "trace (" << trace.steps.size() << " steps):\n";
  EdgeModel model(trace.initial.edges.begin(), trace.initial.edges.end());
  for (const TraceStep& step : trace.steps) {
    out << "  " << StepName(step.kind);
    if (step.kind == TraceStep::kInsert || step.kind == TraceStep::kDelete) {
      const std::array<uint32_t, 3> edge =
          StepEdge(step, model, trace.initial.num_nodes,
                   trace.initial.num_labels);
      out << " " << edge[0] << " --l" << edge[1] << "--> " << edge[2];
      if (step.kind == TraceStep::kInsert) {
        model.insert(edge);
      } else {
        model.erase(edge);
      }
    }
    out << "\n";
  }
  if (check == CheckKind::kBinaryFromSources) {
    out << "sources (mod nodes): [";
    for (size_t i = 0; i < sources.size(); ++i) {
      if (i > 0) out << ", ";
      out << sources[i];
    }
    out << "]\n";
  }
  out << "=========================================================";
  return out.str();
}

/// The case-defining draws of one update-campaign iteration: the shared
/// DrawCase prefix (graph, query) followed by the trace
/// draws, in this exact order — the campaign, the determinism meta-check,
/// and the injected-bug test all replay it from the case seed.
struct UpdateCase {
  FuzzCase base;
  std::vector<NodeId> sources;
  UpdateTrace trace;
};

UpdateCase DrawUpdateCase(Rng* rng) {
  FuzzCase base = DrawCase(rng);
  // The retired bounded check's length draw, kept so every later draw
  // stays put.
  (void)rng->NextBelow(8);
  std::vector<NodeId> sources;
  const size_t num_sources = 1 + rng->NextBelow(40);
  for (size_t i = 0; i < num_sources; ++i) {
    sources.push_back(static_cast<NodeId>(rng->Next() & 0xffffffffu));
  }
  UpdateTrace trace;
  trace.initial = base.edge_list;
  trace.steps = DrawTraceSteps(rng);
  return UpdateCase{std::move(base), std::move(sources), std::move(trace)};
}

/// The per-evaluation check rotates with the row so every (check, row)
/// pairing appears across the campaign; monadic contracts exclude
/// oversized-alphabet cases exactly like the static fuzzer. The retired
/// bounded check's slot runs the monadic check, so every other case keeps
/// its check.
CheckKind UpdateCheckFor(size_t ordinal, bool oversized_alphabet) {
  constexpr CheckKind kAll[] = {CheckKind::kBinaryAllPairs,
                                CheckKind::kMonadic,
                                CheckKind::kBinaryFromSources,
                                CheckKind::kMonadic};
  constexpr CheckKind kBinaryOnly[] = {CheckKind::kBinaryAllPairs,
                                       CheckKind::kBinaryFromSources};
  return oversized_alphabet ? kBinaryOnly[ordinal % 2] : kAll[ordinal % 4];
}

TEST(EvalFuzzTest, UpdateInterleavingDifferentialCampaign) {
  const FuzzUpdates updates_mode = FuzzUpdatesMode();
  ASSERT_NE(updates_mode, FuzzUpdates::kInvalid)
      << "invalid RPQ_FUZZ_UPDATES value \"" << std::getenv("RPQ_FUZZ_UPDATES")
      << "\"; expected \"on\" or \"off\"";
  if (updates_mode == FuzzUpdates::kOff) {
    GTEST_SKIP() << "update-interleaving campaign disabled; set "
                    "RPQ_FUZZ_UPDATES=on to run it";
  }
  ASSERT_NE(FuzzIncrementalMode(), FuzzIncremental::kInvalid)
      << "invalid RPQ_EVAL_INCREMENTAL value \""
      << std::getenv("RPQ_EVAL_INCREMENTAL")
      << "\"; expected \"on\" or \"off\"";

  const StatusOr<uint32_t> iterations =
      FuzzIterations(kDefaultFuzzIterations);
  ASSERT_TRUE(iterations.ok()) << iterations.status().ToString();
  Rng master(0x5eedda7a);
  uint32_t mismatching_cases = 0;
  for (uint32_t iteration = 0; iteration < *iterations; ++iteration) {
    const uint64_t case_seed = master.Next();
    Rng rng(case_seed);
    const UpdateCase update = DrawUpdateCase(&rng);

    bool case_failed = false;
    for (size_t r = 0; r < kNumUpdateRows && !case_failed; ++r) {
      const UpdateRow& row = kUpdateRows[r];
      const CheckKind check =
          UpdateCheckFor(iteration + r, update.base.oversized_alphabet);
      if (ReplayTrace(update.trace, update.base.query.dfa, row, check,
                      update.sources, Sabotage::kNone, nullptr) == 0) {
        continue;
      }
      ++mismatching_cases;
      case_failed = true;
      const UpdateTrace minimized =
          ShrinkTrace(update.trace, [&](const UpdateTrace& candidate) {
            return ReplayTrace(candidate, update.base.query.dfa, row, check,
                               update.sources, Sabotage::kNone, nullptr) > 0;
          });
      ADD_FAILURE() << UpdateReproBlock(case_seed, check, row, minimized,
                                        update.base.query.description,
                                        update.sources);
    }
    if (mismatching_cases >= 5) {
      ADD_FAILURE() << "stopping after 5 mismatching cases ("
                    << iteration + 1 << " of " << *iterations
                    << " iterations fuzzed)";
      break;
    }
  }
}

TEST(EvalFuzzTest, UpdateTraceReplayIsDeterministic) {
  // Meta-check on the campaign harness: replaying the same trace twice —
  // including materialized repairs, auto-compactions, and the oracle
  // rebuilds — must produce byte-identical evaluation fingerprints,
  // the property that makes every repro block replayable standalone.
  if (FuzzUpdatesMode() == FuzzUpdates::kOff) {
    GTEST_SKIP() << "update-interleaving campaign disabled";
  }
  Rng master(0x5eedda7a);
  for (uint32_t iteration = 0; iteration < 15; ++iteration) {
    const uint64_t case_seed = master.Next();
    Rng rng(case_seed);
    const UpdateCase update = DrawUpdateCase(&rng);
    const UpdateRow& row = kUpdateRows[iteration % kNumUpdateRows];
    const CheckKind check =
        UpdateCheckFor(iteration, update.base.oversized_alphabet);
    std::string first, second;
    const uint32_t mismatches_first =
        ReplayTrace(update.trace, update.base.query.dfa, row, check,
                    update.sources, Sabotage::kNone, &first);
    const uint32_t mismatches_second =
        ReplayTrace(update.trace, update.base.query.dfa, row, check,
                    update.sources, Sabotage::kNone, &second);
    ASSERT_EQ(mismatches_first, 0u) << "case_seed=" << case_seed;
    ASSERT_EQ(mismatches_second, 0u);
    ASSERT_EQ(first, second) << "replay diverged, case_seed=" << case_seed;
    ASSERT_FALSE(first.empty());  // every trace ends in an evaluation
  }
}

TEST(EvalFuzzTest, InjectedOverlayBugIsCaughtAndShrunkToAMinimalTrace) {
  // Harness-sensitivity proof: simulate an overlay that silently drops an
  // update (the trace's last insert is applied to the oracle model but
  // withheld from the DynamicGraph) and require the campaign to (a) catch
  // it within a few corpus cases and (b) shrink it to a minimal trace —
  // a handful of steps over a near-empty graph, serialized in full in the
  // repro block.
  if (FuzzUpdatesMode() == FuzzUpdates::kOff) {
    GTEST_SKIP() << "update-interleaving campaign disabled";
  }
  Rng master(0x5eedda7a);
  for (uint32_t iteration = 0; iteration < 60; ++iteration) {
    const uint64_t case_seed = master.Next();
    Rng rng(case_seed);
    const UpdateCase update = DrawUpdateCase(&rng);
    const UpdateRow& row = kUpdateRows[iteration % kNumUpdateRows];
    const CheckKind check = CheckKind::kBinaryAllPairs;
    const auto buggy_fails = [&](const UpdateTrace& candidate) {
      return ReplayTrace(candidate, update.base.query.dfa, row, check,
                         update.sources, Sabotage::kDropLastInsert,
                         nullptr) > 0;
    };
    if (!buggy_fails(update.trace)) continue;  // bug invisible in this case

    const UpdateTrace minimized = ShrinkTrace(update.trace, buggy_fails);
    // The minimal witness is insert-then-evaluate (the shrinker may keep a
    // step or two more when the mismatch needs graph context).
    EXPECT_LE(minimized.steps.size(), 4u);
    EXPECT_LE(minimized.initial.edges.size(), 12u);
    EXPECT_TRUE(buggy_fails(minimized));
    const std::string repro =
        UpdateReproBlock(case_seed, check, row, minimized,
                         update.base.query.description, update.sources);
    EXPECT_NE(repro.find("trace ("), std::string::npos);
    EXPECT_NE(repro.find("insert"), std::string::npos);
    return;  // demonstrated: caught + shrunk
  }
  FAIL() << "no corpus case exposed the injected overlay bug within 60 "
            "iterations — the campaign lost its sensitivity";
}

TEST(EvalFuzzTest, WithheldReseedIsCaughtByTheMaterializedDiff) {
  // Harness-sensitivity proof for the incremental layer: the trace's last
  // insert reaches the DynamicGraph — every plain evaluation stays correct
  // — but the live materialized query withholds its delta-frontier
  // re-seeding, so only the materialized diff can see the corruption.
  // Catching and shrinking it proves the campaign genuinely exercises the
  // in-place repair path rather than riding along on rebuilds.
  if (FuzzUpdatesMode() == FuzzUpdates::kOff) {
    GTEST_SKIP() << "update-interleaving campaign disabled";
  }
  if (FuzzIncrementalMode() != FuzzIncremental::kOn) {
    GTEST_SKIP() << "materialized-query diff disabled; set "
                    "RPQ_EVAL_INCREMENTAL=on to run them";
  }
  Rng master(0x5eedda7a);
  for (uint32_t iteration = 0; iteration < 60; ++iteration) {
    const uint64_t case_seed = master.Next();
    Rng rng(case_seed);
    const UpdateCase update = DrawUpdateCase(&rng);
    const UpdateRow& row = kUpdateRows[iteration % kNumUpdateRows];
    const CheckKind check = CheckKind::kBinaryAllPairs;
    const auto buggy_fails = [&](const UpdateTrace& candidate) {
      return ReplayTrace(candidate, update.base.query.dfa, row, check,
                         update.sources, Sabotage::kSkipLastReseed,
                         nullptr) > 0;
    };
    // A case only exposes the bug when the last insert actually grows the
    // materialized result and nothing downstream forces a healing rebuild
    // — most corpus cases qualify within a few draws.
    if (!buggy_fails(update.trace)) continue;

    // The honest replay of the same trace must be clean: the corruption is
    // the sabotage, not the trace.
    ASSERT_EQ(ReplayTrace(update.trace, update.base.query.dfa, row, check,
                          update.sources, Sabotage::kNone, nullptr),
              0u)
        << "case_seed=" << case_seed;

    const UpdateTrace minimized = ShrinkTrace(update.trace, buggy_fails);
    // Minimal witness: an insert whose re-seed is withheld, then an
    // evaluation that reads the stale materialization.
    EXPECT_LE(minimized.steps.size(), 4u);
    EXPECT_TRUE(buggy_fails(minimized));
    return;  // demonstrated: caught + shrunk
  }
  FAIL() << "no corpus case exposed the withheld re-seed within 60 "
            "iterations — the materialized diff lost its sensitivity";
}

TEST(EvalFuzzTest, WithheldRederiveIsCaughtByTheMaterializedDiff) {
  // Harness-sensitivity proof for the delete repair: every delete reaches
  // the DynamicGraph, but the live materialization repairs each batch
  // holding one without the re-derive step, so a cell a delete
  // over-deleted stays dropped although another derivation keeps it. Only
  // the materialized diff can see it; the campaign must catch and shrink it.
  if (FuzzUpdatesMode() == FuzzUpdates::kOff) {
    GTEST_SKIP() << "update-interleaving campaign disabled";
  }
  if (FuzzIncrementalMode() != FuzzIncremental::kOn) {
    GTEST_SKIP() << "materialized-query diff disabled; set "
                    "RPQ_EVAL_INCREMENTAL=on to run them";
  }
  Rng master(0x5eedda7a);
  for (uint32_t iteration = 0; iteration < 60; ++iteration) {
    const uint64_t case_seed = master.Next();
    Rng rng(case_seed);
    const UpdateCase update = DrawUpdateCase(&rng);
    const UpdateRow& row = kUpdateRows[iteration % kNumUpdateRows];
    const CheckKind check = CheckKind::kBinaryAllPairs;
    const auto buggy_fails = [&](const UpdateTrace& candidate) {
      return ReplayTrace(candidate, update.base.query.dfa, row, check,
                         update.sources, Sabotage::kSkipRederive,
                         nullptr) > 0;
    };
    // A case exposes the bug only when a delete over-deletes a cell that
    // keeps another derivation and no later rebuild heals it.
    if (!buggy_fails(update.trace)) continue;

    ASSERT_EQ(ReplayTrace(update.trace, update.base.query.dfa, row, check,
                          update.sources, Sabotage::kNone, nullptr),
              0u)
        << "case_seed=" << case_seed;

    const UpdateTrace minimized = ShrinkTrace(update.trace, buggy_fails);
    // Minimal witness: the delete, then an evaluation that reads the
    // repaired materialization (the graph supplies the other derivation).
    EXPECT_LE(minimized.steps.size(), 4u);
    EXPECT_TRUE(buggy_fails(minimized));
    const std::string repro =
        UpdateReproBlock(case_seed, check, row, minimized,
                         update.base.query.description, update.sources);
    EXPECT_NE(repro.find("delete"), std::string::npos);
    return;  // demonstrated: caught + shrunk
  }
  FAIL() << "no corpus case exposed the withheld re-derive within 60 "
            "iterations — the materialized diff lost its sensitivity";
}

}  // namespace
}  // namespace rpqlearn
