// Hot-path benchmark: zero-copy RPNI merge trials and CSR query evaluation
// versus the retained seed reference implementations. Emits machine-readable
// BENCH_hotpath.json so successive PRs can track the trajectory.
//
// Scale is selected with RPQ_BENCH_SCALE (see bench_common.h); every
// configuration checks the fast path's output against the reference before
// reporting, so a reported speedup is also a correctness witness.

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "automata/pta.h"
#include "bench/bench_common.h"
#include "graph/dynamic.h"
#include "graph/generators.h"
#include "learn/rpni.h"
#include "query/engine.h"
#include "query/eval.h"
#include "query/eval_incremental.h"
#include "query/eval_reference.h"
#include "query/path_query.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace rpqlearn {
namespace {

Word RandomWord(Rng* rng, uint32_t num_symbols, size_t min_len,
                size_t max_len) {
  Word w;
  const size_t len = min_len + rng->NextBelow(max_len - min_len + 1);
  for (size_t i = 0; i < len; ++i) {
    w.push_back(static_cast<Symbol>(rng->NextBelow(num_symbols)));
  }
  return w;
}

struct MergeBenchResult {
  size_t pta_states = 0;
  size_t attempted = 0;
  double ref_seconds = 0;
  double fast_seconds = 0;
};

/// RPNI on a synthetic word sample, reference (per-trial DFA copy) vs
/// zero-copy partition trials, with identical consistency semantics.
MergeBenchResult BenchMergeTrials(size_t num_positive, size_t num_negative,
                                  size_t max_len) {
  Rng rng(2024);
  const uint32_t sigma = 4;
  WordSample sample;
  for (size_t i = 0; i < num_positive; ++i) {
    sample.positive.push_back(RandomWord(&rng, sigma, 2, max_len));
  }
  Dfa pta = BuildPta(sample.positive, sigma);
  for (size_t i = 0; i < num_negative; ++i) {
    Word w = RandomWord(&rng, sigma, 1, max_len);
    if (!pta.Accepts(w)) sample.negative.push_back(w);
  }

  MergeBenchResult result;
  result.pta_states = pta.num_states();

  RpniStats ref_stats;
  WallTimer timer;
  Dfa reference = RpniGeneralize(
      pta,
      [&sample](const Dfa& candidate) {
        for (const Word& w : sample.negative) {
          if (candidate.Accepts(w)) return false;
        }
        return true;
      },
      &ref_stats);
  result.ref_seconds = timer.ElapsedSeconds();

  RpniStats fast_stats;
  timer.Restart();
  Dfa fast = RpniGeneralizeOnPartition(
      pta, WordRejectionOracle(&sample.negative), &fast_stats);
  result.fast_seconds = timer.ElapsedSeconds();

  RPQ_CHECK(fast == reference) << "zero-copy RPNI diverged from reference";
  RPQ_CHECK_EQ(fast_stats.merges_attempted, ref_stats.merges_attempted);
  result.attempted = ref_stats.merges_attempted;
  return result;
}

struct EvalBenchResult {
  uint32_t nodes = 0;
  size_t edges = 0;
  uint32_t query_states = 0;
  double ref_seconds = 0;
  double csr_seconds = 0;
};

Dfa CompileQuery(const std::string& pattern, const Graph& graph) {
  Alphabet alphabet = graph.alphabet();
  auto q = PathQuery::Parse(pattern, &alphabet, graph.num_symbols());
  RPQ_CHECK(q.ok()) << q.status().ToString();
  return q->dfa();
}

EvalBenchResult BenchEval(uint32_t num_nodes, int trials,
                          double* monadic_ref_seconds,
                          double* monadic_csr_seconds) {
  // The paper's synthetic benchmark setup (Sec. 5.1): scale-free topology
  // with a Zipfian label distribution. A kleene-star over the two most
  // frequent labels keeps the product BFS saturated — the regime the
  // paper's evaluation workloads live in and where per-source re-traversal
  // hurts the reference most.
  ScaleFreeOptions options;
  options.num_nodes = num_nodes;
  options.num_edges = 3 * static_cast<size_t>(num_nodes);
  options.num_labels = 8;
  options.seed = 7;
  Graph graph = GenerateScaleFree(options);
  Dfa query = CompileQuery("(l0+l1)*.l2", graph);

  EvalBenchResult result;
  result.nodes = graph.num_nodes();
  result.edges = graph.num_edges();
  result.query_states = query.num_states();

  auto reference_pairs = EvalBinaryReference(graph, query);
  auto csr_pairs =
      bench::UnwrapOrExit(bench::EvalAllPairs(graph, query), "EvalAllPairs");
  RPQ_CHECK(reference_pairs == csr_pairs)
      << "CSR all-pairs evaluation diverged from reference";

  WallTimer timer;
  for (int t = 0; t < trials; ++t) {
    auto pairs = EvalBinaryReference(graph, query);
    RPQ_CHECK_EQ(pairs.size(), reference_pairs.size());
  }
  result.ref_seconds = timer.ElapsedSeconds() / trials;

  timer.Restart();
  for (int t = 0; t < trials; ++t) {
    auto pairs =
        bench::UnwrapOrExit(bench::EvalAllPairs(graph, query), "EvalAllPairs");
    RPQ_CHECK_EQ(pairs.size(), reference_pairs.size());
  }
  result.csr_seconds = timer.ElapsedSeconds() / trials;

  BitVector monadic_reference = EvalMonadicReference(graph, query);
  RPQ_CHECK(bench::UnwrapOrExit(EvalMonadic(graph, query), "EvalMonadic") ==
            monadic_reference);
  const int monadic_trials = trials * 5;
  timer.Restart();
  for (int t = 0; t < monadic_trials; ++t) {
    BitVector r = EvalMonadicReference(graph, query);
    RPQ_CHECK_EQ(r.Count(), monadic_reference.Count());
  }
  *monadic_ref_seconds = timer.ElapsedSeconds() / monadic_trials;
  timer.Restart();
  for (int t = 0; t < monadic_trials; ++t) {
    BitVector r =
        bench::UnwrapOrExit(EvalMonadic(graph, query), "EvalMonadic");
    RPQ_CHECK_EQ(r.Count(), monadic_reference.Count());
  }
  *monadic_csr_seconds = timer.ElapsedSeconds() / monadic_trials;
  return result;
}

double Speedup(double ref_seconds, double fast_seconds) {
  return fast_seconds > 0 ? ref_seconds / fast_seconds : 0;
}

struct ParallelEvalResult {
  uint32_t threads = 1;
  double binary_one_thread_seconds = 0;
  double binary_parallel_seconds = 0;
  double monadic_one_thread_seconds = 0;
  double monadic_parallel_seconds = 0;
};

/// Thread-pool evaluation versus the identical engine pinned to one thread,
/// on the same workload as BenchEval. Outputs are checked bit-identical
/// before timing, so the reported speedup is also a determinism witness.
ParallelEvalResult BenchParallelEval(uint32_t num_nodes, int trials) {
  ScaleFreeOptions graph_options;
  graph_options.num_nodes = num_nodes;
  graph_options.num_edges = 3 * static_cast<size_t>(num_nodes);
  graph_options.num_labels = 8;
  graph_options.seed = 7;
  Graph graph = GenerateScaleFree(graph_options);
  Dfa query = CompileQuery("(l0+l1)*.l2", graph);

  EvalOptions one_thread;
  one_thread.threads = 1;
  EvalOptions parallel = bench::EvalConfig();
  // Let the thread count alone decide the path at this scale.
  parallel.parallel_threshold_pairs = 0;

  ParallelEvalResult result;
  result.threads = parallel.threads;

  auto sequential_pairs = bench::EvalAllPairs(graph, query, one_thread);
  RPQ_CHECK(sequential_pairs.ok()) << sequential_pairs.status().ToString();
  auto parallel_pairs = bench::EvalAllPairs(graph, query, parallel);
  RPQ_CHECK(parallel_pairs.ok()) << parallel_pairs.status().ToString();
  RPQ_CHECK(*parallel_pairs == *sequential_pairs)
      << "parallel all-pairs evaluation diverged from threads=1";

  WallTimer timer;
  for (int t = 0; t < trials; ++t) {
    auto pairs = bench::EvalAllPairs(graph, query, one_thread);
    RPQ_CHECK_EQ(pairs->size(), sequential_pairs->size());
  }
  result.binary_one_thread_seconds = timer.ElapsedSeconds() / trials;
  timer.Restart();
  for (int t = 0; t < trials; ++t) {
    auto pairs = bench::EvalAllPairs(graph, query, parallel);
    RPQ_CHECK_EQ(pairs->size(), sequential_pairs->size());
  }
  result.binary_parallel_seconds = timer.ElapsedSeconds() / trials;

  auto sequential_monadic = EvalMonadic(graph, query, one_thread);
  RPQ_CHECK(sequential_monadic.ok()) << sequential_monadic.status().ToString();
  auto parallel_monadic = EvalMonadic(graph, query, parallel);
  RPQ_CHECK(parallel_monadic.ok()) << parallel_monadic.status().ToString();
  RPQ_CHECK(*parallel_monadic == *sequential_monadic)
      << "parallel EvalMonadic diverged from threads=1";
  const int monadic_trials = trials * 5;
  timer.Restart();
  for (int t = 0; t < monadic_trials; ++t) {
    auto r = EvalMonadic(graph, query, one_thread);
    RPQ_CHECK_EQ(r->Count(), sequential_monadic->Count());
  }
  result.monadic_one_thread_seconds = timer.ElapsedSeconds() / monadic_trials;
  timer.Restart();
  for (int t = 0; t < monadic_trials; ++t) {
    auto r = EvalMonadic(graph, query, parallel);
    RPQ_CHECK_EQ(r->Count(), sequential_monadic->Count());
  }
  result.monadic_parallel_seconds = timer.ElapsedSeconds() / monadic_trials;
  return result;
}

struct DynamicPointResult {
  uint32_t updates = 0;
  double overlay_seconds = 0;
  double rebuild_seconds = 0;
};

struct DynamicBenchResult {
  uint32_t nodes = 0;
  size_t edges = 0;
  uint32_t crossover_k = 0;  // smallest k where rebuild wins; 0: never
  std::vector<DynamicPointResult> points;
};

/// Evaluate-after-k-updates: the delta-edge overlay (apply k updates as
/// insert/delete buffers, evaluate through the patched cells) versus
/// rebuild-from-scratch (apply the same k updates, Compact() into a fresh
/// CSR, evaluate the clean graph). Both sides start from the same pristine
/// fixture and the same update list per trial, and outputs are checked
/// bit-identical before timing. The sweep locates the crossover: below it
/// the overlay's O(k) patching wins, above it the rebuild's clean-CSR
/// evaluation amortizes the O(E) reconstruction.
DynamicBenchResult BenchDynamic(uint32_t num_nodes, int trials) {
  ScaleFreeOptions graph_options;
  graph_options.num_nodes = num_nodes;
  graph_options.num_edges = 3 * static_cast<size_t>(num_nodes);
  graph_options.num_labels = 8;
  graph_options.seed = 7;
  const Graph base = GenerateScaleFree(graph_options);
  const Dfa query = CompileQuery("(l0+l1)*.l2", base);

  DynamicBenchResult result;
  result.nodes = base.num_nodes();
  result.edges = base.num_edges();

  // One deterministic update stream, shared by every k (a k-point uses the
  // first k entries) and by both sides of the comparison. Roughly half the
  // draws hit a live edge (delete), half miss (insert).
  Rng rng(0xd9a);
  std::vector<std::array<uint32_t, 3>> updates;
  for (uint32_t i = 0; i < 256; ++i) {
    updates.push_back({static_cast<uint32_t>(rng.NextBelow(base.num_nodes())),
                       static_cast<uint32_t>(rng.NextBelow(2)),
                       static_cast<uint32_t>(rng.NextBelow(base.num_nodes()))});
  }
  const auto apply = [&updates](Graph* g, uint32_t k) {
    for (uint32_t i = 0; i < k; ++i) {
      const auto& u = updates[i];
      const Symbol a = static_cast<Symbol>(u[1]);
      if (g->HasEdge(u[0], a, u[2])) {
        g->DeleteEdge(u[0], a, u[2]);
      } else {
        g->InsertEdge(u[0], a, u[2]);
      }
    }
  };

  EvalOptions options;
  options.threads = 1;
  for (uint32_t k : {1u, 8u, 64u, 256u}) {
    DynamicPointResult point;
    point.updates = k;

    Graph overlay = base;
    apply(&overlay, k);
    Graph rebuilt = base;
    apply(&rebuilt, k);
    rebuilt.Compact();
    auto overlay_pairs = bench::EvalAllPairs(overlay, query, options);
    auto rebuilt_pairs = bench::EvalAllPairs(rebuilt, query, options);
    RPQ_CHECK(overlay_pairs.ok() && rebuilt_pairs.ok());
    RPQ_CHECK(*overlay_pairs == *rebuilt_pairs)
        << "overlay eval diverged from rebuild-from-scratch at k=" << k;

    WallTimer timer;
    for (int t = 0; t < trials; ++t) {
      Graph g = base;
      apply(&g, k);
      auto pairs = bench::EvalAllPairs(g, query, options);
      RPQ_CHECK_EQ(pairs->size(), overlay_pairs->size());
    }
    point.overlay_seconds = timer.ElapsedSeconds() / trials;

    timer.Restart();
    for (int t = 0; t < trials; ++t) {
      Graph g = base;
      apply(&g, k);
      g.Compact();
      auto pairs = bench::EvalAllPairs(g, query, options);
      RPQ_CHECK_EQ(pairs->size(), overlay_pairs->size());
    }
    point.rebuild_seconds = timer.ElapsedSeconds() / trials;

    if (result.crossover_k == 0 &&
        point.rebuild_seconds < point.overlay_seconds) {
      result.crossover_k = k;
    }
    result.points.push_back(point);
  }
  return result;
}

struct IncrementalPointResult {
  uint32_t updates = 0;
  double incremental_seconds = 0;
  double full_seconds = 0;
  double compact_seconds = 0;
  uint64_t insert_repairs = 0;
  uint64_t delete_repairs = 0;
  uint64_t delta_cells_seeded = 0;
  uint64_t overdeleted_cells = 0;
};

struct IncrementalTraceResult {
  const char* name = "";
  std::vector<IncrementalPointResult> points;
};

struct IncrementalBenchResult {
  uint32_t nodes = 0;
  size_t edges = 0;
  double single_insert_speedup = 0;
  double single_delete_speedup = 0;
  std::vector<IncrementalTraceResult> traces;
};

/// One update of a precomputed incremental-bench trace.
struct BenchUpdate {
  bool is_insert = true;
  NodeId src = 0;
  Symbol label = 0;
  NodeId dst = 0;
};

/// Draws a deterministic 256-update trace against `base`: `insert_bias` of
/// the draws insert a missing edge, the rest delete a live one, all on the
/// query alphabet {l0, l1, l2} so every update is relevant to the
/// materialized fixed point (inserts repair in place, deletes fall back).
std::vector<BenchUpdate> DrawBenchUpdates(const Graph& base, uint64_t seed,
                                          double insert_bias) {
  Rng rng(seed);
  Graph sim = base;
  std::vector<BenchUpdate> updates;
  while (updates.size() < 256) {
    BenchUpdate u;
    u.src = static_cast<NodeId>(rng.NextBelow(sim.num_nodes()));
    u.dst = static_cast<NodeId>(rng.NextBelow(sim.num_nodes()));
    u.label = static_cast<Symbol>(rng.NextBelow(3));
    u.is_insert = rng.NextBernoulli(insert_bias);
    if (u.is_insert == sim.HasEdge(u.src, u.label, u.dst)) continue;
    if (u.is_insert) {
      sim.InsertEdge(u.src, u.label, u.dst);
    } else {
      sim.DeleteEdge(u.src, u.label, u.dst);
    }
    updates.push_back(u);
  }
  return updates;
}

/// Incremental result maintenance versus re-evaluation: a
/// MaterializedMonadic — the class a QueryPlan keeps as its warm monadic
/// result — registered on a DynamicGraph queues k updates and serves
/// Results(), which repairs them as one batch (delta-frontier inserts,
/// delete-and-rederive deletes),
/// against (a) applying the same k updates to a pristine copy and
/// re-running EvalMonadic through the overlay, and (b) the same plus a
/// Compact() into a clean CSR first. All three sides are checked
/// bit-identical per point before timing; setup (the graph copy and the
/// initial fixed-point build) stays outside the timed region, so a point
/// times exactly "k updates arrive, then the result is read". The headlines
/// `single_insert.speedup` (insert-heavy trace at k=1) and
/// `single_delete.speedup` (delete-heavy trace at k=1) are gated in
/// bench/baseline.json.
IncrementalBenchResult BenchIncremental(uint32_t num_nodes, int trials) {
  ScaleFreeOptions graph_options;
  graph_options.num_nodes = num_nodes;
  graph_options.num_edges = 3 * static_cast<size_t>(num_nodes);
  graph_options.num_labels = 8;
  graph_options.seed = 7;
  const Graph base = GenerateScaleFree(graph_options);
  const Dfa query = CompileQuery("(l0+l1)*.l2", base);

  IncrementalBenchResult result;
  result.nodes = base.num_nodes();
  result.edges = base.num_edges();

  EvalOptions options;
  options.threads = 1;

  const struct {
    const char* name;
    uint64_t seed;
    double insert_bias;
  } kTraces[] = {{"insert_heavy", 0x11a5e7, 1.0},
                 {"delete_heavy", 0xde1e7e, 0.0},
                 {"mixed", 0x3eed, 0.5}};
  for (const auto& spec : kTraces) {
    std::vector<BenchUpdate> updates =
        DrawBenchUpdates(base, spec.seed, spec.insert_bias);
    // The insert- and delete-heavy streams lead with an update whose repair
    // has work to do (a delta frontier to seed, cells to over-delete), so
    // the k=1 headlines time the repair path rather than the (much cheaper)
    // detection that there is nothing to repair.
    if (spec.insert_bias == 1.0 || spec.insert_bias == 0.0) {
      for (size_t i = 0; i < updates.size(); ++i) {
        DynamicGraph probe(base);
        probe.set_auto_compact_threshold(0);
        auto mm = bench::UnwrapOrExit(probe.MaterializeMonadic(query, options),
                                      "MaterializeMonadic");
        const BenchUpdate& u = updates[i];
        if (u.is_insert) {
          probe.InsertEdge(u.src, u.label, u.dst);
        } else {
          probe.DeleteEdge(u.src, u.label, u.dst);
        }
        // Repairs run, and count, at the read.
        bench::UnwrapOrExit(mm->Results(), "mm->Results");
        if (mm->stats().insert_repairs == 1 ||
            mm->stats().overdeleted_cells > 0) {
          std::rotate(updates.begin(),
                      updates.begin() + static_cast<ptrdiff_t>(i),
                      updates.end());
          break;
        }
      }
    }
    IncrementalTraceResult trace;
    trace.name = spec.name;

    for (uint32_t k : {1u, 8u, 64u, 256u}) {
      IncrementalPointResult point;
      point.updates = k;

      const auto apply_to_graph = [&updates, k](Graph* g) {
        for (uint32_t i = 0; i < k; ++i) {
          const BenchUpdate& u = updates[i];
          if (u.is_insert) {
            g->InsertEdge(u.src, u.label, u.dst);
          } else {
            g->DeleteEdge(u.src, u.label, u.dst);
          }
        }
      };
      const auto apply_to_dynamic = [&updates, k](DynamicGraph* dyn) {
        for (uint32_t i = 0; i < k; ++i) {
          const BenchUpdate& u = updates[i];
          if (u.is_insert) {
            dyn->InsertEdge(u.src, u.label, u.dst);
          } else {
            dyn->DeleteEdge(u.src, u.label, u.dst);
          }
        }
      };

      // Correctness first: the maintained result is bit-identical to the
      // from-scratch evaluation of the updated graph.
      {
        DynamicGraph dyn(base);
        dyn.set_auto_compact_threshold(0);  // time pure repair, no compaction
        auto mm = bench::UnwrapOrExit(dyn.MaterializeMonadic(query, options),
                                      "MaterializeMonadic");
        apply_to_dynamic(&dyn);
        const BitVector* maintained =
            bench::UnwrapOrExit(mm->Results(), "mm->Results");
        Graph updated = base;
        apply_to_graph(&updated);
        const BitVector scratch = bench::UnwrapOrExit(
            EvalMonadic(updated, query, options), "EvalMonadic");
        RPQ_CHECK(*maintained == scratch)
            << "materialized result diverged from re-evaluation, trace="
            << spec.name << " k=" << k;
        point.insert_repairs = mm->stats().insert_repairs;
        point.delete_repairs = mm->stats().delete_repairs;
        point.delta_cells_seeded = mm->stats().delta_cells_seeded;
        point.overdeleted_cells = mm->stats().overdeleted_cells;
      }

      WallTimer timer;
      double total = 0;
      for (int t = 0; t < trials; ++t) {
        DynamicGraph dyn(base);
        dyn.set_auto_compact_threshold(0);
        auto mm = bench::UnwrapOrExit(dyn.MaterializeMonadic(query, options),
                                      "MaterializeMonadic");
        timer.Restart();
        apply_to_dynamic(&dyn);
        bench::UnwrapOrExit(mm->Results(), "mm->Results");
        total += timer.ElapsedSeconds();
      }
      point.incremental_seconds = total / trials;

      total = 0;
      for (int t = 0; t < trials; ++t) {
        Graph g = base;
        timer.Restart();
        apply_to_graph(&g);
        const BitVector selected =
            bench::UnwrapOrExit(EvalMonadic(g, query, options), "EvalMonadic");
        total += timer.ElapsedSeconds();
      }
      point.full_seconds = total / trials;

      total = 0;
      for (int t = 0; t < trials; ++t) {
        Graph g = base;
        timer.Restart();
        apply_to_graph(&g);
        g.Compact();
        const BitVector selected =
            bench::UnwrapOrExit(EvalMonadic(g, query, options), "EvalMonadic");
        total += timer.ElapsedSeconds();
      }
      point.compact_seconds = total / trials;

      if (std::string(spec.name) == "insert_heavy" && k == 1) {
        result.single_insert_speedup =
            Speedup(point.full_seconds, point.incremental_seconds);
      }
      if (std::string(spec.name) == "delete_heavy" && k == 1) {
        result.single_delete_speedup =
            Speedup(point.full_seconds, point.incremental_seconds);
      }
      trace.points.push_back(point);
    }
    result.traces.push_back(trace);
  }
  return result;
}

void PrintIncremental(const IncrementalBenchResult& r) {
  std::printf("incremental materialized monadic eval (batched repair vs "
              "EvalMonadic re-evaluation, %u nodes, %zu edges, 1 thread; "
              "RPQ_EVAL_INCREMENTAL gates the fuzz diff):\n",
              r.nodes, r.edges);
  for (const IncrementalTraceResult& trace : r.traces) {
    std::printf("  %s:\n", trace.name);
    for (const IncrementalPointResult& p : trace.points) {
      std::printf("    k=%-4u incremental %10.6fs  full %10.6fs (%.1fx)  "
                  "compact+eval %10.6fs  (%llu insert repairs, %llu delete "
                  "repairs, %llu cells seeded, %llu over-deleted)\n",
                  p.updates, p.incremental_seconds, p.full_seconds,
                  Speedup(p.full_seconds, p.incremental_seconds),
                  p.compact_seconds,
                  static_cast<unsigned long long>(p.insert_repairs),
                  static_cast<unsigned long long>(p.delete_repairs),
                  static_cast<unsigned long long>(p.delta_cells_seeded),
                  static_cast<unsigned long long>(p.overdeleted_cells));
    }
  }
  std::printf("  single-insert headline: incremental %.1fx vs full "
              "re-evaluation\n",
              r.single_insert_speedup);
  std::printf("  single-delete headline: incremental %.1fx vs full "
              "re-evaluation\n",
              r.single_delete_speedup);
}

void PrintIncrementalJson(FILE* out, const IncrementalBenchResult& r) {
  std::fprintf(out,
               "  \"eval_incremental\": {\n"
               "    \"nodes\": %u,\n"
               "    \"edges\": %zu,\n"
               "    \"single_insert\": {\n"
               "      \"speedup\": %.2f\n"
               "    },\n"
               "    \"single_delete\": {\n"
               "      \"speedup\": %.2f\n"
               "    },\n",
               r.nodes, r.edges, r.single_insert_speedup,
               r.single_delete_speedup);
  for (size_t i = 0; i < r.traces.size(); ++i) {
    const IncrementalTraceResult& trace = r.traces[i];
    std::fprintf(out, "    \"%s\": {\n", trace.name);
    for (size_t j = 0; j < trace.points.size(); ++j) {
      const IncrementalPointResult& p = trace.points[j];
      std::fprintf(out,
                   "      \"k%u\": {\n"
                   "        \"incremental_seconds\": %.6f,\n"
                   "        \"full_seconds\": %.6f,\n"
                   "        \"compact_seconds\": %.6f,\n"
                   "        \"incremental_vs_full_speedup\": %.2f,\n"
                   "        \"insert_repairs\": %llu,\n"
                   "        \"delete_repairs\": %llu,\n"
                   "        \"delta_cells_seeded\": %llu,\n"
                   "        \"overdeleted_cells\": %llu\n"
                   "      }%s\n",
                   p.updates, p.incremental_seconds, p.full_seconds,
                   p.compact_seconds,
                   Speedup(p.full_seconds, p.incremental_seconds),
                   static_cast<unsigned long long>(p.insert_repairs),
                   static_cast<unsigned long long>(p.delete_repairs),
                   static_cast<unsigned long long>(p.delta_cells_seeded),
                   static_cast<unsigned long long>(p.overdeleted_cells),
                   j + 1 < trace.points.size() ? "," : "");
    }
    std::fprintf(out, "    }%s\n", i + 1 < r.traces.size() ? "," : "");
  }
  std::fprintf(out, "  }\n");
}

struct EngineFacadeResult {
  double cold_seconds = 0;
  double warm_seconds = 0;
  uint64_t plan_hits = 0;
  uint64_t warm_hits = 0;
};

/// Seconds per call of `call`, over as many calls as take at least 50 ms,
/// so that timer resolution and one-off stalls do not set the figure of a
/// call that takes microseconds. Stores the number of calls in `*calls`.
template <typename Call>
double SecondsPerCall(const Call& call, uint64_t* calls) {
  constexpr double kMinSeconds = 0.05;
  uint64_t n = 0;
  WallTimer timer;
  do {
    call();
    ++n;
  } while (timer.ElapsedSeconds() < kMinSeconds);
  *calls = n;
  return timer.ElapsedSeconds() / static_cast<double>(n);
}

/// The Engine facade's warm path versus cold evaluation: a repeat monadic
/// query against a warm engine (plan-cache hit + retained fixed point) vs an
/// engine with the plan cache disabled (every call compiles a fresh plan,
/// whose first run sweeps). Both
/// are checked bit-identical to the free-function result before timing, and
/// the warm run's telemetry is asserted so the reported ratio provably
/// timed the warm path. Each side is timed over at least 50 ms of calls (a
/// warm call takes microseconds). Gated in bench/baseline.json as
/// engine_facade.warm_vs_cold_speedup.
EngineFacadeResult BenchEngineFacade(uint32_t num_nodes) {
  ScaleFreeOptions graph_options;
  graph_options.num_nodes = num_nodes;
  graph_options.num_edges = 3 * static_cast<size_t>(num_nodes);
  graph_options.num_labels = 8;
  graph_options.seed = 7;
  Graph graph = GenerateScaleFree(graph_options);
  Dfa query = CompileQuery("(l0+l1)*.l2", graph);

  EvalOptions eval;
  eval.threads = 1;
  const auto expected = EvalMonadic(graph, query, eval);
  RPQ_CHECK(expected.ok());

  EngineOptions cold_options;
  cold_options.eval = eval;
  cold_options.plan_cache_capacity = 0;
  Engine cold(graph, cold_options);
  EngineOptions warm_options;
  warm_options.eval = eval;
  Engine warm(graph, warm_options);

  for (const Engine* engine : {&cold, &warm}) {
    auto plan = engine->Plan(query);
    RPQ_CHECK(plan.ok()) << plan.status().ToString();
    auto nodes = (*plan)->RunMonadic();
    RPQ_CHECK(nodes.ok()) << nodes.status().ToString();
    RPQ_CHECK(**nodes == *expected)
        << "Engine facade monadic result diverged from EvalMonadic";
  }

  auto run = [&](const Engine& engine) {
    auto plan = engine.Plan(query);
    auto nodes = (*plan)->RunMonadic();
    RPQ_CHECK_EQ((*nodes)->Count(), expected->Count());
  };
  EngineFacadeResult result;
  uint64_t cold_calls = 0;
  uint64_t warm_calls = 0;
  result.cold_seconds = SecondsPerCall([&] { run(cold); }, &cold_calls);
  result.warm_seconds = SecondsPerCall([&] { run(warm); }, &warm_calls);

  const EngineCounters counters = warm.counters();
  result.plan_hits = counters.plan_hits;
  result.warm_hits = counters.monadic_warm_hits;
  RPQ_CHECK(counters.plan_hits >= warm_calls)
      << "warm engine missed its plan cache";
  RPQ_CHECK(counters.monadic_warm_hits >= warm_calls)
      << "warm engine swept instead of serving the retained fixed point";
  return result;
}

void PrintDynamic(const DynamicBenchResult& r) {
  std::printf("dynamic eval (overlay vs rebuild after k updates, %u nodes, "
              "%zu edges, 1 thread):\n",
              r.nodes, r.edges);
  for (const DynamicPointResult& p : r.points) {
    std::printf("  k=%-4u overlay %8.4fs  rebuild %8.4fs  (overlay %.2fx)\n",
                p.updates, p.overlay_seconds, p.rebuild_seconds,
                Speedup(p.rebuild_seconds, p.overlay_seconds));
  }
  if (r.crossover_k > 0) {
    std::printf("  rebuild first wins at k=%u\n", r.crossover_k);
  } else {
    std::printf("  overlay wins across the whole sweep\n");
  }
}

void PrintDynamicJson(FILE* out, const DynamicBenchResult& r) {
  std::fprintf(out,
               "  \"eval_dynamic\": {\n"
               "    \"nodes\": %u,\n"
               "    \"edges\": %zu,\n"
               "    \"crossover_k\": %u,\n",
               r.nodes, r.edges, r.crossover_k);
  for (size_t i = 0; i < r.points.size(); ++i) {
    const DynamicPointResult& p = r.points[i];
    std::fprintf(out,
                 "    \"k%u\": {\n"
                 "      \"overlay_seconds\": %.6f,\n"
                 "      \"rebuild_seconds\": %.6f,\n"
                 "      \"overlay_vs_rebuild_speedup\": %.2f\n"
                 "    }%s\n",
                 p.updates, p.overlay_seconds, p.rebuild_seconds,
                 Speedup(p.rebuild_seconds, p.overlay_seconds),
                 i + 1 < r.points.size() ? "," : "");
  }
  std::fprintf(out, "  },\n");
}

/// Identity check on a high-density fixture with large per-label SCCs:
/// threads {1, 8}, binary and monadic, each against its seed reference.
/// Runs at a fixed small size on every bench scale so the CI perf job
/// always re-proves it.
void CheckHighDensityIdentity() {
  ScaleFreeOptions graph_options;
  graph_options.num_nodes = 1500;
  graph_options.num_edges = 10 * static_cast<size_t>(graph_options.num_nodes);
  graph_options.num_labels = 8;
  graph_options.seed = 7;
  Graph graph = GenerateScaleFree(graph_options);
  Dfa query = CompileQuery("(l0+l1)*.l2", graph);

  const auto expected_pairs = EvalBinaryReference(graph, query);
  const BitVector expected_monadic = EvalMonadicReference(graph, query);

  for (uint32_t threads : {1u, 8u}) {
    EvalOptions options;
    options.threads = threads;
    options.parallel_threshold_pairs = 0;
    auto pairs = bench::EvalAllPairs(graph, query, options);
    RPQ_CHECK(pairs.ok());
    RPQ_CHECK(*pairs == expected_pairs)
        << "high-density identity: binary diverged at threads=" << threads;
    auto monadic = EvalMonadic(graph, query, options);
    RPQ_CHECK(monadic.ok());
    RPQ_CHECK(*monadic == expected_monadic)
        << "high-density identity: monadic diverged at threads=" << threads;
  }
}

}  // namespace
}  // namespace rpqlearn

int main() {
  using namespace rpqlearn;
  const bool paper = bench::PaperScale();

  // --- RPNI merge trials ----------------------------------------------
  const size_t num_positive = paper ? 1200 : 700;
  const size_t num_negative = paper ? 200 : 100;
  auto merge = BenchMergeTrials(num_positive, num_negative, paper ? 14 : 12);
  const double merge_ref_ops = merge.attempted / merge.ref_seconds;
  const double merge_fast_ops = merge.attempted / merge.fast_seconds;
  const double merge_speedup = Speedup(merge.ref_seconds, merge.fast_seconds);
  std::printf("merge trials: pta=%zu states, attempts=%zu\n",
              merge.pta_states, merge.attempted);
  std::printf("  reference  %10.0f trials/s (%.3fs)\n", merge_ref_ops,
              merge.ref_seconds);
  std::printf("  zero-copy  %10.0f trials/s (%.3fs)  speedup %.2fx\n",
              merge_fast_ops, merge.fast_seconds, merge_speedup);

  // --- query evaluation ------------------------------------------------
  const uint32_t eval_nodes = paper ? 10000 : 1500;
  const int trials = bench::Trials();
  double monadic_ref = 0, monadic_csr = 0;
  auto eval = BenchEval(eval_nodes, trials, &monadic_ref, &monadic_csr);
  const double binary_speedup = Speedup(eval.ref_seconds, eval.csr_seconds);
  const double monadic_speedup = Speedup(monadic_ref, monadic_csr);
  std::printf("all-pairs binary eval: %u nodes, %zu edges, |Q|=%u\n",
              eval.nodes, eval.edges, eval.query_states);
  std::printf("  reference  %8.3fs/run (%.0f sources/s)\n", eval.ref_seconds,
              eval.nodes / eval.ref_seconds);
  std::printf("  csr+batch  %8.3fs/run (%.0f sources/s)  speedup %.2fx\n",
              eval.csr_seconds, eval.nodes / eval.csr_seconds,
              binary_speedup);
  std::printf("monadic eval: reference %.4fs, csr %.4fs, speedup %.2fx\n",
              monadic_ref, monadic_csr, monadic_speedup);

  // --- thread-pool parallel evaluation ---------------------------------
  auto par = BenchParallelEval(eval_nodes, trials);
  const double par_binary_speedup =
      Speedup(par.binary_one_thread_seconds, par.binary_parallel_seconds);
  const double par_monadic_speedup =
      Speedup(par.monadic_one_thread_seconds, par.monadic_parallel_seconds);
  std::printf("parallel eval (%u threads, RPQ_EVAL_THREADS to override):\n",
              par.threads);
  std::printf("  binary   1-thread %8.3fs  %u-thread %8.3fs  speedup %.2fx\n",
              par.binary_one_thread_seconds, par.threads,
              par.binary_parallel_seconds, par_binary_speedup);
  std::printf("  monadic  1-thread %8.4fs  %u-thread %8.4fs  speedup %.2fx\n",
              par.monadic_one_thread_seconds, par.threads,
              par.monadic_parallel_seconds, par_monadic_speedup);

  // --- high-density identity check ------------------------------------
  // Threads {1, 8} against the seed references on a fixed fixture with
  // large per-label SCCs and a star-heavy query.
  CheckHighDensityIdentity();
  std::printf("high-density identity: ok (threads x seed reference)\n");

  // --- dynamic graphs: overlay vs rebuild-from-scratch ------------------
  // Evaluate-after-k-updates on the standard fixture: the delta-edge
  // overlay against Compact()-then-evaluate, sweeping k to locate the
  // crossover where rebuilding starts to pay off.
  auto dynamic = BenchDynamic(eval_nodes, trials);
  PrintDynamic(dynamic);

  // --- incremental materialized results ---------------------------------
  // Delta-frontier repair of a retained fixed point (MaterializedMonadic
  // on a DynamicGraph) versus re-evaluating after the same updates, sweeping
  // insert-heavy / delete-heavy / mixed traces over k; the single-insert
  // speedup is the headline gated in bench/baseline.json.
  auto incremental = BenchIncremental(eval_nodes, trials);
  PrintIncremental(incremental);

  // --- engine facade: warm plan + retained fixed point vs cold ----------
  auto facade = BenchEngineFacade(eval_nodes);
  const double facade_speedup =
      Speedup(facade.cold_seconds, facade.warm_seconds);
  std::printf("engine facade (repeat monadic query, 1 thread): cold %.6fs  "
              "warm %.6fs  speedup %.1fx  (%llu plan hits, %llu warm hits)\n",
              facade.cold_seconds, facade.warm_seconds, facade_speedup,
              static_cast<unsigned long long>(facade.plan_hits),
              static_cast<unsigned long long>(facade.warm_hits));

  FILE* out = std::fopen("BENCH_hotpath.json", "w");
  RPQ_CHECK(out != nullptr) << "cannot write BENCH_hotpath.json";
  std::fprintf(out,
               "{\n"
               "  \"scale\": \"%s\",\n"
               "  \"merge_trials\": {\n"
               "    \"pta_states\": %zu,\n"
               "    \"attempted\": %zu,\n"
               "    \"ref_seconds\": %.6f,\n"
               "    \"fast_seconds\": %.6f,\n"
               "    \"ref_trials_per_sec\": %.1f,\n"
               "    \"fast_trials_per_sec\": %.1f,\n"
               "    \"speedup\": %.2f\n"
               "  },\n"
               "  \"eval_binary_all_pairs\": {\n"
               "    \"nodes\": %u,\n"
               "    \"edges\": %zu,\n"
               "    \"query_states\": %u,\n"
               "    \"ref_seconds\": %.6f,\n"
               "    \"csr_seconds\": %.6f,\n"
               "    \"speedup\": %.2f\n"
               "  },\n"
               "  \"eval_monadic\": {\n"
               "    \"ref_seconds\": %.6f,\n"
               "    \"csr_seconds\": %.6f,\n"
               "    \"speedup\": %.2f\n"
               "  },\n"
               "  \"eval_parallel\": {\n"
               "    \"threads\": %u,\n"
               "    \"binary_one_thread_seconds\": %.6f,\n"
               "    \"binary_parallel_seconds\": %.6f,\n"
               "    \"binary_speedup\": %.2f,\n"
               "    \"monadic_one_thread_seconds\": %.6f,\n"
               "    \"monadic_parallel_seconds\": %.6f,\n"
               "    \"monadic_speedup\": %.2f\n"
               "  },\n",
               paper ? "paper" : "small", merge.pta_states, merge.attempted,
               merge.ref_seconds, merge.fast_seconds, merge_ref_ops,
               merge_fast_ops, merge_speedup, eval.nodes, eval.edges,
               eval.query_states, eval.ref_seconds, eval.csr_seconds,
               binary_speedup, monadic_ref, monadic_csr, monadic_speedup,
               par.threads, par.binary_one_thread_seconds,
               par.binary_parallel_seconds, par_binary_speedup,
               par.monadic_one_thread_seconds, par.monadic_parallel_seconds,
               par_monadic_speedup);
  PrintDynamicJson(out, dynamic);
  PrintIncrementalJson(out, incremental);
  std::fprintf(out,
               "  ,\"engine_facade\": {\n"
               "    \"cold_seconds\": %.6f,\n"
               "    \"warm_seconds\": %.6f,\n"
               "    \"warm_vs_cold_speedup\": %.2f,\n"
               "    \"plan_hits\": %llu,\n"
               "    \"monadic_warm_hits\": %llu\n"
               "  }\n",
               facade.cold_seconds, facade.warm_seconds, facade_speedup,
               static_cast<unsigned long long>(facade.plan_hits),
               static_cast<unsigned long long>(facade.warm_hits));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_hotpath.json\n");
  return 0;
}
