// The repository benchmark program. Runs one named workload and prints, as
// the last line of standard output, one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (tracing off); with
// --trace 1 the run also replays its inputs through each layer's public
// functions under spans and the metrics are the per-layer ones. Exit code
// 0 on success, 1 on an output mismatch (the JSON still printed, with
// "correct": false), 2 on bad arguments, 3 when the run is invalid (the
// load generator fell behind, or too few samples), in which case no result
// is printed.
//
// Usage: perfbench --workload <read_write|learn_interactive>
//                  --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of the list its mode prints. The
// names and units match BENCHMARK.json at the repository root.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"latency_p99_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

// Per-layer metrics a workload does not exercise are reported as 0.
constexpr MetricSpec kPerLayer[] = {
    {"server.overhead_ms_p50", "ms"},
    {"server.overhead_ms_p99", "ms"},
    {"server.overhead_frac", "ratio"},
    {"server.parse_us_mean", "us"},
    {"server.batch_fill", "ratio"},
    {"server.admission_rejections", "count"},
    {"server.cancelled_requests", "count"},
    {"server.protocol_errors", "count"},
    {"client.query_p50_ms", "ms"},
    {"client.late_ms_p99", "ms"},
    {"client.backlog_end", "count"},
    {"client.reply_bytes_mean", "bytes"},
    {"client.update_p50_ms", "ms"},
    {"client.update_p95_ms", "ms"},
    {"engine.plan_hit_us_p50", "us"},
    {"engine.plan_miss_us_p50", "us"},
    {"engine.plan_hit_rate", "ratio"},
    {"engine.plan_evictions", "count"},
    {"engine.monadic_warm_rate", "ratio"},
    {"engine.snapshot_builds", "count"},
    {"engine.run_monadic_us_p50", "us"},
    {"engine.run_monadic_us_p99", "us"},
    {"engine.run_binary_us_p50", "us"},
    {"engine.run_binary_us_p99", "us"},
    {"eval.monadic_us_p50", "us"},
    {"eval.binary_us_p50", "us"},
    {"eval.pairs_settled", "count"},
    {"eval.sparse_rounds", "count"},
    {"eval.dense_rounds", "count"},
    {"eval.condensed_expansions", "count"},
    {"graph.load_ms", "ms"},
    {"graph.update_us_p50", "us"},
    {"graph.update_us_p99", "us"},
    {"graph.condense_retarjans", "count"},
    {"graph.condense_dag_rebuilds", "count"},
    {"graph.auto_compactions", "count"},
    {"interact.interaction_p50_ms", "ms"},
    {"interact.coverage_ms_p50", "ms"},
    {"interact.coverage_ms_p99", "ms"},
    {"interact.informative_ms_p50", "ms"},
    {"interact.pick_ms_p50", "ms"},
    {"interact.pick_ms_p99", "ms"},
    {"interact.score_ms_p50", "ms"},
    {"interact.k_bump_ms", "ms"},
    {"interact.labels_to_goal", "labels"},
    {"interact.learn_wall_s", "s"},
    {"learn.learn_at_k_ms_p50", "ms"},
    {"learn.learn_at_k_ms_p99", "ms"},
    {"learn.merges_attempted", "count"},
    {"learn.merge_accept_rate", "ratio"},
    {"engine.hypothesis_warm_rate", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.coverage", "ratio"},
};

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<read_write|learn_interactive> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               problem);
  std::exit(2);
}

RunArgs ParseArgs(int argc, char** argv) {
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return args;
}

int Main(int argc, char** argv) {
  const RunArgs args = ParseArgs(argc, argv);
  RunResult result;
  if (args.workload == "read_write") {
    result = RunReadWrite(args);
  } else if (args.workload == "learn_interactive") {
    result = RunLearnInteractive(args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }

  for (const std::string& mismatch : result.mismatches) {
    std::printf("MISMATCH: %s\n", mismatch.c_str());
  }
  if (!result.invalid.empty()) {
    std::printf("INVALID: %s; the run's figures are not reported\n",
                result.invalid.c_str());
    std::fflush(stdout);
    return 3;
  }

  std::string metrics;
  auto emit = [&](const MetricSpec& spec, double value) {
    char entry[160];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += entry;
  };
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      auto it = result.metrics.find(spec.name);
      emit(spec, it == result.metrics.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      auto it = result.metrics.find(spec.name);
      if (it == result.metrics.end()) {
        std::fprintf(stderr, "perfbench: workload did not report %s\n",
                     spec.name);
        return 1;
      }
      emit(spec, it->second);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
