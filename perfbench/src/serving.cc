// read_write: wire traffic against an in-process RpqServer (default
// ServerOptions) over loopback, from the single-threaded load generator of
// loadgen.h on a CPU of its own.
//
// The server LOADs BuildSyntheticDataset(10000, seed) from an edge list
// written to the run's work directory. Queries are A.B*.C regexes from a
// fixed pool of 64 (twice the 32-plan cache), picked with Zipf popularity; a
// quarter of them are binary (FROM 1..16 sources), the rest monadic.
// Connection 0 writes: 40% of its requests are UPDATEs (about 10% of all
// traffic), half inserts of absent edges, half deletes of live ones, on
// labels the pool reads. Its replies are checked afterwards against a
// sequential model that replays its updates in order; after traffic stops,
// every pool regex is checked against the model's end state.
//
// The traced run replays the open-loop requests in send order, under the
// same ids, through ParseCommand, Engine::Plan, QueryPlan::Run* or
// DynamicGraph::InsertEdge / DeleteEdge, plus the eval free functions.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common.h"
#include "graph/dynamic.h"
#include "graph/io.h"
#include "loadgen.h"
#include "query/engine.h"
#include "query/eval.h"
#include "server/protocol.h"
#include "server/server.h"
#include "trace.h"
#include "util/random.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using rpqlearn::Engine;
using rpqlearn::Graph;
using rpqlearn::NodeId;
using rpqlearn::Symbol;

constexpr uint32_t kGraphNodes = 10000;
constexpr uint32_t kLabels = 24;  // BuildSyntheticDataset's label count
constexpr uint32_t kConnections = 4;
constexpr int kSetupReps = 15;
/// Unmeasured closed-loop traffic before the measured phases, and the
/// unmeasured start of the closed-loop phase: the first second of a phase
/// ran at up to half speed (allocator growth, vCPUs ramping up).
constexpr double kWarmupSeconds = 1.0;
constexpr double kRampSeconds = 1.0;
/// Share of --seconds spent in the open-loop phase; the rest is closed loop.
constexpr double kOpenShare = 0.5;
/// Open-loop latency percentiles are taken per window of this many queries
/// (p99 then has 10 samples beyond it) and reported as the median over the
/// windows; closed-loop throughput likewise per 1-s window.
constexpr size_t kWindowQueries = 1000;
constexpr double kBinaryShare = 0.25;
constexpr uint32_t kMaxSources = 16;
constexpr double kZipfExponent = 1.0;
/// The regex pool is part of the workload definition, not of the seed.
constexpr uint64_t kPoolSeed = 0x9e3779b9;
constexpr size_t kMinOpenLoopQueries = 1000;
/// The traced run replays this many open-loop requests (the first ones, in
/// send order) — enough for the per-layer percentiles, and a replay length
/// that does not depend on how fast the wire run went.
constexpr size_t kReplayRequests = 1000;

constexpr size_t kPoolSize = 64;
/// Source sets per regex for binary queries.
constexpr size_t kSourceSets = 4;
/// Open-loop rate (requests/s, all connections) and the p99 latency limit
/// the parent commit meets at that rate.
constexpr double kOpenRate = 150.0;
constexpr double kP99LimitMs = 50.0;
/// Closed-loop window per connection (under the default max_in_flight of
/// 64).
constexpr uint32_t kWindow = 2;
/// Share of connection 0's requests that are UPDATEs.
constexpr double kWriterUpdateShare = 0.4;

std::string Group(uint32_t lo, uint32_t hi) {
  std::string group = "(";
  for (uint32_t i = lo; i <= hi; ++i) {
    if (i > lo) group += '+';
    group += 'l' + std::to_string(i);
  }
  return group + ")";
}

/// `size` distinct A.B*.C regexes over contiguous label-rank groups of 2-4
/// labels. Distinct groups give distinct languages, hence distinct plans.
std::vector<std::string> MakeRegexPool(size_t size) {
  rpqlearn::Rng rng(kPoolSeed);
  auto group = [&rng] {
    const uint32_t width = 2 + static_cast<uint32_t>(rng.NextBelow(3));
    const uint32_t lo =
        static_cast<uint32_t>(rng.NextBelow(kLabels - width + 1));
    return Group(lo, lo + width - 1);
  };
  std::vector<std::string> pool;
  std::set<std::string> seen;
  while (pool.size() < size) {
    std::string a = group();
    std::string b = group();
    std::string regex = a + "." + b + "*." + group();
    if (seen.insert(regex).second) pool.push_back(std::move(regex));
  }
  return pool;
}

std::set<std::string> LabelsOf(const std::vector<std::string>& pool) {
  std::set<std::string> labels;
  for (const std::string& regex : pool) {
    size_t i = 0;
    while ((i = regex.find('l', i)) != std::string::npos) {
      size_t j = i + 1;
      while (j < regex.size() &&
             std::isdigit(static_cast<unsigned char>(regex[j]))) {
        ++j;
      }
      labels.insert(regex.substr(i, j - i));
      i = j;
    }
  }
  return labels;
}

std::string MonadicReply(const rpqlearn::BitVector& nodes) {
  std::string reply;
  size_t count = 0;
  for (uint32_t v : nodes.ToIndices()) {
    reply += "NODE " + std::to_string(v) + '\n';
    ++count;
  }
  return reply + "OK QUERY " + std::to_string(count) + '\n';
}

std::string BinaryReply(const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  std::string reply;
  for (const auto& [src, dst] : pairs) {
    reply += "PAIR " + std::to_string(src) + ' ' + std::to_string(dst) + '\n';
  }
  return reply + "OK QUERY " + std::to_string(pairs.size()) + '\n';
}

template <typename T>
T Unwrap(rpqlearn::StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 value.status().ToString().c_str());
    std::exit(4);
  }
  return *std::move(value);
}

/// Regex pool plus the seeded binary source sets, as wire lines.
struct Pool {
  std::vector<std::string> regexes;
  std::vector<std::string> monadic_lines;
  std::vector<std::vector<std::string>> binary_lines;  // [regex][set]
};

Pool MakePool() {
  Pool pool;
  pool.regexes = MakeRegexPool(kPoolSize);
  for (const std::string& regex : pool.regexes) {
    pool.monadic_lines.push_back("QUERY " + regex + "\n");
  }
  return pool;
}

/// The seeded binary source sets, over the nodes the loaded graph has (an
/// edge list carries only nodes that have edges).
void AddSourceSets(uint32_t num_nodes, uint64_t seed, Pool* pool) {
  rpqlearn::Rng rng(seed * 0x100000001b3ULL + 17);
  for (const std::string& regex : pool->regexes) {
    auto& lines = pool->binary_lines.emplace_back();
    for (size_t s = 0; s < kSourceSets; ++s) {
      std::string line = "QUERY " + regex + " FROM";
      const size_t count = 1 + rng.NextBelow(kMaxSources);
      for (size_t i = 0; i < count; ++i) {
        line += ' ' + std::to_string(rng.NextBelow(num_nodes));
      }
      lines.push_back(line + "\n");
    }
  }
}

/// The warm-up pass, over the wire or replayed: every pool regex once as a
/// monadic query and once as a binary query from node 0.
std::vector<std::string> WarmupLines(const Pool& pool) {
  std::vector<std::string> lines;
  for (const std::string& regex : pool.regexes) {
    lines.push_back("QUERY " + regex);
    lines.push_back("QUERY " + regex + " FROM 0");
  }
  return lines;
}

/// The writer connection's update stream: inserts of absent edges and
/// deletes of live ones, on the labels the pool reads. Tracks the live
/// edge set, so every update it emits applies (reply "OK UPDATE 1").
class UpdateStream {
 public:
  UpdateStream(const Graph& graph, const std::set<std::string>& read_labels,
               uint64_t seed)
      : rng_(seed), num_nodes_(graph.num_nodes()) {
    for (const std::string& name : read_labels) {
      labels_.push_back(Unwrap(graph.alphabet().Find(name), "read label"));
      names_.push_back(name);
    }
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      for (const rpqlearn::LabeledEdge& e : graph.OutEdges(v)) {
        for (size_t l = 0; l < labels_.size(); ++l) {
          if (labels_[l] == e.label) Add({v, static_cast<uint32_t>(l), e.node});
        }
      }
    }
  }

  std::string Next() {
    if (rng_.NextBernoulli(0.5) || live_.empty()) {
      while (true) {
        const Edge e{static_cast<NodeId>(rng_.NextBelow(num_nodes_)),
                     static_cast<uint32_t>(rng_.NextBelow(labels_.size())),
                     static_cast<NodeId>(rng_.NextBelow(num_nodes_))};
        if (e.src == e.dst || keys_.count(Key(e)) != 0) continue;
        Add(e);
        return Format('+', e);
      }
    }
    const size_t index = rng_.NextBelow(live_.size());
    const Edge e = live_[index];
    live_[index] = live_.back();
    live_.pop_back();
    keys_.erase(Key(e));
    return Format('-', e);
  }

 private:
  struct Edge {
    NodeId src;
    uint32_t label;  // index into labels_
    NodeId dst;
  };
  uint64_t Key(const Edge& e) const {
    return (static_cast<uint64_t>(e.src) * labels_.size() + e.label) *
               num_nodes_ +
           e.dst;
  }
  void Add(const Edge& e) {
    live_.push_back(e);
    keys_.insert(Key(e));
  }
  std::string Format(char sign, const Edge& e) const {
    return std::string("UPDATE ") + sign + "(" + std::to_string(e.src) + "," +
           names_[e.label] + "," + std::to_string(e.dst) + ")\n";
  }

  rpqlearn::Rng rng_;
  uint64_t num_nodes_;
  std::vector<Symbol> labels_;
  std::vector<std::string> names_;
  std::vector<Edge> live_;
  std::unordered_set<uint64_t> keys_;
};

/// Per-connection query streams (and the writer's updates) of one run.
class RequestStreams {
 public:
  RequestStreams(const Pool& pool, UpdateStream* updates, uint64_t seed)
      : pool_(pool),
        updates_(updates),
        zipf_(static_cast<uint32_t>(pool.regexes.size()), kZipfExponent) {
    for (uint32_t c = 0; c < kConnections; ++c) {
      rngs_.emplace_back(seed * 0x9e3779b97f4a7c15ULL + c + 1);
    }
  }

  void Next(uint32_t conn, WireOp* op) {
    rpqlearn::Rng& rng = rngs_[conn];
    if (conn == 0 && rng.NextBernoulli(kWriterUpdateShare)) {
      op->kind = OpKind::kUpdate;
      op->line = &update_lines_.emplace_back(updates_->Next());
      return;
    }
    const uint32_t regex = zipf_.Sample(&rng);
    if (rng.NextBernoulli(kBinaryShare)) {
      const size_t set = rng.NextBelow(pool_.binary_lines[regex].size());
      op->kind = OpKind::kBinary;
      op->line = &pool_.binary_lines[regex][set];
    } else {
      op->kind = OpKind::kMonadic;
      op->line = &pool_.monadic_lines[regex];
    }
  }

 private:
  const Pool& pool_;
  UpdateStream* updates_;
  rpqlearn::ZipfDistribution zipf_;
  std::vector<rpqlearn::Rng> rngs_;
  /// The writer's update lines (a deque: sent lines never move).
  std::deque<std::string> update_lines_;
};

/// The server-side state a replay drives: a DynamicGraph maintained the
/// way the server maintains it on LOAD, and an Engine over it.
struct ReplayState {
  ReplayState(const Graph& graph, rpqlearn::EvalStats* stats)
      : dynamic(graph) {
    rpqlearn::EngineOptions options;  // the server's default engine
    if (options.eval.condense != rpqlearn::CondenseMode::kOff) {
      dynamic.MaintainCondensation();
    }
    options.eval.stats = stats;
    engine = std::make_unique<Engine>(dynamic, options);
  }
  rpqlearn::DynamicGraph dynamic;
  std::unique_ptr<Engine> engine;
};

/// Parses one wire line (newline included), as the server does.
rpqlearn::server::Command ParseLine(const std::string& line) {
  return Unwrap(rpqlearn::server::ParseCommand(
                    std::string_view(line).substr(0, line.size() - 1)),
                "parse");
}

Symbol LabelOf(const rpqlearn::DynamicGraph& dynamic,
               const rpqlearn::server::Command& update) {
  return Unwrap(dynamic.graph().alphabet().Find(update.label), "label");
}

/// Applies an UPDATE the way the server does; true when the graph changed.
bool ApplyUpdate(rpqlearn::DynamicGraph& dynamic,
                 const rpqlearn::server::Command& update, Symbol label) {
  return update.insert ? dynamic.InsertEdge(update.src, label, update.dst)
                       : dynamic.DeleteEdge(update.src, label, update.dst);
}

/// What one replay of the open-loop requests measured.
struct ReplayReport {
  double wall_seconds = 0.0;
  /// Engine::Plan times of the requests whose plan was cached.
  std::vector<double> plan_hit_us;
  /// Maintenance work of the replayed updates.
  uint64_t condense_retarjans = 0;
  uint64_t condense_dag_rebuilds = 0;
  uint64_t auto_compactions = 0;
};

/// Replays requests [first, end) of `ops` in send order under their wire
/// ids. The replay state starts from the warm-up pass the server saw plus
/// the updates sent before `first`; `stats` (engine runs only) and the
/// report's counts cover the replayed requests.
ReplayReport ReplayOpenLoop(const Graph& graph, const Pool& pool,
                            const std::deque<WireOp>& ops, size_t first,
                            size_t end, Tracer& tracer,
                            rpqlearn::EvalStats* stats) {
  ReplayState state(graph, stats);
  for (const std::string& line : WarmupLines(pool)) {
    const rpqlearn::server::Command command =
        Unwrap(rpqlearn::server::ParseCommand(line), "parse warm-up");
    const Engine::PlanPtr plan =
        Unwrap(state.engine->Plan(std::string_view(command.regex)), "plan");
    if (command.has_sources) {
      Unwrap(plan->RunBinary(command.sources), "warm-up binary run");
    } else {
      Unwrap(plan->RunMonadic(), "warm-up monadic run");
    }
  }
  // The updates the writer sent before the replayed requests.
  for (size_t id = 0; id < first; ++id) {
    if (ops[id].kind != OpKind::kUpdate) continue;
    const rpqlearn::server::Command update = ParseLine(*ops[id].line);
    ApplyUpdate(state.dynamic, update, LabelOf(state.dynamic, update));
  }
  stats->Reset();
  const rpqlearn::MaintenanceStats maintenance_before = state.dynamic.stats();
  // The free functions run with the engine's options and the maintained
  // snapshots, but count nothing: the counters are the engine's.
  rpqlearn::EvalOptions eval_base = *state.engine->eval_options();
  eval_base.stats = nullptr;

  ReplayReport report;
  std::set<std::pair<std::string, uint64_t>> evaluated;  // (regex, version)
  const Clock::time_point start = Clock::now();
  for (size_t id = first; id < end; ++id) {
    const WireOp& op = ops[id];
    const int32_t root = tracer.Begin("request", id);
    rpqlearn::StatusOr<rpqlearn::server::Command> parsed = [&] {
      ScopedSpan span(tracer, "server.parse", id, root);
      return rpqlearn::server::ParseCommand(
          std::string_view(*op.line).substr(0, op.line->size() - 1));
    }();
    const rpqlearn::server::Command command =
        Unwrap(std::move(parsed), "parse");
    if (command.kind == rpqlearn::server::Command::Kind::kUpdate) {
      const Symbol label = LabelOf(state.dynamic, command);
      {
        ScopedSpan span(tracer, "graph.update", id, root);
        ApplyUpdate(state.dynamic, command, label);
      }
      tracer.End(root);
      continue;
    }
    const uint64_t misses_before = state.engine->counters().plan_misses;
    const int64_t plan_start = NowNs();
    const Engine::PlanPtr plan = [&] {
      ScopedSpan span(tracer, "engine.plan", id, root);
      return Unwrap(state.engine->Plan(std::string_view(command.regex)),
                    "plan");
    }();
    const int64_t plan_ns = NowNs() - plan_start;
    if (state.engine->counters().plan_misses == misses_before) {
      report.plan_hit_us.push_back(NsToUs(plan_ns));
    }
    const rpqlearn::EvalOptions eval = state.dynamic.WithCaches(eval_base);
    if (command.has_sources) {
      {
        ScopedSpan span(tracer, "engine.run_binary", id, root);
        Unwrap(plan->RunBinary(command.sources), "binary run");
      }
      ScopedSpan span(tracer, "eval.binary", id, root);
      Unwrap(rpqlearn::EvalBinaryFromSources(state.dynamic.graph(),
                                             plan->dfa(), command.sources,
                                             eval),
             "EvalBinaryFromSources");
    } else {
      const uint64_t warm_before = state.engine->counters().monadic_warm_hits;
      {
        ScopedSpan span(tracer, "engine.run_monadic", id, root);
        Unwrap(plan->RunMonadic(), "monadic run");
      }
      // EvalMonadic for every monadic request the engine had to sweep, and
      // once per regex and graph version otherwise (warm answers).
      const bool swept =
          state.engine->counters().monadic_warm_hits == warm_before;
      const bool first_at_version =
          evaluated.insert({command.regex, state.dynamic.graph().version()})
              .second;
      if (swept || first_at_version) {
        ScopedSpan span(tracer, "eval.monadic", id, root);
        Unwrap(rpqlearn::EvalMonadic(state.dynamic.graph(), plan->dfa(), eval),
               "EvalMonadic");
      }
    }
    tracer.End(root);
  }
  report.wall_seconds = SecondsSince(start);
  const rpqlearn::MaintenanceStats& maintenance = state.dynamic.stats();
  report.condense_retarjans =
      maintenance.condense_retarjans - maintenance_before.condense_retarjans;
  report.condense_dag_rebuilds = maintenance.condense_dag_rebuilds -
                                 maintenance_before.condense_dag_rebuilds;
  report.auto_compactions =
      maintenance.auto_compactions - maintenance_before.auto_compactions;
  return report;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// `cpus`.
void PinCallingThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

/// Open-loop latency, as medians over consecutive windows of
/// kWindowQueries queries (the remainder joins the last window) of each
/// window's p50 and p99. Failed requests count as `failed_ms`.
struct WindowedLatency {
  double p50 = 0.0;
  double p99 = 0.0;
  size_t queries = 0;
  size_t windows = 0;
};

WindowedLatency OpenLoopLatency(const std::deque<WireOp>& ops,
                                const PhaseReport& open, double failed_ms) {
  std::vector<double> all;
  for (size_t i = open.first_op; i < open.end_op; ++i) {
    const WireOp& op = ops[i];
    if (op.kind == OpKind::kUpdate) continue;
    all.push_back(op.outcome == Outcome::kOk ? op.LatencyMs() : failed_ms);
  }
  WindowedLatency out;
  out.queries = all.size();
  out.windows = std::max<size_t>(1, all.size() / kWindowQueries);
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (size_t w = 0; w < out.windows; ++w) {
    const auto begin = all.begin() + static_cast<ptrdiff_t>(w * kWindowQueries);
    const auto end = w + 1 == out.windows
                         ? all.end()
                         : begin + static_cast<ptrdiff_t>(kWindowQueries);
    const std::vector<double> window(begin, end);
    p50s.push_back(Percentile(window, 50));
    p99s.push_back(Percentile(window, 99));
  }
  out.p50 = Median(p50s);
  out.p99 = Median(p99s);
  return out;
}

/// Closed-loop completions per second, per 1-s window after the ramp; the
/// median over the windows.
double ClosedLoopThroughput(const std::deque<WireOp>& ops,
                            const PhaseReport& closed) {
  const int64_t from =
      closed.start_ns + static_cast<int64_t>(kRampSeconds * 1e9);
  const size_t windows = static_cast<size_t>(
      std::max<int64_t>(1, (closed.end_ns - from) / 1000000000));
  std::vector<double> counts(windows, 0.0);
  for (size_t i = closed.first_op; i < closed.end_op; ++i) {
    const int64_t done = ops[i].done_ns;
    if (done < from) continue;
    const size_t w = static_cast<size_t>((done - from) / 1000000000);
    if (w < windows) counts[w] += 1.0;
  }
  return Median(counts);
}

void StartServer(const Pool& pool, const std::string& graph_path,
                 uint64_t seed,
                 std::unique_ptr<rpqlearn::server::RpqServer>* server,
                 RunResult* result) {
  {
    rpqlearn::Dataset dataset =
        rpqlearn::BuildSyntheticDataset(kGraphNodes, seed);
    const rpqlearn::Status saved =
        rpqlearn::SaveEdgeList(dataset.graph, graph_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", saved.ToString().c_str());
      std::exit(4);
    }
  }
  *server = std::make_unique<rpqlearn::server::RpqServer>();
  const rpqlearn::Status started = (*server)->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", started.ToString().c_str());
    std::exit(4);
  }
  ControlClient control((*server)->port());
  const std::string loaded = control.Request("LOAD " + graph_path);
  if (loaded.rfind("OK LOAD", 0) != 0) {
    std::fprintf(stderr, "perfbench: LOAD failed: %s", loaded.c_str());
    std::exit(4);
  }
  for (const std::string& line : WarmupLines(pool)) {
    const std::string reply = control.Request(line);
    const size_t last = reply.rfind('\n', reply.size() - 2);
    if (reply.compare(last == std::string::npos ? 0 : last + 1, 9,
                      "OK QUERY ") != 0) {
      result->Mismatch("warm-up " + line + " answered " + reply.substr(0, 80));
    }
  }
}

/// Checks the writer connection against a sequential model of its own
/// history: it is the only writer, and the server gives a connection
/// read-your-writes, so each of its replies is determined by the updates it
/// sent before. After traffic stops, every pool regex must match the model's
/// end state byte for byte, and the server's edge count the model's.
void CheckWriter(const Graph& reference, const Pool& pool,
                 const std::deque<WireOp>& ops, double server_edges,
                 ControlClient& control, RunResult* result) {
  ReplayState model(reference, nullptr);
  auto expect = [&model](const std::string& line) {
    const rpqlearn::server::Command command = ParseLine(line);
    if (command.kind == rpqlearn::server::Command::Kind::kUpdate) {
      const bool applied =
          ApplyUpdate(model.dynamic, command, LabelOf(model.dynamic, command));
      return "OK UPDATE " + std::string(applied ? "1" : "0") + "\n";
    }
    const Engine::PlanPtr plan =
        Unwrap(model.engine->Plan(std::string_view(command.regex)), "plan");
    if (command.has_sources) {
      return BinaryReply(Unwrap(plan->RunBinary(command.sources), "binary"));
    }
    return MonadicReply(*Unwrap(plan->RunMonadic(), "monadic"));
  };
  for (const WireOp& op : ops) {
    // A request answered ERR was refused or rejected before it ran; a
    // malformed reply was already counted.
    if (op.conn != 0 || op.outcome != Outcome::kOk) continue;
    const std::string want = expect(*op.line);
    if (op.reply_bytes != want.size() || op.reply_hash != HashBytes(want)) {
      ++result->failed;
      result->Mismatch("writer reply to " +
                       op.line->substr(0, op.line->size() - 1) +
                       " differs from the sequential model");
    }
  }
  for (const std::string& line : pool.monadic_lines) {
    const std::string got = control.Request(line.substr(0, line.size() - 1));
    if (got != expect(line)) {
      result->Mismatch("end state of " + line.substr(0, line.size() - 1) +
                       " differs from the sequential model");
    }
  }
  if (server_edges != static_cast<double>(model.dynamic.graph().num_edges())) {
    result->Mismatch("server edge count differs from the sequential model");
  }
}

}  // namespace

RunResult RunReadWrite(const RunArgs& args) {
  // The load generator gets the last CPU the process may use and the server
  // the others, so that the generator's timing and the server's work do not
  // compete. Threads inherit the affinity of the thread that starts them:
  // the server's I/O thread and executors and the evaluation pool, all
  // started from the set-up below, stay off the generator's CPU.
  const std::vector<int> cpus = AllowedCpus();
  const bool split_cpus = cpus.size() >= 2;
  const std::vector<int> server_cpus(cpus.begin(),
                                     cpus.end() - (split_cpus ? 1 : 0));
  PinCallingThread(server_cpus);
  RunResult result;
  Pool pool = MakePool();
  const std::string graph_path = args.work_dir + "/read_write-graph-" +
                                 std::to_string(::getpid()) + ".txt";

  // Set-up: dataset generation, edge-list write, server start, LOAD and the
  // warm-up pass. The first set-up's server is the one measured; the others
  // run after the traffic, for setup_s only, so that the heap they leave
  // behind does not count in peak_rss_mb.
  std::vector<double> setup_seconds;
  std::unique_ptr<rpqlearn::server::RpqServer> server;
  auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    StartServer(pool, graph_path, args.seed, &server, &result);
    setup_seconds.push_back(SecondsSince(start));
  };
  set_up();

  // The reference graph: the edge list reloaded. The binary source sets, the
  // update stream and the writer's sequential model start from it.
  const Clock::time_point load_start = Clock::now();
  const Graph reference =
      Unwrap(rpqlearn::LoadEdgeList(graph_path), "reload edge list");
  const double load_ms = SecondsSince(load_start) * 1e3;
  AddSourceSets(reference.num_nodes(), args.seed, &pool);
  UpdateStream updates(reference, LabelsOf(pool.regexes), args.seed * 31 + 7);
  RequestStreams streams(pool, &updates, args.seed);
  const NextOpFn next = [&streams](uint32_t conn, WireOp* op) {
    streams.Next(conn, op);
  };

  // Wire run: unmeasured warm-up traffic, the open-loop phase, the
  // closed-loop phase.
  const uint16_t port = server->port();
  ControlClient control(port);
  if (split_cpus) PinCallingThread({cpus.back()});
  LoadGenerator generator(port, kConnections);
  generator.RunClosedLoop(kWindow, kWarmupSeconds, next);
  const std::map<std::string, double> stats_before = control.Stats();
  const PhaseReport open =
      generator.RunOpenLoop(kOpenRate, kOpenShare * args.seconds,
                            args.seed * 0x2545f4914f6cdd1dULL + 3, next);
  const PhaseReport closed = generator.RunClosedLoop(
      kWindow, (1.0 - kOpenShare) * args.seconds, next);
  std::map<std::string, double> stats_after = control.Stats();
  // The server's and the generator's peak, read before the output checks
  // build their own model of the graph.
  const double peak_rss = PeakRssMb();
  // The checks and the later set-ups run on the server's CPUs again.
  PinCallingThread(server_cpus);
  const std::deque<WireOp>& ops = generator.ops();

  // Accounting: every wire request is attempted; ERR replies and wrong
  // replies fail.
  uint64_t monadic_sent = 0;
  uint64_t binary_sent = 0;
  double reply_bytes = 0.0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const WireOp& op = ops[i];
    ++result.attempted;
    reply_bytes += op.reply_bytes;
    if (i >= open.first_op && op.kind == OpKind::kMonadic) ++monadic_sent;
    if (i >= open.first_op && op.kind == OpKind::kBinary) ++binary_sent;
    if (op.outcome == Outcome::kError) ++result.failed;
    if (op.outcome == Outcome::kMismatch) {
      ++result.failed;
      result.Mismatch("reply to " + op.line->substr(0, op.line->size() - 1) +
                      " is malformed");
    }
  }

  CheckWriter(reference, pool, ops, stats_after["graph.edges"], control,
              &result);
  server->Stop();
  for (int rep = 1; rep < kSetupReps; ++rep) {
    set_up();
    server->Stop();
  }
  ::unlink(graph_path.c_str());

  // End-to-end figures.
  const double failed_ms = 10.0 * kP99LimitMs;
  const WindowedLatency query = OpenLoopLatency(ops, open, failed_ms);
  std::vector<double> update_ms;
  std::vector<double> late_ms;
  for (size_t i = open.first_op; i < open.end_op; ++i) {
    late_ms.push_back(NsToMs(ops[i].sent_ns - ops[i].due_ns));
    if (ops[i].kind == OpKind::kUpdate) {
      update_ms.push_back(ops[i].outcome == Outcome::kOk ? ops[i].LatencyMs()
                                                          : failed_ms);
    }
  }
  const double setup_s = Median(setup_seconds);
  const double throughput = ClosedLoopThroughput(ops, closed);
  // Little's law at the limit: a backlog above rate x limit means requests
  // were arriving faster than they completed.
  const double backlog_limit = kOpenRate * kP99LimitMs / 1e3 + kConnections;

  std::printf("read_write: %u nodes, %zu edges, pool %zu regexes (plan cache "
              "32), %.0f%% binary, writer update share %.0f%%\n",
              reference.num_nodes(), reference.num_edges(), pool.regexes.size(),
              100 * kBinaryShare, 100 * kWriterUpdateShare);
  std::printf("  open loop %.0f req/s for %.2f s on %u connections, p99 "
              "limit %.0f ms; closed loop %u x %u outstanding for %.2f s\n",
              kOpenRate, NsToMs(open.end_ns - open.start_ns) / 1e3,
              kConnections, kP99LimitMs, kConnections, kWindow,
              NsToMs(closed.end_ns - closed.start_ns) / 1e3);
  std::printf("  requests attempted %llu, succeeded %llu, failed %llu; open "
              "loop: %zu queries in %zu windows, %zu updates\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.attempted - result.failed),
              static_cast<unsigned long long>(result.failed), query.queries,
              query.windows, update_ms.size());
  std::printf("  generator: late p99 %.3f ms, backlog at open-loop end %llu "
              "(limit %.0f), mean reply %.0f bytes\n",
              Percentile(late_ms, 99),
              static_cast<unsigned long long>(open.backlog_end), backlog_limit,
              Ratio(reply_bytes, static_cast<double>(ops.size())));
  std::printf("  setup_s        %.4f s\n  query_p50_ms   %.4f ms\n"
              "  query_p99_ms   %.4f ms\n",
              setup_s, query.p50, query.p99);

  std::printf("  update_p50_ms  %.4f ms\n  update_p95_ms  %.4f ms\n",
              Percentile(update_ms, 50), Percentile(update_ms, 95));
  std::printf("  throughput_qps %.2f req/s\n  peak_rss_mb    %.1f MB\n",
              throughput, peak_rss);

  if (open.backlog_end > backlog_limit) {
    result.invalid = "the open-loop backlog grew to " +
                     std::to_string(open.backlog_end) + " requests";
    return result;
  }
  if (query.queries < kMinOpenLoopQueries) {
    result.invalid = "the open loop yielded " + std::to_string(query.queries) +
                     " queries, fewer than " +
                     std::to_string(kMinOpenLoopQueries);
    return result;
  }
  if (!args.trace) {
    result.Set("setup_s", setup_s);
    result.Set("peak_rss_mb", peak_rss);
    result.Set("latency_p99_ms", query.p99);
    result.Set("throughput_per_s", throughput);
    return result;
  }

  // Traced run: client spans of the wire run, then the open-loop requests
  // replayed untraced and traced.
  Tracer tracer(true);
  for (size_t i = open.first_op; i < open.end_op; ++i) {
    tracer.Record("client", ops[i].due_ns, ops[i].done_ns, i);
  }
  const size_t replay_end =
      std::min(open.end_op, open.first_op + kReplayRequests);
  Tracer off(false);
  rpqlearn::EvalStats untraced_stats;
  // The first untraced replay warms the allocator and the evaluation pool;
  // the second is the baseline of the tracing overhead. (Unwarmed, the
  // baseline took 2.19 s against 1.64 s traced on one run.)
  ReplayOpenLoop(reference, pool, ops, open.first_op, replay_end, off,
                 &untraced_stats);
  const ReplayReport untraced = ReplayOpenLoop(
      reference, pool, ops, open.first_op, replay_end, off, &untraced_stats);
  rpqlearn::EvalStats eval_stats;
  const ReplayReport traced = ReplayOpenLoop(
      reference, pool, ops, open.first_op, replay_end, tracer, &eval_stats);
  std::vector<double> plan_miss_us;
  {
    Engine cold(reference);
    for (size_t r = 0; r < pool.regexes.size(); ++r) {
      ScopedSpan span(tracer, "engine.plan_cold", r);
      const int64_t start = NowNs();
      Unwrap(cold.Plan(std::string_view(pool.regexes[r])), "cold plan");
      plan_miss_us.push_back(NsToUs(NowNs() - start));
    }
  }

  // Server overhead: wire latency minus the replayed engine time of the
  // same request.
  std::vector<int64_t> engine_ns(ops.size(), 0);
  for (const Span& span : tracer.spans()) {
    const std::string_view name = span.name;
    if (name == "engine.plan" || name == "engine.run_monadic" ||
        name == "engine.run_binary" || name == "graph.update") {
      engine_ns[span.request_id] += span.end_ns - span.start_ns;
    }
  }
  std::vector<double> overhead_ms;
  double overhead_total = 0.0;
  double wire_total = 0.0;
  for (size_t i = open.first_op; i < replay_end; ++i) {
    if (ops[i].outcome != Outcome::kOk) continue;
    const double wire = ops[i].LatencyMs();
    const double overhead = wire - NsToMs(engine_ns[i]);
    overhead_ms.push_back(overhead);
    overhead_total += overhead;
    wire_total += wire;
  }
  std::printf("  replay: %.3f s traced vs %.3f s untraced\n%s",
              traced.wall_seconds, untraced.wall_seconds,
              tracer.SelfTimeReport().c_str());

  auto stat_delta = [&](const char* key) {
    return stats_after[key] - stats_before.at(key);
  };
  const double plan_hits = stat_delta("engine.plan_hits");
  const double plan_misses = stat_delta("engine.plan_misses");
  const std::vector<double> run_monadic_us =
      tracer.DurationsUs("engine.run_monadic");
  const std::vector<double> run_binary_us =
      tracer.DurationsUs("engine.run_binary");
  const std::vector<double> update_us = tracer.DurationsUs("graph.update");
  result.Set("server.overhead_ms_p50", Percentile(overhead_ms, 50));
  result.Set("server.overhead_ms_p99", Percentile(overhead_ms, 99));
  result.Set("server.overhead_frac", Ratio(overhead_total, wire_total));
  result.Set("server.parse_us_mean", Mean(tracer.DurationsUs("server.parse")));
  result.Set("server.batch_fill",
             Ratio(stat_delta("server.batched_requests"),
                   static_cast<double>(binary_sent)));
  result.Set("server.admission_rejections",
             stats_after["server.admission_rejections"]);
  result.Set("server.cancelled_requests",
             stats_after["server.cancelled_requests"]);
  result.Set("server.protocol_errors", stats_after["server.protocol_errors"]);
  result.Set("client.query_p50_ms", query.p50);
  result.Set("client.late_ms_p99", Percentile(late_ms, 99));
  result.Set("client.backlog_end", static_cast<double>(open.backlog_end));
  result.Set("client.reply_bytes_mean",
             Ratio(reply_bytes, static_cast<double>(ops.size())));
  result.Set("client.update_p50_ms", Percentile(update_ms, 50));
  result.Set("client.update_p95_ms", Percentile(update_ms, 95));
  result.Set("engine.plan_hit_us_p50", Percentile(traced.plan_hit_us, 50));
  result.Set("engine.plan_miss_us_p50", Percentile(plan_miss_us, 50));
  result.Set("engine.plan_hit_rate", Ratio(plan_hits, plan_hits + plan_misses));
  result.Set("engine.plan_evictions", stat_delta("engine.plan_evictions"));
  result.Set("engine.monadic_warm_rate",
             Ratio(stat_delta("engine.monadic_warm_hits"),
                   static_cast<double>(monadic_sent)));
  result.Set("engine.snapshot_builds", stats_after["engine.snapshot_builds"]);
  result.Set("engine.run_monadic_us_p50", Percentile(run_monadic_us, 50));
  result.Set("engine.run_monadic_us_p99", Percentile(run_monadic_us, 99));
  result.Set("engine.run_binary_us_p50", Percentile(run_binary_us, 50));
  result.Set("engine.run_binary_us_p99", Percentile(run_binary_us, 99));
  result.Set("eval.monadic_us_p50",
             Percentile(tracer.DurationsUs("eval.monadic"), 50));
  result.Set("eval.binary_us_p50",
             Percentile(tracer.DurationsUs("eval.binary"), 50));
  result.Set("eval.pairs_settled",
             static_cast<double>(eval_stats.pairs_settled));
  result.Set("eval.sparse_rounds",
             static_cast<double>(eval_stats.sparse_rounds +
                                 eval_stats.monadic_sparse_rounds));
  result.Set("eval.dense_rounds",
             static_cast<double>(eval_stats.dense_rounds +
                                 eval_stats.monadic_dense_rounds));
  result.Set("eval.condensed_expansions",
             static_cast<double>(eval_stats.condensed_expansions));
  result.Set("graph.load_ms", load_ms);
  result.Set("graph.update_us_p50", Percentile(update_us, 50));
  result.Set("graph.update_us_p99", Percentile(update_us, 99));
  result.Set("graph.condense_retarjans",
             static_cast<double>(traced.condense_retarjans));
  result.Set("graph.condense_dag_rebuilds",
             static_cast<double>(traced.condense_dag_rebuilds));
  result.Set("graph.auto_compactions",
             static_cast<double>(traced.auto_compactions));
  result.Set("trace.overhead_frac",
             traced.wall_seconds / untraced.wall_seconds - 1.0);
  result.Set("trace.coverage", tracer.Coverage("request"));
  const std::string trace_path = args.work_dir + "/trace-read_write.csv";
  if (!tracer.WriteCsv(trace_path)) {
    std::printf("  could not write %s\n", trace_path.c_str());
  }
  return result;
}

}  // namespace perfbench
