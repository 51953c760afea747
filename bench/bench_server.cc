// Query-server throughput bench: an in-process RpqServer under N concurrent
// wire clients, measuring sustained queries/sec and the plan-cache hit rate,
// with every reply checked bit-for-bit against a direct Engine evaluation
// of the same graph. Results go to BENCH_server.json; machine-independent
// health metrics (hit rate, reply correctness) are gated in
// bench/baseline_server.json by the CI perf job.
//
// Knobs (see bench_common.h): RPQ_SERVER_PORT, RPQ_SERVER_EXECUTORS,
// RPQ_SERVER_MAX_IN_FLIGHT, RPQ_SERVER_CLIENTS, RPQ_SERVER_REQUESTS,
// RPQ_SERVER_DEADLINE_MS, plus the RPQ_EVAL_* evaluation knobs.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "graph/io.h"
#include "query/engine.h"
#include "server/server.h"
#include "util/logging.h"
#include "workloads/workloads.h"

namespace rpqlearn {
namespace {

/// A blocking loopback wire client: writes command lines, reads reply lines.
class LineClient {
 public:
  explicit LineClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    RPQ_CHECK(fd_ >= 0) << "socket: " << std::strerror(errno);
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    RPQ_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0)
        << "connect: " << std::strerror(errno);
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + sent, data.size() - sent);
      RPQ_CHECK(n > 0) << "write: " << std::strerror(errno);
      sent += static_cast<size_t>(n);
    }
  }

  std::string ReadLine() {
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      RPQ_CHECK(n > 0) << "server closed the connection mid-reply";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Reads one full reply (payload lines + the terminal OK/ERR line),
  /// newline-joined — the exact bytes the server sent for one request.
  std::string ReadReply() {
    std::string reply;
    while (true) {
      std::string line = ReadLine();
      reply += line;
      reply += '\n';
      if (line.rfind("OK ", 0) == 0 || line.rfind("ERR ", 0) == 0) {
        return reply;
      }
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The reply bytes a direct Engine evaluation predicts for
/// `QUERY <regex> FROM <sources...>`.
std::string ExpectedBinaryReply(const Engine& engine, const Dfa& query,
                                const std::vector<NodeId>& sources) {
  Engine::PlanPtr plan = bench::UnwrapOrExit(engine.Plan(query), "plan");
  auto pairs = bench::UnwrapOrExit(
      plan->RunBinary(std::span<const NodeId>(sources)), "binary eval");
  std::string reply;
  for (const auto& [s, d] : pairs) {
    reply += "PAIR " + std::to_string(s) + ' ' + std::to_string(d) + '\n';
  }
  reply += "OK QUERY " + std::to_string(pairs.size()) + '\n';
  return reply;
}

/// The reply bytes a direct Engine evaluation predicts for `QUERY <regex>`.
std::string ExpectedMonadicReply(const Engine& engine, const Dfa& query) {
  Engine::PlanPtr plan = bench::UnwrapOrExit(engine.Plan(query), "plan");
  const MonadicNodes nodes =
      bench::UnwrapOrExit(plan->RunMonadic(), "monadic eval");
  std::string reply;
  size_t count = 0;
  for (uint32_t v : nodes->ToIndices()) {
    reply += "NODE " + std::to_string(v) + '\n';
    ++count;
  }
  reply += "OK QUERY " + std::to_string(count) + '\n';
  return reply;
}

std::map<std::string, double> FetchStats(uint16_t port) {
  LineClient client(port);
  client.Send("STATS\n");
  std::map<std::string, double> stats;
  while (true) {
    std::string line = client.ReadLine();
    if (line.rfind("STAT ", 0) == 0) {
      const size_t space = line.rfind(' ');
      stats[line.substr(5, space - 5)] = std::stod(line.substr(space + 1));
      continue;
    }
    RPQ_CHECK(line.rfind("OK STATS", 0) == 0) << "unexpected: " << line;
    return stats;
  }
}

}  // namespace
}  // namespace rpqlearn

int main() {
  using namespace rpqlearn;

  const uint32_t num_clients = bench::ServerClients();
  const uint32_t requests_per_client = bench::ServerRequestsPerClient();
  const uint32_t graph_nodes = bench::PaperScale() ? 10000 : 2000;

  // The served graph goes through the wire format: saved as an edge list,
  // LOADed by the server, and reloaded here as the reference — WriteEdgeList
  // round-trips are id-identical, so direct-Engine replies predict server
  // replies byte for byte.
  Dataset dataset = BuildSyntheticDataset(graph_nodes);
  const std::string graph_path =
      "/tmp/bench_server_graph_" + std::to_string(::getpid()) + ".txt";
  {
    Status saved = SaveEdgeList(dataset.graph, graph_path);
    RPQ_CHECK(saved.ok()) << saved.ToString();
  }
  Graph reference =
      bench::UnwrapOrExit(LoadEdgeList(graph_path), "reload graph");
  EngineOptions engine_options;
  engine_options.eval = bench::EvalConfig();
  Engine direct(reference, engine_options);

  server::ServerOptions options;
  options.port = static_cast<uint16_t>(bench::ServerPort());
  options.executors = bench::ServerExecutors();
  options.max_in_flight = bench::ServerMaxInFlight();
  options.request_deadline_ms = bench::ServerDeadlineMs();
  options.engine = engine_options;
  server::RpqServer rpq_server(options);
  {
    Status started = rpq_server.Start();
    RPQ_CHECK(started.ok()) << started.ToString();
  }
  const uint16_t port = rpq_server.port();
  std::printf("bench_server: %u clients x %u requests, graph %u nodes, "
              "port %u, %u executors\n",
              num_clients, requests_per_client, dataset.graph.num_nodes(),
              port, static_cast<uint32_t>(options.executors));

  {
    LineClient loader(port);
    loader.Send("LOAD " + graph_path + "\n");
    const std::string reply = loader.ReadReply();
    RPQ_CHECK(reply.rfind("OK LOAD", 0) == 0) << reply;
  }

  // Warm-up + correctness spot check: every workload query, monadic form,
  // must come back bit-identical to the direct engine.
  {
    LineClient checker(port);
    for (const Workload& w : dataset.queries) {
      checker.Send("QUERY " + w.regex + "\n");
      const std::string got = checker.ReadReply();
      const std::string want = ExpectedMonadicReply(direct, w.query);
      RPQ_CHECK(got == want) << w.name << ": server reply diverges";
    }
  }

  // Throughput phase: every client pipelines bursts of binary queries over
  // a small rotation of source sets, all against one regex — the shape that
  // exercises the plan cache (one compile, then hits). Each reply is checked
  // against its precomputed expected bytes, so the bench doubles as a
  // concurrency bit-identity test.
  const Workload& workload = dataset.queries[1];  // syn2, 15% selectivity
  constexpr uint32_t kSourceSets = 8;
  constexpr uint32_t kSourcesPerSet = 16;
  // Pipeline depth per client, sized to keep the total outstanding load
  // under the admission bound — this bench measures throughput, not the
  // rejection path (tests/server_test.cc covers that).
  const uint32_t burst = std::max<uint32_t>(
      1, static_cast<uint32_t>(options.max_in_flight) / (num_clients * 2));
  std::vector<std::vector<NodeId>> source_sets(kSourceSets);
  std::vector<std::string> commands(kSourceSets);
  std::vector<std::string> expected(kSourceSets);
  for (uint32_t j = 0; j < kSourceSets; ++j) {
    std::string command = "QUERY " + workload.regex + " FROM";
    for (uint32_t i = 0; i < kSourcesPerSet; ++i) {
      const NodeId v = (j * 131u + i * 31u + 7u) % reference.num_nodes();
      source_sets[j].push_back(v);
      command += ' ' + std::to_string(v);
    }
    commands[j] = command + '\n';
    expected[j] = ExpectedBinaryReply(direct, workload.query, source_sets[j]);
  }

  std::atomic<uint64_t> mismatches{0};
  const auto throughput_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> clients;
    clients.reserve(num_clients);
    for (uint32_t c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c]() {
        LineClient client(port);
        uint32_t sent = 0;
        while (sent < requests_per_client) {
          const uint32_t chunk = std::min(burst, requests_per_client - sent);
          std::string wire;
          for (uint32_t i = 0; i < chunk; ++i) {
            wire += commands[(c + sent + i) % kSourceSets];
          }
          client.Send(wire);
          for (uint32_t i = 0; i < chunk; ++i) {
            const std::string reply = client.ReadReply();
            if (reply != expected[(c + sent + i) % kSourceSets]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
          sent += chunk;
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    throughput_start)
          .count();
  const uint64_t total_requests =
      static_cast<uint64_t>(num_clients) * requests_per_client;
  const double qps = static_cast<double>(total_requests) / elapsed_seconds;

  std::map<std::string, double> stats = FetchStats(port);
  const double plan_hits = stats["engine.plan_hits"];
  const double plan_misses = stats["engine.plan_misses"];
  const double hit_rate =
      plan_hits + plan_misses > 0 ? plan_hits / (plan_hits + plan_misses)
                                  : 0.0;
  const uint64_t mismatch_count = mismatches.load();

  rpq_server.Stop();
  ::unlink(graph_path.c_str());

  std::printf(
      "  %.0f queries/sec (%llu requests in %.3fs)\n"
      "  plan cache: %.0f hits / %.0f misses (hit rate %.4f)\n"
      "  reply mismatches vs direct engine: %llu\n",
      qps, static_cast<unsigned long long>(total_requests), elapsed_seconds,
      plan_hits, plan_misses, hit_rate,
      static_cast<unsigned long long>(mismatch_count));

  FILE* out = std::fopen("BENCH_server.json", "w");
  RPQ_CHECK(out != nullptr) << "cannot write BENCH_server.json";
  std::fprintf(
      out,
      "{\n"
      "  \"server\": {\n"
      "    \"clients\": %u,\n"
      "    \"requests_per_client\": %u,\n"
      "    \"graph_nodes\": %u,\n"
      "    \"elapsed_seconds\": %.6f,\n"
      "    \"queries_per_second\": %.2f,\n"
      "    \"plan_cache_hit_rate\": %.6f,\n"
      "    \"replies_bit_identical\": %d\n"
      "  }\n"
      "}\n",
      num_clients, requests_per_client, dataset.graph.num_nodes(),
      elapsed_seconds, qps, hit_rate, mismatch_count == 0 ? 1 : 0);
  std::fclose(out);
  std::printf("wrote BENCH_server.json\n");
  return mismatch_count == 0 ? 0 : 1;
}
