#include "server/server.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "query/engine.h"
#include "query/path_query.h"

namespace rpqlearn::server {
namespace {

// Loopback integration tests of the query server: concurrent clients get
// replies bit-identical to direct Engine calls, malformed input degrades to
// typed ERR replies (never a disconnect), admission and cancellation are
// observable, and a pipelined request is answered as if it came alone.

/// A blocking loopback client for tests: writes whole commands, reads
/// newline-framed replies. A read that waits longer than 30 s gives up, so
/// a lost reply fails its test instead of hanging the suite.
class TestClient {
 public:
  /// A nonzero `receive_buffer_bytes` shrinks the socket's SO_RCVBUF (set
  /// before connect, so the advertised window follows it).
  explicit TestClient(uint16_t port, int receive_buffer_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const timeval read_timeout{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &read_timeout,
                 sizeof(read_timeout));
    if (receive_buffer_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &receive_buffer_bytes,
                   sizeof(receive_buffer_bytes));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
  }
  ~TestClient() { Close(); }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Leaves quick-ACK mode, so the kernel delays ACKs of received data (up
  /// to ~40 ms on Linux). The kernel re-enters quick-ACK mode on its own,
  /// so call this before every read that should run delayed.
  void DelayAcks() {
    int zero = 0;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &zero, sizeof(zero));
  }

  void Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + sent, data.size() - sent);
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<size_t>(n);
    }
  }

  /// One line without its terminator; empty string once the server closed
  /// or a read timed out (an unterminated tail is dropped then).
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
      if (n <= 0) {
        buffer_.clear();
        return std::string();
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// One full reply: payload lines plus the terminal OK/ERR line,
  /// newline-joined — the exact bytes the server sent for one request.
  std::string ReadReply() {
    std::string reply;
    while (true) {
      std::string line = ReadLine();
      if (line.empty() && buffer_.empty()) return reply;  // disconnected
      reply += line;
      reply += '\n';
      if (line.rfind("OK ", 0) == 0 || line.rfind("ERR ", 0) == 0) {
        return reply;
      }
    }
  }

  /// Round-trips one command line.
  std::string Ask(const std::string& command) {
    Send(command + "\n");
    return ReadReply();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

Graph TestGraph() {
  ScaleFreeOptions options;
  options.num_nodes = 200;
  options.num_edges = 600;
  options.num_labels = 4;
  options.seed = 5;
  return GenerateScaleFree(options);
}

Dfa ParseQuery(const Graph& graph, const std::string& regex) {
  Alphabet alphabet = graph.alphabet();
  auto q = PathQuery::Parse(regex, &alphabet, graph.num_symbols());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q->dfa();
}

std::string ExpectedMonadicReply(const Engine& engine, const Dfa& query) {
  auto plan = engine.Plan(query);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto nodes = (*plan)->RunMonadic();
  EXPECT_TRUE(nodes.ok()) << nodes.status().ToString();
  std::string reply;
  size_t count = 0;
  for (uint32_t v : (*nodes)->ToIndices()) {
    reply += "NODE " + std::to_string(v) + '\n';
    ++count;
  }
  return reply + "OK QUERY " + std::to_string(count) + '\n';
}

std::string ExpectedBinaryReply(const Engine& engine, const Dfa& query,
                                const std::vector<NodeId>& sources) {
  auto plan = engine.Plan(query);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto pairs = (*plan)->RunBinary(std::span<const NodeId>(sources));
  EXPECT_TRUE(pairs.ok()) << pairs.status().ToString();
  std::string reply;
  for (const auto& [s, d] : *pairs) {
    reply += "PAIR " + std::to_string(s) + ' ' + std::to_string(d) + '\n';
  }
  return reply + "OK QUERY " + std::to_string(pairs->size()) + '\n';
}

class ServerTest : public ::testing::Test {
 protected:
  /// Writes the test graph where LOAD can find it and returns the path.
  std::string WriteGraphFile(const Graph& graph) {
    const std::string path = ::testing::TempDir() + "server_test_graph_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(file_counter_++) + ".txt";
    Status saved = SaveEdgeList(graph, path);
    EXPECT_TRUE(saved.ok()) << saved.ToString();
    cleanup_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : cleanup_) ::unlink(path.c_str());
  }

  ServerOptions options_;
  int file_counter_ = 0;
  std::vector<std::string> cleanup_;
};

TEST_F(ServerTest, LoadThenQueryMatchesDirectEngine) {
  const Graph graph = TestGraph();
  const std::string path = WriteGraphFile(graph);
  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());

  Engine direct(graph);
  TestClient client(server.port());
  EXPECT_EQ(client.Ask("LOAD " + path),
            "OK LOAD " + std::to_string(graph.num_nodes()) + ' ' +
                std::to_string(graph.num_edges()) + ' ' +
                std::to_string(graph.num_symbols()) + '\n');

  EXPECT_EQ(client.Ask("QUERY (l0+l1)*.l2"),
            ExpectedMonadicReply(direct, ParseQuery(graph, "(l0+l1)*.l2")));
  EXPECT_EQ(client.Ask("QUERY l0.l1 FROM 1 2 3 2"),
            ExpectedBinaryReply(direct, ParseQuery(graph, "l0.l1"),
                                {1, 2, 3, 2}));
  // A source past the last node is a typed error naming it, and the
  // connection survives it.
  const std::string past_end = std::to_string(graph.num_nodes());
  const std::string out_of_range = client.Ask("QUERY l0 FROM " + past_end);
  EXPECT_EQ(out_of_range.rfind("ERR INVALID_ARGUMENT ", 0), 0u) << out_of_range;
  EXPECT_NE(out_of_range.find(" " + past_end + " "), std::string::npos)
      << out_of_range;
  EXPECT_EQ(client.Ask("PING"), "OK PING\n");
  EXPECT_EQ(client.Ask("QUIT"), "OK BYE\n");
}

TEST_F(ServerTest, QueryBeforeLoadIsFailedPrecondition) {
  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  EXPECT_EQ(client.Ask("QUERY l0").rfind("ERR FAILED_PRECONDITION", 0), 0u);
}

TEST_F(ServerTest, MalformedLinesGetTypedErrorsWithoutDisconnect) {
  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());

  for (const char* bad : {"BOGUS", "QUERY", "QUERY l0 FROM",
                          "QUERY l0 FROM x", "UPDATE", "UPDATE +(1,a)",
                          "LOAD", "LEARN", "QUERY two tokens"}) {
    const std::string reply = client.Ask(bad);
    EXPECT_EQ(reply.rfind("ERR INVALID_ARGUMENT", 0), 0u)
        << "for \"" << bad << "\" got: " << reply;
  }
  // The connection survived every one of them.
  EXPECT_EQ(client.Ask("PING"), "OK PING\n");
  EXPECT_EQ(server.counters().protocol_errors, 9u);
}

TEST_F(ServerTest, OversizedLineIsRejectedAndTheStreamRecovers) {
  options_.max_line_bytes = 128;
  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());

  std::string oversized(300, 'x');
  client.Send(oversized + "\n");
  EXPECT_EQ(client.ReadReply().rfind("ERR INVALID_ARGUMENT", 0), 0u);
  // Bytes after the oversized line's newline parse normally again.
  EXPECT_EQ(client.Ask("PING"), "OK PING\n");
}

TEST_F(ServerTest, EightConcurrentClientsAreBitIdenticalToDirectCalls) {
  const Graph graph = TestGraph();
  const std::string path = WriteGraphFile(graph);
  options_.executors = 4;
  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());
  {
    TestClient loader(server.port());
    ASSERT_EQ(loader.Ask("LOAD " + path).rfind("OK LOAD", 0), 0u);
  }

  Engine direct(graph);
  const std::vector<std::string> regexes = {"(l0+l1)*.l2", "l0.l1", "l3*"};
  std::vector<std::string> monadic_expected;
  std::vector<std::string> binary_expected;
  std::vector<std::string> binary_commands;
  for (const std::string& regex : regexes) {
    const Dfa query = ParseQuery(graph, regex);
    monadic_expected.push_back(ExpectedMonadicReply(direct, query));
    const std::vector<NodeId> sources = {0, 5, 9, 5, 120};
    binary_expected.push_back(ExpectedBinaryReply(direct, query, sources));
    std::string command = "QUERY " + regex + " FROM";
    for (NodeId v : sources) command += ' ' + std::to_string(v);
    binary_commands.push_back(command);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c]() {
      TestClient client(server.port());
      for (int r = 0; r < 20; ++r) {
        const size_t q = static_cast<size_t>(c + r) % regexes.size();
        if (client.Ask("QUERY " + regexes[q]) != monadic_expected[q]) {
          mismatches.fetch_add(1);
        }
        if (client.Ask(binary_commands[q]) != binary_expected[q]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.counters().queries, 8u * 20u * 2u);
}

TEST_F(ServerTest, PipelinedBinaryQueriesReplyAsIfSentAlone) {
  // Regression: pipelined binary queries on one regex used to be evaluated
  // together, and an out-of-range request in such a group lost the node id
  // from its error. Each pipelined reply must be the bytes the same line
  // gets on a fresh connection.
  const Graph graph = TestGraph();
  const std::string path = WriteGraphFile(graph);
  // One slow executor keeps the pipelined burst queued behind the first
  // request.
  options_.executors = 1;
  options_.execute_delay_for_testing = std::chrono::milliseconds(20);
  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());

  Engine direct(graph);
  TestClient client(server.port());
  ASSERT_EQ(client.Ask("LOAD " + path).rfind("OK LOAD", 0), 0u);

  const Dfa query = ParseQuery(graph, "(l0+l1)*.l2");
  constexpr NodeId kMissing = 99999;
  ASSERT_LT(graph.num_nodes(), kMissing);
  std::vector<std::vector<NodeId>> source_sets;
  std::vector<std::string> lines;
  std::string wire;
  for (NodeId i = 0; i < 6; ++i) {
    source_sets.push_back({i == 3 ? kMissing : i, i + 7});
    std::string line = "QUERY (l0+l1)*.l2 FROM";
    for (NodeId v : source_sets.back()) line += ' ' + std::to_string(v);
    lines.push_back(line);
    wire += line + '\n';
  }
  client.Send(wire);
  std::vector<std::string> pipelined;
  for (size_t i = 0; i < lines.size(); ++i) {
    pipelined.push_back(client.ReadReply());
  }

  for (size_t i = 0; i < lines.size(); ++i) {
    TestClient alone(server.port());
    EXPECT_EQ(pipelined[i], alone.Ask(lines[i])) << lines[i];
    if (i == 3) {
      EXPECT_EQ(pipelined[i].rfind("ERR INVALID_ARGUMENT ", 0), 0u)
          << pipelined[i];
      EXPECT_NE(pipelined[i].find(std::to_string(kMissing)), std::string::npos)
          << pipelined[i];
    } else {
      EXPECT_EQ(pipelined[i],
                ExpectedBinaryReply(direct, query, source_sets[i]))
          << lines[i];
    }
  }
}

TEST_F(ServerTest, OneClientsDisconnectNeverCancelsAnotherClientsQuery) {
  // Regression: two clients' queued binary queries on one regex used to
  // share one evaluation and one ExecContext, so the first client's
  // disconnect cancelled the second client's query.
  const Graph graph = TestGraph();
  const std::string path = WriteGraphFile(graph);
  options_.executors = 1;
  options_.execute_delay_for_testing = std::chrono::milliseconds(100);
  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());
  {
    TestClient loader(server.port());
    ASSERT_EQ(loader.Ask("LOAD " + path).rfind("OK LOAD", 0), 0u);
  }

  Engine direct(graph);
  const std::vector<NodeId> sources = {4, 8, 15};
  const std::string expected =
      ExpectedBinaryReply(direct, ParseQuery(graph, "(l0+l1)*.l2"), sources);
  const std::string command = "QUERY (l0+l1)*.l2 FROM 4 8 15\n";

  // A PING holds the only executor while both queries queue behind it.
  TestClient holder(server.port());
  TestClient leaving(server.port());
  TestClient staying(server.port());
  holder.Send("PING\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  leaving.Send(command);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  staying.Send(command);
  ASSERT_EQ(holder.ReadReply(), "OK PING\n");
  // The executor has taken the first query; its client leaves mid-run.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  leaving.Close();

  const std::string reply = staying.ReadReply();
  // Compared with == so that a mismatch prints a short note, not pairs.
  EXPECT_TRUE(reply == expected) << reply.substr(0, 200);
}

TEST_F(ServerTest, AdmissionBoundRejectsWithResourceExhausted) {
  const Graph graph = TestGraph();
  const std::string path = WriteGraphFile(graph);
  options_.executors = 1;
  options_.max_in_flight = 2;
  options_.execute_delay_for_testing = std::chrono::milliseconds(30);
  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_EQ(client.Ask("LOAD " + path).rfind("OK LOAD", 0), 0u);

  std::string wire;
  for (int i = 0; i < 8; ++i) wire += "QUERY l0\n";
  client.Send(wire);
  int rejected = 0;
  for (int i = 0; i < 8; ++i) {
    if (client.ReadReply().rfind("ERR RESOURCE_EXHAUSTED", 0) == 0) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(server.counters().admission_rejections,
            static_cast<uint64_t>(rejected));
  // The bound is back-pressure, not a breaker: later requests still run.
  EXPECT_EQ(client.Ask("PING"), "OK PING\n");
}

TEST_F(ServerTest, ClosedConnectionReleasesItsQueuedAdmissionSlots) {
  // Regression: a closed connection's queued requests used to hold their
  // admission slots until an executor popped and skipped each one, so
  // another client was refused for work nobody was waiting for.
  options_.executors = 1;
  options_.max_in_flight = 8;
  options_.execute_delay_for_testing = std::chrono::milliseconds(50);
  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());

  {
    TestClient gone(server.port());
    std::string wire;
    for (int i = 0; i < 8; ++i) wire += "PING\n";
    gone.Send(wire);
    // Let the server read the burst (one executing, seven queued: the
    // bound) before it sees the disconnect.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  TestClient client(server.port());
  EXPECT_EQ(client.Ask("PING"), "OK PING\n");
  EXPECT_EQ(server.counters().admission_rejections, 0u);
  EXPECT_GE(server.counters().cancelled_requests, 7u);
}

TEST_F(ServerTest, PipelinedReplyIsNotHeldForDelayedAck) {
  // Two replies finish 10 ms apart. Under Nagle's algorithm the second one
  // would wait on the socket until the client ACKs the first, which a
  // client in delayed-ACK mode does only when its ~40 ms timer fires.
  options_.executors = 1;
  options_.execute_delay_for_testing = std::chrono::milliseconds(10);
  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  client.Send("PING\nPING\n");
  client.DelayAcks();
  ASSERT_EQ(client.ReadLine(), "OK PING");
  const auto first = std::chrono::steady_clock::now();
  client.DelayAcks();
  ASSERT_EQ(client.ReadLine(), "OK PING");
  const auto gap = std::chrono::steady_clock::now() - first;
  EXPECT_LT(gap, std::chrono::milliseconds(25))
      << std::chrono::duration<double, std::milli>(gap).count() << " ms";
}

TEST_F(ServerTest, PartialWritesKeepRepliesWholeAndInOrder) {
  // A reply larger than the client's receive window plus the largest send
  // buffer Linux grows to by default (tcp_wmem max, 4 MiB) cannot go out in
  // one write: the server must keep the unsent tail, queue the next reply
  // behind it, and finish both once the slow reader drains its socket.
  const Graph graph = TestGraph();
  const std::string path = WriteGraphFile(graph);
  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());

  Engine direct(graph);
  TestClient client(server.port(), /*receive_buffer_bytes=*/4096);
  ASSERT_EQ(client.Ask("LOAD " + path).rfind("OK LOAD", 0), 0u);

  const std::string regex = "(l0+l1+l2+l3)*";
  std::vector<NodeId> sources;
  std::string command = "QUERY " + regex + " FROM";
  for (int repeat = 0; repeat < 24; ++repeat) {
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      sources.push_back(v);
      command += ' ' + std::to_string(v);
    }
  }
  const std::string expected =
      ExpectedBinaryReply(direct, ParseQuery(graph, regex), sources);
  ASSERT_GT(expected.size(), size_t{4} << 20);

  client.Send(command + "\nPING\n");
  // Stay away while the server runs into the full socket.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // Compared with == so that a mismatch does not print megabytes.
  EXPECT_TRUE(client.ReadReply() == expected);
  EXPECT_EQ(client.ReadReply(), "OK PING\n");
}

TEST_F(ServerTest, DisconnectMidRequestCancelsItsExecution) {
  const Graph graph = TestGraph();
  const std::string path = WriteGraphFile(graph);
  options_.execute_delay_for_testing = std::chrono::milliseconds(100);
  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());
  {
    TestClient loader(server.port());
    // LOAD also sleeps the test delay; wait for it so the next request's
    // lifetime is what we control.
    ASSERT_EQ(loader.Ask("LOAD " + path).rfind("OK LOAD", 0), 0u);
  }

  {
    TestClient client(server.port());
    client.Send("QUERY (l0+l1)*.l2\n");
    // Drop the connection while the executor is still in its delay.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    client.Close();
  }
  // The cancellation is observed when the executor reaches the request (or
  // its next ExecContext checkpoint); poll briefly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.counters().cancelled_requests == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(server.counters().cancelled_requests, 0u);
}

TEST_F(ServerTest, UpdateMutatesTheServedGraph) {
  GraphBuilder b;
  b.AddNode("n0");
  b.AddNode("n1");
  b.AddNode("n2");
  b.AddEdge(1, "a", 2);
  const Graph graph = b.Build();
  const std::string path = WriteGraphFile(graph);

  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_EQ(client.Ask("LOAD " + path).rfind("OK LOAD", 0), 0u);

  EXPECT_EQ(client.Ask("QUERY a"), "NODE 1\nOK QUERY 1\n");
  EXPECT_EQ(client.Ask("UPDATE +(0,a,1)"), "OK UPDATE 1\n");
  EXPECT_EQ(client.Ask("QUERY a"), "NODE 0\nNODE 1\nOK QUERY 2\n");
  // Re-inserting an existing edge applies nothing.
  EXPECT_EQ(client.Ask("UPDATE + 0 a 1"), "OK UPDATE 0\n");
  EXPECT_EQ(client.Ask("UPDATE -(0,a,1)"), "OK UPDATE 1\n");
  EXPECT_EQ(client.Ask("QUERY a"), "NODE 1\nOK QUERY 1\n");

  // Unknown label / out-of-range endpoints are typed errors.
  EXPECT_EQ(client.Ask("UPDATE +(0,zzz,1)").rfind("ERR NOT_FOUND", 0), 0u);
  EXPECT_NE(client.Ask("UPDATE +(0,a,99)").rfind("ERR ", 0),
            std::string::npos);
}

TEST_F(ServerTest, PipelinedUpdateThenQueryReadsYourWrites) {
  // Regression: with several executors, a pipelined UPDATE-then-QUERY from
  // one connection could execute out of order — the QUERY winning the state
  // lock first — so the client read results not reflecting its own update.
  // Execution is now serialized per connection around mutations.
  GraphBuilder b;
  b.AddNode("n0");
  b.AddNode("n1");
  b.AddNode("n2");
  b.AddEdge(1, "a", 2);
  const Graph graph = b.Build();
  const std::string path = WriteGraphFile(graph);
  options_.executors = 4;
  options_.execute_delay_for_testing = std::chrono::milliseconds(2);
  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_EQ(client.Ask("LOAD " + path).rfind("OK LOAD", 0), 0u);

  // Each burst pipelines mutation/query alternations; every QUERY must
  // observe exactly the UPDATEs written before it on this connection.
  for (int round = 0; round < 10; ++round) {
    client.Send("UPDATE +(0,a,1)\nQUERY a\nUPDATE -(0,a,1)\nQUERY a\n");
    EXPECT_EQ(client.ReadReply(), "OK UPDATE 1\n") << round;
    EXPECT_EQ(client.ReadReply(), "NODE 0\nNODE 1\nOK QUERY 2\n") << round;
    EXPECT_EQ(client.ReadReply(), "OK UPDATE 1\n") << round;
    EXPECT_EQ(client.ReadReply(), "NODE 1\nOK QUERY 1\n") << round;
  }
}

TEST_F(ServerTest, AbruptDisconnectStormDoesNotRace) {
  // Regression: disconnect-time Cancel() used to chase a raw pointer the
  // executor concurrently cleared and whose stack ExecContext it destroyed;
  // the per-connection registry now orders them under a lock. Stress both
  // sides of the window, including two same-connection requests executing
  // concurrently (the old single slot dropped one of them).
  const Graph graph = TestGraph();
  const std::string path = WriteGraphFile(graph);
  options_.executors = 4;
  options_.execute_delay_for_testing = std::chrono::milliseconds(1);
  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());
  {
    TestClient loader(server.port());
    ASSERT_EQ(loader.Ask("LOAD " + path).rfind("OK LOAD", 0), 0u);
  }
  for (int i = 0; i < 50; ++i) {
    TestClient client(server.port());
    client.Send("QUERY (l0+l1)*.l2\nQUERY l0.l1 FROM 1 2 3\n");
    // Drop the connection at a sliding point in the execution window.
    std::this_thread::sleep_for(std::chrono::microseconds(200 * (i % 10)));
    client.Close();
  }
  server.Stop();  // must join cleanly with cancellations in flight
}

TEST_F(ServerTest, StatsReportServerEngineAndGraphTelemetry) {
  const Graph graph = TestGraph();
  const std::string path = WriteGraphFile(graph);
  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_EQ(client.Ask("LOAD " + path).rfind("OK LOAD", 0), 0u);
  client.Ask("QUERY l0");
  client.Ask("QUERY l0");

  const std::string stats = client.Ask("STATS");
  EXPECT_NE(stats.find("STAT server.queries 2\n"), std::string::npos);
  EXPECT_NE(stats.find("STAT server.loads 1\n"), std::string::npos);
  EXPECT_NE(stats.find("STAT graph.nodes " +
                       std::to_string(graph.num_nodes()) + "\n"),
            std::string::npos);
  EXPECT_NE(stats.find("STAT engine.plan_hits 1\n"), std::string::npos);
  EXPECT_NE(stats.find("STAT engine.monadic_warm_hits 1\n"),
            std::string::npos);
  // The repository benchmark's read_write workload reads the two engine
  // keys above and the keys below: graph.edges through std::map::operator[]
  // (a missing key would read 0), the others through .at() (a missing key
  // would abort a traced run).
  EXPECT_NE(stats.find("STAT graph.edges " +
                       std::to_string(graph.num_edges()) + "\n"),
            std::string::npos);
  EXPECT_NE(stats.find("STAT engine.plan_misses 1\n"), std::string::npos);
  EXPECT_NE(stats.find("STAT engine.plan_evictions 0\n"), std::string::npos);
  EXPECT_NE(stats.find("STAT server.batched_requests 0\n"),
            std::string::npos);
  EXPECT_NE(stats.find("OK STATS "), std::string::npos);
}

TEST_F(ServerTest, LearnRunsAnInteractiveSessionAgainstTheGoal) {
  GraphBuilder b;
  for (int v = 0; v < 6; ++v) b.AddNode("n" + std::to_string(v));
  b.AddEdge(0, "a", 1);
  b.AddEdge(1, "a", 2);
  b.AddEdge(3, "b", 4);
  b.AddEdge(4, "b", 5);
  const Graph graph = b.Build();
  const std::string path = WriteGraphFile(graph);

  RpqServer server(options_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_EQ(client.Ask("LOAD " + path).rfind("OK LOAD", 0), 0u);

  const std::string reply = client.Ask("LEARN a SEED 7 MAX 32");
  ASSERT_EQ(reply.rfind("LEARNED ", 0), 0u) << reply;
  EXPECT_NE(reply.find("\nOK LEARN "), std::string::npos) << reply;
  // The session reached the goal: the terminal line ends "... 1".
  EXPECT_EQ(reply.substr(reply.size() - 2), "1\n") << reply;
  EXPECT_EQ(server.counters().learns, 1u);
}

}  // namespace
}  // namespace rpqlearn::server
