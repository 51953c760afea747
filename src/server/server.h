#ifndef RPQLEARN_SERVER_SERVER_H_
#define RPQLEARN_SERVER_SERVER_H_

/// The RPQ query server: a poll()-based event loop serving the wire
/// protocol of server/protocol.h to concurrent non-blocking clients, backed
/// by the Engine facade (src/query/engine.h).
///
/// Threading model (docs/ARCHITECTURE.md, "Query server & engine facade"):
///
///   - One **I/O thread** owns every socket: it accepts connections, splits
///     arriving bytes into protocol lines (LineBuffer), parses them, and
///     enqueues one Request per line onto a global queue. It also flushes
///     reply bytes — workers never touch a socket. A self-pipe wakes the
///     poll loop once per delivered reply. Accepted sockets set
///     TCP_NODELAY: a flush writes whole replies, so Nagle's algorithm has
///     nothing to merge and would only hold a finished reply until the
///     client ACKs the previous one (~40 ms for a delayed-ACK client). A
///     partial write keeps its unsent tail in an I/O-thread buffer with a
///     write offset; newer replies queue behind it.
///   - A pool of **executor threads** pops requests and runs them against
///     the server state. Replies are delivered per connection in request
///     order (a per-connection sequence number orders the flush), so
///     pipelined clients read replies in the order they wrote commands.
///     Execution order additionally guarantees per-connection
///     **read-your-writes**: a connection's mutation (LOAD / UPDATE) never
///     starts while that connection has any other request executing, and
///     none of its requests start while its mutation executes — so a
///     pipelined UPDATE-then-QUERY observes its own update. Pure-query
///     pipelines still execute concurrently across the pool.
///
/// State and consistency: the loaded graph lives in a DynamicGraph with an
/// Engine over it. Mutations (LOAD, UPDATE) take the state lock exclusively;
/// QUERY / LEARN / STATS share it. The engine's plan cache and each plan's
/// retained monadic fixed point make repeat queries warm; an UPDATE only
/// queues itself on the plans that read its label, and the next QUERY of
/// such a plan repairs the fixed point in place.
///
/// Admission control: at most `max_in_flight` requests may be queued or
/// executing; a request arriving beyond that is answered
/// `ERR RESOURCE_EXHAUSTED` without being queued. A disconnect drops the
/// connection's queued requests at once, freeing their slots. Each admitted
/// request runs under its own ExecContext, armed with `request_deadline_ms`
/// and cancelled when its client disconnects — a disconnect mid-evaluation
/// trips the engine at its next checkpoint instead of wasting the executor.
/// Every executing request registers its context in a per-connection
/// registry whose lock orders disconnect-time Cancel() against the executor
/// destroying the context, and which cancels all of a connection's
/// concurrently executing requests, not just the latest.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/dynamic.h"
#include "query/engine.h"
#include "server/protocol.h"
#include "util/status.h"

namespace rpqlearn::server {

struct ServerOptions {
  /// TCP port to listen on (loopback only); 0 picks an ephemeral port —
  /// read it back via RpqServer::port().
  uint16_t port = 0;
  /// Executor pool size.
  size_t executors = 2;
  /// Admission bound: requests queued or executing before new ones are
  /// rejected with RESOURCE_EXHAUSTED.
  size_t max_in_flight = 64;
  /// Per-request wall-clock deadline; 0 = none.
  uint32_t request_deadline_ms = 0;
  /// Protocol-line length bound (see LineBuffer).
  size_t max_line_bytes = kMaxLineBytes;
  /// Engine configuration applied to every loaded graph (eval knobs, plan
  /// cache capacity).
  EngineOptions engine;
  /// Default interaction bound of LEARN sessions (a client MAX clause wins).
  size_t learn_max_interactions = 256;
  /// Test hook: executors sleep this long before running each request, so
  /// tests can deterministically disconnect / pile up a queue mid-request.
  std::chrono::milliseconds execute_delay_for_testing{0};
};

/// Server telemetry, snapshot via RpqServer::counters() and streamed by the
/// STATS command (engine counters ride along there).
struct ServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t lines_received = 0;
  /// Lines rejected before execution: parse failures and oversized lines.
  uint64_t protocol_errors = 0;
  /// Requests rejected by the admission bound.
  uint64_t admission_rejections = 0;
  /// Requests whose client disconnected before execution finished.
  uint64_t cancelled_requests = 0;
  uint64_t loads = 0;
  uint64_t queries = 0;
  uint64_t updates = 0;
  uint64_t learns = 0;
};

class RpqServer {
 public:
  explicit RpqServer(ServerOptions options = {});
  ~RpqServer();

  RpqServer(const RpqServer&) = delete;
  RpqServer& operator=(const RpqServer&) = delete;

  /// Binds, listens, and starts the I/O and executor threads. Status on
  /// socket errors (port in use, ...).
  Status Start();

  /// Stops the loops, closes every connection, joins the threads.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  ServerCounters counters() const;

 private:
  struct Connection;
  struct Request;

  // --- I/O thread ---
  void IoLoop();
  void AcceptPending();
  void ReadFromConnection(const std::shared_ptr<Connection>& conn);
  void FlushToConnection(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  /// Turns one received line into a queued Request (or an immediate
  /// admission / protocol error reply).
  void EnqueueLine(const std::shared_ptr<Connection>& conn,
                   LineBuffer::Line line);
  void WakeIo();

  // --- executors ---
  void ExecutorLoop();
  /// Index of the first queued request allowed to start under the
  /// per-connection ordering rules (read-your-writes around mutations), or
  /// queue_.size() when none may. Requires queue_mutex_ held.
  size_t FindRunnableLocked() const;
  /// Pops the next runnable request; null when stopping.
  std::unique_ptr<Request> PopRequest();
  /// Runs one request under its own ExecContext and delivers its reply.
  void Execute(Request& request);
  /// Formats and delivers one terminal reply (payload lines already in
  /// `payload`), keeping the per-connection flush order.
  void DeliverReply(Request& request, std::string reply);

  // --- command handlers (executor side) ---
  std::string HandleLoad(const Command& command);
  std::string HandleQuery(const Command& command, ExecContext* exec);
  std::string HandleUpdate(const Command& command);
  std::string HandleLearn(const Command& command, ExecContext* exec);
  std::string HandleStats();

  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  std::atomic<bool> running_{false};

  std::thread io_thread_;
  std::vector<std::thread> executor_threads_;

  /// Guards connections_ (I/O thread owns the sockets; Stop() joins first).
  std::vector<std::shared_ptr<Connection>> connections_;

  /// Request queue + admission accounting.
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Request>> queue_;
  size_t executing_ = 0;

  /// Loaded graph + engine; LOAD/UPDATE exclusive, QUERY/LEARN/STATS shared.
  mutable std::shared_mutex state_mutex_;
  std::unique_ptr<DynamicGraph> dynamic_;
  /// Subscribed to *dynamic_, so declared after it (destroyed first) and
  /// reset before it is replaced.
  std::unique_ptr<Engine> engine_;

  mutable std::mutex counters_mutex_;
  ServerCounters counters_;
};

}  // namespace rpqlearn::server

#endif  // RPQLEARN_SERVER_SERVER_H_
