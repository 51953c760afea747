#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <sstream>
#include <utility>

#include "graph/io.h"
#include "interact/oracle.h"
#include "interact/session.h"
#include "regex/from_dfa.h"
#include "regex/printer.h"
#include "util/exec_context.h"

namespace rpqlearn::server {
namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::Ok();
}

/// True for commands that mutate served state (LOAD, UPDATE): these order
/// strictly against other requests of the same connection.
bool IsMutation(const StatusOr<Command>& command) {
  return command.ok() && (command->kind == Command::Kind::kLoad ||
                          command->kind == Command::Kind::kUpdate);
}

}  // namespace

/// One client socket plus everything ordered around it. The I/O thread owns
/// fd / line buffer / write buffer; executors only touch the reply map and
/// `out` (under `mutex`) and the cancellation registry (under `exec_mutex`).
struct RpqServer::Connection {
  int fd = -1;
  LineBuffer lines;
  /// Next sequence number handed to an incoming line.
  uint64_t next_seq = 0;

  /// True once the peer disconnected (or QUIT drained): executors skip
  /// pending work for this connection.
  std::atomic<bool> closed{false};

  /// Cancellation registry: the ExecContexts of this connection's currently
  /// executing requests (several may run at once). Registration, removal,
  /// and disconnect-time Cancel() all happen under `exec_mutex`, and the
  /// executor removes its context before the (stack-allocated) object dies
  /// — so a Cancel() can never touch a destroyed context.
  std::mutex exec_mutex;
  std::vector<ExecContext*> active_execs;

  /// Execution-order accounting, guarded by RpqServer::queue_mutex_: how
  /// many of this connection's requests are executing, and whether one of
  /// them is a mutation. PopRequest consults these to give pipelined
  /// clients read-your-writes (see FindRunnableLocked).
  size_t executing_requests = 0;
  bool executing_mutation = false;

  /// Reply ordering: finished replies wait in `done` until every smaller
  /// sequence number flushed. The I/O thread drains `out`.
  std::mutex mutex;
  std::map<uint64_t, std::string> done;
  uint64_t next_flush_seq = 0;
  std::string out;
  bool close_after_flush = false;

  /// I/O-thread only: the bytes taken from `out` that the socket has not
  /// accepted yet, sent from offset `written` on. A partial write leaves its
  /// tail here, and `out` is not taken again until the tail is gone.
  std::string writing;
  size_t written = 0;

  explicit Connection(size_t max_line_bytes) : lines(max_line_bytes) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  void RegisterExec(ExecContext* exec) {
    std::lock_guard<std::mutex> lock(exec_mutex);
    active_execs.push_back(exec);
    // A disconnect between the executor's closed-check and this point has
    // already swept the registry; trip the late arrival here.
    if (closed.load()) exec->Cancel();
  }
  void UnregisterExec(ExecContext* exec) {
    std::lock_guard<std::mutex> lock(exec_mutex);
    active_execs.erase(
        std::find(active_execs.begin(), active_execs.end(), exec));
  }
  void CancelActiveExecs() {
    std::lock_guard<std::mutex> lock(exec_mutex);
    for (ExecContext* exec : active_execs) exec->Cancel();
  }
};

/// One admitted protocol line on its way through the executor pool.
struct RpqServer::Request {
  std::shared_ptr<Connection> conn;
  uint64_t seq = 0;
  /// Parse result: a command to execute, or the error to report.
  StatusOr<Command> command = Status::InvalidArgument("unparsed");
};

RpqServer::RpqServer(ServerOptions options) : options_(std::move(options)) {}

RpqServer::~RpqServer() { Stop(); }

Status RpqServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Errno("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0 ||
      ::listen(listen_fd_, 64) < 0 || !SetNonBlocking(listen_fd_).ok()) {
    Status status = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(addr.sin_port);

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    Status status = Errno("pipe");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  (void)SetNonBlocking(wake_read_fd_);
  (void)SetNonBlocking(wake_write_fd_);

  running_.store(true);
  io_thread_ = std::thread([this] { IoLoop(); });
  const size_t executors = std::max<size_t>(1, options_.executors);
  executor_threads_.reserve(executors);
  for (size_t i = 0; i < executors; ++i) {
    executor_threads_.emplace_back([this] { ExecutorLoop(); });
  }
  return Status::Ok();
}

void RpqServer::Stop() {
  if (!running_.exchange(false)) return;
  WakeIo();
  // Take-and-release the queue lock between flipping running_ and
  // notifying: an executor that read running_ == true did so inside its
  // wait predicate while holding this lock, so acquiring it here means that
  // executor has since entered the wait — the notify cannot be lost.
  { std::lock_guard<std::mutex> lock(queue_mutex_); }
  queue_cv_.notify_all();
  if (io_thread_.joinable()) io_thread_.join();
  for (std::thread& t : executor_threads_) {
    if (t.joinable()) t.join();
  }
  executor_threads_.clear();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.clear();
  }
  connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
}

ServerCounters RpqServer::counters() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  return counters_;
}

void RpqServer::WakeIo() {
  const char byte = 1;
  if (wake_write_fd_ >= 0) {
    ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
    (void)ignored;
  }
}

// ------------------------------------------------------------- I/O thread

void RpqServer::IoLoop() {
  while (running_.load()) {
    // Snapshot first: AcceptPending / CloseConnection mutate connections_,
    // and fds[2 + i] must keep lining up with polled[i].
    const std::vector<std::shared_ptr<Connection>> polled = connections_;
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_read_fd_, POLLIN, 0});
    for (const auto& conn : polled) {
      short events = POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        if (!conn->out.empty() || !conn->writing.empty()) events |= POLLOUT;
      }
      fds.push_back({conn->fd, events, 0});
    }

    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/100);
    if (!running_.load()) break;
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if (fds[1].revents & POLLIN) {
      char drain[256];
      while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) AcceptPending();

    for (size_t i = 0; i < polled.size(); ++i) {
      const pollfd& pfd = fds[2 + i];
      const auto& conn = polled[i];
      if (conn->closed.load()) continue;
      if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) {
        CloseConnection(conn);
        continue;
      }
      if (pfd.revents & POLLIN) ReadFromConnection(conn);
      if (!conn->closed.load() && (pfd.revents & POLLOUT)) {
        FlushToConnection(conn);
      }
    }
    // QUIT / flush completion may leave drained connections to close.
    const std::vector<std::shared_ptr<Connection>> current = connections_;
    for (const auto& conn : current) {
      bool drained_quit = false;
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        drained_quit = conn->close_after_flush && conn->writing.empty() &&
                       conn->out.empty() && conn->done.empty() &&
                       conn->next_flush_seq == conn->next_seq;
      }
      if (drained_quit || conn->closed.load()) CloseConnection(conn);
    }
  }
  // Shutdown: close every socket so clients see EOF.
  for (const auto& conn : connections_) {
    conn->closed.store(true);
    conn->CancelActiveExecs();
  }
}

void RpqServer::AcceptPending() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    // Every flush writes whole replies, so Nagle's algorithm has nothing to
    // merge: it would only hold a finished reply back until the client ACKs
    // the previous one, which a delayed-ACK client does ~40 ms later.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(options_.max_line_bytes);
    conn->fd = fd;
    connections_.push_back(std::move(conn));
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.connections_accepted;
  }
}

void RpqServer::ReadFromConnection(const std::shared_ptr<Connection>& conn) {
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buffer, sizeof(buffer));
    if (n > 0) {
      conn->lines.Append(std::string_view(buffer, static_cast<size_t>(n)));
      // Chunked appends keep peak buffering near the line bound: oversized
      // prefixes are discarded as they cross it.
      while (std::optional<LineBuffer::Line> line = conn->lines.NextLine()) {
        EnqueueLine(conn, *std::move(line));
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    // EOF or hard error: the peer is gone. The loop reads on to EAGAIN, not
    // just to a short read, so an EOF that arrived with the data is seen
    // here and the lines just queued give their admission slots back before
    // the next connection's lines are read.
    CloseConnection(conn);
    return;
  }
}

void RpqServer::EnqueueLine(const std::shared_ptr<Connection>& conn,
                            LineBuffer::Line line) {
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.lines_received;
  }
  auto request = std::make_unique<Request>();
  request->conn = conn;
  request->seq = conn->next_seq++;
  if (line.oversized) {
    request->command = Status::InvalidArgument(
        "line exceeds " + std::to_string(options_.max_line_bytes) +
        " bytes (dropped): " + line.text + "...");
  } else {
    request->command = ParseCommand(line.text);
  }
  if (!request->command.ok()) {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.protocol_errors;
  }

  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_.size() + executing_ < options_.max_in_flight) {
      queue_.push_back(std::move(request));
      admitted = true;
    }
  }
  if (admitted) {
    queue_cv_.notify_one();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.admission_rejections;
  }
  // Rejected: reply inline (the I/O thread owns this connection, so the
  // sequence-ordered flush path is safe to run here).
  Request rejected;
  rejected.conn = conn;
  rejected.seq = request->seq;
  DeliverReply(rejected, FormatErrorReply(Status::ResourceExhausted(
                             "server at max in-flight requests (" +
                             std::to_string(options_.max_in_flight) + ")")));
}

void RpqServer::FlushToConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->writing.empty()) {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->writing.swap(conn->out);
  }
  while (conn->written < conn->writing.size()) {
    const ssize_t n = ::write(conn->fd, conn->writing.data() + conn->written,
                              conn->writing.size() - conn->written);
    if (n > 0) {
      conn->written += static_cast<size_t>(n);
      continue;
    }
    // Partial write: the tail stays in `writing`; replies finished in the
    // meantime queue in `out` behind it.
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    CloseConnection(conn);
    return;
  }
  // Fully sent: release the buffer rather than keep its capacity.
  conn->writing = std::string();
  conn->written = 0;
}

void RpqServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->closed.exchange(true)) return;
  // Cancel whatever this client was waiting for; the executor observes the
  // trip at its next engine checkpoint. The registry lock orders this
  // against executor-side context destruction.
  conn->CancelActiveExecs();
  // Drop its queued requests now, so their admission slots free up at once
  // instead of when an executor gets round to skipping them.
  size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    const auto first_dropped = std::remove_if(
        queue_.begin(), queue_.end(),
        [&conn](const std::unique_ptr<Request>& r) { return r->conn == conn; });
    dropped = static_cast<size_t>(queue_.end() - first_dropped);
    queue_.erase(first_dropped, queue_.end());
  }
  if (dropped > 0) {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    counters_.cancelled_requests += dropped;
  }
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
  connections_.erase(std::remove(connections_.begin(), connections_.end(), conn),
                     connections_.end());
}

// -------------------------------------------------------------- executors

void RpqServer::ExecutorLoop() {
  while (std::unique_ptr<Request> request = PopRequest()) {
    Execute(*request);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --executing_;
      Connection* conn = request->conn.get();
      --conn->executing_requests;
      if (IsMutation(request->command)) conn->executing_mutation = false;
    }
    // Completion may unblock queued requests of the finished connection.
    // The I/O thread needs no wake: DeliverReply already woke it for every
    // reply, and admission is decided when a line is read, never deferred.
    queue_cv_.notify_all();
  }
}

size_t RpqServer::FindRunnableLocked() const {
  // Per-connection order: once one request of a connection is passed over,
  // every later one is too. A mutation may not start while its connection
  // has anything executing, and nothing may start while its connection is
  // executing a mutation — together: read-your-writes for pipelined
  // clients, full concurrency for pure-query pipelines.
  std::vector<const Connection*> held;
  for (size_t i = 0; i < queue_.size(); ++i) {
    const Request& request = *queue_[i];
    const Connection* conn = request.conn.get();
    if (std::find(held.begin(), held.end(), conn) != held.end()) continue;
    const bool runnable = IsMutation(request.command)
                              ? request.conn->executing_requests == 0
                              : !request.conn->executing_mutation;
    if (runnable) return i;
    held.push_back(conn);
  }
  return queue_.size();
}

std::unique_ptr<RpqServer::Request> RpqServer::PopRequest() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  size_t pos = 0;
  queue_cv_.wait(lock, [this, &pos] {
    pos = FindRunnableLocked();
    return pos < queue_.size() || !running_.load();
  });
  if (pos >= queue_.size()) {
    // Stopping: drain FIFO. Connections are closing and replies are moot,
    // so the per-connection constraints no longer apply.
    if (queue_.empty()) return nullptr;
    pos = 0;
  }

  std::unique_ptr<Request> request = std::move(queue_[pos]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pos));
  ++executing_;
  ++request->conn->executing_requests;
  if (IsMutation(request->command)) request->conn->executing_mutation = true;
  return request;
}

void RpqServer::Execute(Request& request) {
  if (options_.execute_delay_for_testing.count() > 0) {
    std::this_thread::sleep_for(options_.execute_delay_for_testing);
  }
  if (request.conn->closed.load()) {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.cancelled_requests;
    return;
  }
  if (!request.command.ok()) {
    DeliverReply(request, FormatErrorReply(request.command.status()));
    return;
  }
  const Command& command = *request.command;

  ExecContext exec;
  if (options_.request_deadline_ms > 0) {
    exec.set_deadline_after(
        std::chrono::milliseconds(options_.request_deadline_ms));
  }
  request.conn->RegisterExec(&exec);

  std::string reply;
  switch (command.kind) {
    case Command::Kind::kPing:
      reply = "OK PING\n";
      break;
    case Command::Kind::kQuit:
      reply = "OK BYE\n";
      break;
    case Command::Kind::kStats:
      reply = HandleStats();
      break;
    case Command::Kind::kLoad:
      reply = HandleLoad(command);
      break;
    case Command::Kind::kQuery:
      reply = HandleQuery(command, &exec);
      break;
    case Command::Kind::kUpdate:
      reply = HandleUpdate(command);
      break;
    case Command::Kind::kLearn:
      reply = HandleLearn(command, &exec);
      break;
  }

  request.conn->UnregisterExec(&exec);
  if (request.conn->closed.load()) {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.cancelled_requests;
    return;
  }
  if (command.kind == Command::Kind::kQuit) {
    std::lock_guard<std::mutex> lock(request.conn->mutex);
    request.conn->close_after_flush = true;
  }
  DeliverReply(request, std::move(reply));
}

void RpqServer::DeliverReply(Request& request, std::string reply) {
  const std::shared_ptr<Connection>& conn = request.conn;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->done.emplace(request.seq, std::move(reply));
    // Move every consecutively-finished reply into the write buffer.
    auto it = conn->done.find(conn->next_flush_seq);
    while (it != conn->done.end()) {
      conn->out += it->second;
      conn->done.erase(it);
      ++conn->next_flush_seq;
      it = conn->done.find(conn->next_flush_seq);
    }
  }
  WakeIo();
}

// ------------------------------------------------------- command handlers

std::string RpqServer::HandleLoad(const Command& command) {
  StatusOr<Graph> loaded = LoadEdgeList(command.path);
  if (!loaded.ok()) return FormatErrorReply(loaded.status());

  std::unique_lock<std::shared_mutex> state(state_mutex_);
  // The engine goes first: it is subscribed to the graph it replaces.
  engine_.reset();
  dynamic_ = std::make_unique<DynamicGraph>(*std::move(loaded));
  engine_ = std::make_unique<Engine>(*dynamic_, options_.engine);
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.loads;
  }
  const Graph& graph = dynamic_->graph();
  return "OK LOAD " + std::to_string(graph.num_nodes()) + ' ' +
         std::to_string(graph.num_edges()) + ' ' +
         std::to_string(graph.num_symbols()) + '\n';
}

std::string RpqServer::HandleQuery(const Command& command, ExecContext* exec) {
  std::shared_lock<std::shared_mutex> state(state_mutex_);
  if (engine_ == nullptr) {
    return FormatErrorReply(
        Status::FailedPrecondition("no graph loaded (LOAD first)"));
  }
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.queries;
  }
  StatusOr<Engine::PlanPtr> plan =
      engine_->Plan(std::string_view(command.regex));
  if (!plan.ok()) return FormatErrorReply(plan.status());

  if (command.has_sources) {
    auto pairs = (*plan)->RunBinary(command.sources, exec);
    if (!pairs.ok()) return FormatErrorReply(pairs.status());
    std::string reply;
    for (const auto& [src, dst] : *pairs) {
      reply += "PAIR " + std::to_string(src) + ' ' + std::to_string(dst) + '\n';
    }
    reply += "OK QUERY " + std::to_string(pairs->size()) + '\n';
    return reply;
  }

  StatusOr<MonadicNodes> nodes = (*plan)->RunMonadic(exec);
  if (!nodes.ok()) return FormatErrorReply(nodes.status());
  std::string reply;
  size_t count = 0;
  for (NodeId v = 0; v < engine_->graph().num_nodes(); ++v) {
    if ((*nodes)->Test(v)) {
      reply += "NODE " + std::to_string(v) + '\n';
      ++count;
    }
  }
  reply += "OK QUERY " + std::to_string(count) + '\n';
  return reply;
}

std::string RpqServer::HandleUpdate(const Command& command) {
  std::unique_lock<std::shared_mutex> state(state_mutex_);
  if (dynamic_ == nullptr) {
    return FormatErrorReply(
        Status::FailedPrecondition("no graph loaded (LOAD first)"));
  }
  const Graph& graph = dynamic_->graph();
  if (command.src >= graph.num_nodes() || command.dst >= graph.num_nodes()) {
    return FormatErrorReply(Status::InvalidArgument(
        "edge endpoint out of range (graph has " +
        std::to_string(graph.num_nodes()) + " nodes)"));
  }
  StatusOr<Symbol> symbol = graph.alphabet().Find(command.label);
  if (!symbol.ok()) {
    return FormatErrorReply(Status::NotFound(
        "label not in the loaded graph's alphabet: " + command.label));
  }
  const bool applied =
      command.insert ? dynamic_->InsertEdge(command.src, *symbol, command.dst)
                     : dynamic_->DeleteEdge(command.src, *symbol, command.dst);
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.updates;
  }
  return "OK UPDATE " + std::to_string(applied ? 1 : 0) + '\n';
}

std::string RpqServer::HandleLearn(const Command& command, ExecContext* exec) {
  std::shared_lock<std::shared_mutex> state(state_mutex_);
  if (engine_ == nullptr) {
    return FormatErrorReply(
        Status::FailedPrecondition("no graph loaded (LOAD first)"));
  }
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.learns;
  }
  StatusOr<Engine::PlanPtr> goal =
      engine_->Plan(std::string_view(command.regex));
  if (!goal.ok()) return FormatErrorReply(goal.status());

  const StatusOr<EvalOptions>& base = engine_->eval_options();
  if (!base.ok()) return FormatErrorReply(base.status());
  EvalOptions eval = *base;
  eval.exec = exec;

  StatusOr<Oracle> oracle =
      Oracle::TryFromQuery(engine_->graph(), (*goal)->dfa(), eval);
  if (!oracle.ok()) return FormatErrorReply(oracle.status());

  SessionOptions session;
  session.eval = eval;
  session.seed = command.seed;
  session.max_interactions = command.max_interactions > 0
                                 ? command.max_interactions
                                 : options_.learn_max_interactions;
  SessionResult result =
      RunInteractiveSession(engine_->graph(), *oracle, session);
  if (!result.status.ok()) return FormatErrorReply(result.status);

  std::string learned = "null";
  if (!result.final_query.IsEmptyLanguage()) {
    learned = RegexToString(DfaToRegex(result.final_query),
                            engine_->graph().alphabet());
  }
  return "LEARNED " + learned + "\nOK LEARN " +
         std::to_string(result.interactions.size()) + ' ' +
         (result.reached_goal ? "1" : "0") + '\n';
}

std::string RpqServer::HandleStats() {
  std::ostringstream out;
  size_t entries = 0;
  auto stat = [&out, &entries](std::string_view key, uint64_t value) {
    out << "STAT " << key << ' ' << value << '\n';
    ++entries;
  };

  {
    ServerCounters server = counters();
    stat("server.connections_accepted", server.connections_accepted);
    stat("server.lines_received", server.lines_received);
    stat("server.protocol_errors", server.protocol_errors);
    stat("server.admission_rejections", server.admission_rejections);
    stat("server.cancelled_requests", server.cancelled_requests);
    stat("server.loads", server.loads);
    stat("server.queries", server.queries);
    stat("server.updates", server.updates);
    stat("server.learns", server.learns);
    // Always 0: every request runs its own evaluation. The key stays
    // because the traced repository benchmark reads it with .at()
    // (perfbench/src/serving.cc).
    stat("server.batched_requests", 0);
  }

  std::shared_lock<std::shared_mutex> state(state_mutex_);
  if (engine_ != nullptr) {
    const EngineCounters engine = engine_->counters();
    stat("engine.plan_hits", engine.plan_hits);
    stat("engine.plan_misses", engine.plan_misses);
    stat("engine.plan_evictions", engine.plan_evictions);
    stat("engine.runs", engine.runs);
    stat("engine.monadic_warm_hits", engine.monadic_warm_hits);
    stat("engine.monadic_repairs", engine.monadic_repairs);
  }
  if (dynamic_ != nullptr) {
    const Graph& graph = dynamic_->graph();
    stat("graph.nodes", graph.num_nodes());
    stat("graph.edges", graph.num_edges());
    stat("graph.symbols", graph.num_symbols());
    stat("graph.version", graph.version());
    const MaintenanceStats& maintenance = dynamic_->stats();
    stat("graph.maintained_inserts", maintenance.inserts);
    stat("graph.maintained_deletes", maintenance.deletes);
    stat("graph.rejected_updates", maintenance.rejected_updates);
  }
  out << "OK STATS " << entries << '\n';
  return out.str();
}

}  // namespace rpqlearn::server
