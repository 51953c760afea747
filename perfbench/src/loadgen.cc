#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common.h"
#include "util/random.h"

namespace perfbench {
namespace {

/// Generous bound on waiting for the replies of one phase once it ended.
constexpr int64_t kDrainTimeoutNs = int64_t{60} * 1000000000;

[[noreturn]] void Fatal(const char* what) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, std::strerror(errno));
  std::exit(4);
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Fatal("socket");
  // The generator writes whole command lines; do not let the client side
  // hold a pipelined line back behind an unacknowledged one.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Fatal("connect");
  }
  return fd;
}

void WriteAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno == EAGAIN) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 1000);
      continue;
    }
    Fatal("write");
  }
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

/// For a QUERY reply: the payload line count must equal the count on the
/// OK line.
bool WellFormedQueryReply(std::string_view reply) {
  const size_t last_start = reply.rfind('\n', reply.size() - 2);
  const std::string_view last =
      reply.substr(last_start == std::string_view::npos ? 0 : last_start + 1);
  if (!StartsWith(last, "OK QUERY ")) return false;
  const size_t payload_lines =
      static_cast<size_t>(std::count(reply.begin(), reply.end(), '\n')) - 1;
  return std::strtoull(std::string(last.substr(9)).c_str(), nullptr, 10) ==
         payload_lines;
}

}  // namespace

LoadGenerator::LoadGenerator(uint16_t port, uint32_t connections) {
  conns_.resize(connections);
  for (Conn& conn : conns_) {
    conn.fd = ConnectLoopback(port);
    const int flags = ::fcntl(conn.fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK) < 0) {
      Fatal("fcntl");
    }
  }
}

LoadGenerator::~LoadGenerator() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

void LoadGenerator::Issue(uint32_t conn, int64_t due_ns,
                          const NextOpFn& next) {
  WireOp op;
  op.conn = conn;
  next(conn, &op);
  WriteAll(conns_[conn].fd, *op.line);
  op.sent_ns = NowNs();
  op.due_ns = due_ns < 0 ? op.sent_ns : due_ns;
  conns_[conn].outstanding.push_back(ops_.size());
  ops_.push_back(std::move(op));
}

std::vector<uint32_t> LoadGenerator::Poll(int64_t deadline_ns) {
  std::vector<pollfd> fds(conns_.size());
  for (size_t i = 0; i < conns_.size(); ++i) {
    fds[i] = pollfd{conns_[i].fd, POLLIN, 0};
  }
  const int64_t wait_ns = std::max<int64_t>(0, deadline_ns - NowNs());
  timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                   static_cast<long>(wait_ns % 1000000000)};
  const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (ready < 0 && errno != EINTR) Fatal("ppoll");
  std::vector<uint32_t> done;
  if (ready <= 0) return done;
  const int64_t now = NowNs();
  for (size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents != 0) ReadConn(static_cast<uint32_t>(i), now, &done);
  }
  return done;
}

void LoadGenerator::ReadConn(uint32_t index, int64_t now_ns,
                             std::vector<uint32_t>* done) {
  Conn& conn = conns_[index];
  char chunk[1 << 16];
  while (true) {
    const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
    if (n > 0) {
      conn.in.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno == EAGAIN) break;
    errno = n == 0 ? ECONNRESET : errno;
    Fatal("server closed a load connection");
  }
  while (true) {
    const size_t newline = conn.in.find('\n', conn.line_start);
    if (newline == std::string::npos) break;
    const std::string_view line(conn.in.data() + conn.line_start,
                                newline - conn.line_start);
    conn.line_start = newline + 1;
    const bool ok = StartsWith(line, "OK ");
    if (!ok && !StartsWith(line, "ERR ")) continue;  // payload line
    if (conn.outstanding.empty()) {
      errno = EPROTO;
      Fatal("reply without an outstanding request");
    }
    WireOp& op = ops_[conn.outstanding.front()];
    conn.outstanding.pop_front();
    Complete(op,
             std::string_view(conn.in.data() + conn.reply_start,
                              conn.line_start - conn.reply_start),
             ok, now_ns);
    conn.reply_start = conn.line_start;
    done->push_back(index);
  }
  if (conn.reply_start > 0) {
    conn.in.erase(0, conn.reply_start);
    conn.line_start -= conn.reply_start;
    conn.reply_start = 0;
  }
}

void LoadGenerator::Complete(WireOp& op, std::string_view reply,
                             bool terminal_ok, int64_t now_ns) {
  op.done_ns = now_ns;
  op.reply_bytes = static_cast<uint32_t>(reply.size());
  op.reply_hash = HashBytes(reply);
  if (!terminal_ok) {
    op.outcome = Outcome::kError;
  } else if (op.kind != OpKind::kUpdate && !WellFormedQueryReply(reply)) {
    op.outcome = Outcome::kMismatch;
  } else {
    op.outcome = Outcome::kOk;
  }
}

uint64_t LoadGenerator::Outstanding() const {
  uint64_t total = 0;
  for (const Conn& conn : conns_) total += conn.outstanding.size();
  return total;
}

void LoadGenerator::Drain() {
  const int64_t deadline = NowNs() + kDrainTimeoutNs;
  while (Outstanding() > 0) {
    if (NowNs() > deadline) {
      errno = ETIMEDOUT;
      Fatal("replies still outstanding after the drain timeout");
    }
    Poll(std::min(deadline, NowNs() + 100000000));
  }
}

PhaseReport LoadGenerator::RunOpenLoop(double rate, double seconds,
                                       uint64_t seed, const NextOpFn& next) {
  PhaseReport report;
  report.first_op = ops_.size();
  report.start_ns = NowNs() + 1000000;
  report.end_ns = report.start_ns + static_cast<int64_t>(seconds * 1e9);
  // The schedule: arrival times and connections, fixed before the phase.
  rpqlearn::Rng rng(seed);
  std::vector<int64_t> due;
  std::vector<uint32_t> conn;
  double offset_ns = 0.0;
  while (true) {
    offset_ns += -std::log1p(-rng.NextDouble()) * 1e9 / rate;
    const int64_t at = report.start_ns + static_cast<int64_t>(offset_ns);
    if (at >= report.end_ns) break;
    due.push_back(at);
    conn.push_back(static_cast<uint32_t>(rng.NextBelow(conns_.size())));
  }
  size_t sent = 0;
  while (sent < due.size()) {
    const int64_t now = NowNs();
    while (sent < due.size() && due[sent] <= now) {
      Issue(conn[sent], due[sent], next);
      ++sent;
    }
    if (sent < due.size()) Poll(due[sent]);
  }
  while (NowNs() < report.end_ns) Poll(report.end_ns);
  report.backlog_end = Outstanding();
  Drain();
  report.end_op = ops_.size();
  return report;
}

PhaseReport LoadGenerator::RunClosedLoop(uint32_t window, double seconds,
                                         const NextOpFn& next) {
  PhaseReport report;
  report.first_op = ops_.size();
  report.start_ns = NowNs();
  report.end_ns = report.start_ns + static_cast<int64_t>(seconds * 1e9);
  for (uint32_t c = 0; c < conns_.size(); ++c) {
    for (uint32_t w = 0; w < window; ++w) Issue(c, -1, next);
  }
  while (NowNs() < report.end_ns) {
    for (uint32_t c : Poll(report.end_ns)) {
      if (NowNs() < report.end_ns) Issue(c, -1, next);
    }
  }
  report.backlog_end = Outstanding();
  Drain();
  report.end_op = ops_.size();
  return report;
}

ControlClient::ControlClient(uint16_t port) : fd_(ConnectLoopback(port)) {}

ControlClient::~ControlClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string ControlClient::Request(std::string_view command) {
  std::string line(command);
  line += '\n';
  WriteAll(fd_, line);
  std::string reply;
  size_t line_start = 0;
  while (true) {
    const size_t newline = buffer_.find('\n', line_start);
    if (newline == std::string::npos) {
      char chunk[1 << 16];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) Fatal("control connection closed mid-reply");
      buffer_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    const std::string_view text(buffer_.data() + line_start,
                                newline - line_start);
    line_start = newline + 1;
    if (StartsWith(text, "OK ") || StartsWith(text, "ERR ")) {
      reply = buffer_.substr(0, line_start);
      buffer_.erase(0, line_start);
      return reply;
    }
  }
}

std::map<std::string, double> ControlClient::Stats() {
  const std::string reply = Request("STATS");
  std::map<std::string, double> stats;
  size_t start = 0;
  while (start < reply.size()) {
    const size_t newline = reply.find('\n', start);
    const std::string line = reply.substr(start, newline - start);
    start = newline + 1;
    if (!StartsWith(line, "STAT ")) continue;
    const size_t space = line.rfind(' ');
    stats[line.substr(5, space - 5)] = std::strtod(line.c_str() + space + 1,
                                                   nullptr);
  }
  return stats;
}

}  // namespace perfbench
