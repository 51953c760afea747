#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// The wire load generator: one thread, a few non-blocking loopback
// connections to an RpqServer, an open-loop phase (requests arrive as a
// seeded Poisson process regardless of replies, each on a connection picked
// at random and timed from when it was due) and a closed-loop phase (each
// connection keeps a fixed window of requests outstanding). Replies are
// matched to requests per connection in order — the server flushes a
// connection's replies in command order — and checked as they arrive.
//
// The client sockets set TCP_NODELAY, as interactive clients do, and
// nothing else: the latency measured is what such a client sees. Waits that
// depend on the client's own sending pattern show in it; for example a
// reply the server's socket holds back (Nagle's algorithm) until the client
// acknowledges the previous one, which the kernel's delayed-ACK heuristics
// may defer until the client's next request. Under a fixed per-connection
// schedule such a wait, once started, repeated on every later request of
// that connection, so it set the figures of whole runs (on a read-only mix,
// p50 8.1 ms in some runs and 0.5 ms in others); Poisson arrivals start and
// end it many times within one run.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class OpKind : uint8_t { kMonadic, kBinary, kUpdate };

enum class Outcome : uint8_t {
  kPending,
  kOk,
  /// The server answered ERR (refusals included).
  kError,
  /// A QUERY reply whose payload line count differs from its OK line's.
  kMismatch,
};

/// One wire request and what became of it.
struct WireOp {
  /// The command line, newline included (owned by the request source).
  const std::string* line = nullptr;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  /// The reply, kept as (length, hash) for checks after the run.
  uint64_t reply_hash = 0;
  uint32_t reply_bytes = 0;
  uint32_t conn = 0;
  OpKind kind = OpKind::kMonadic;
  Outcome outcome = Outcome::kPending;

  double LatencyMs() const {
    return static_cast<double>(done_ns - due_ns) / 1e6;
  }
};

/// Fills `op` (line, kind) with the next request of connection
/// `conn`. Each connection's stream is its own, so the requests a
/// connection sends do not depend on timing. The line must stay valid for
/// the generator's lifetime.
using NextOpFn = std::function<void(uint32_t conn, WireOp* op)>;

struct PhaseReport {
  /// Requests issued in the phase (indices [first_op, end_op) of the ops).
  size_t first_op = 0;
  size_t end_op = 0;
  /// Requests scheduled or sent but not yet answered at the phase's end.
  uint64_t backlog_end = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class LoadGenerator {
 public:
  /// Connects `connections` loopback sockets to `port`; aborts on failure.
  LoadGenerator(uint16_t port, uint32_t connections);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// For `seconds`, sends requests as a Poisson process of `rate` requests
  /// per second (exponential gaps from `seed`), each on a connection drawn
  /// uniformly from `seed`, then waits for the stragglers.
  PhaseReport RunOpenLoop(double rate, double seconds, uint64_t seed,
                          const NextOpFn& next);
  /// Every connection keeps `window` requests outstanding for `seconds`,
  /// then the stragglers are awaited.
  PhaseReport RunClosedLoop(uint32_t window, double seconds,
                            const NextOpFn& next);

  /// Every request issued so far, in send order.
  const std::deque<WireOp>& ops() const { return ops_; }

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    /// Start of the first unconsumed line / of the reply being received.
    size_t line_start = 0;
    size_t reply_start = 0;
    std::deque<size_t> outstanding;
  };

  void Issue(uint32_t conn, int64_t due_ns, const NextOpFn& next);
  /// Polls until readable or `deadline_ns`; reads every readable socket and
  /// completes the replies that arrived. Returns the connections that
  /// completed a reply, once per reply.
  std::vector<uint32_t> Poll(int64_t deadline_ns);
  void ReadConn(uint32_t index, int64_t now_ns, std::vector<uint32_t>* done);
  void Complete(WireOp& op, std::string_view reply, bool terminal_ok,
                int64_t now_ns);
  /// Awaits every outstanding reply; aborts after a generous timeout.
  void Drain();
  uint64_t Outstanding() const;

  std::vector<Conn> conns_;
  std::deque<WireOp> ops_;
};

/// A blocking control connection for set-up, STATS and end-state checks.
class ControlClient {
 public:
  explicit ControlClient(uint16_t port);
  ~ControlClient();
  ControlClient(const ControlClient&) = delete;
  ControlClient& operator=(const ControlClient&) = delete;

  /// Sends one command line (newline added) and returns the full reply:
  /// payload lines plus the terminal OK/ERR line, newline-joined.
  std::string Request(std::string_view command);
  /// STATS as a key -> value map.
  std::map<std::string, double> Stats();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
