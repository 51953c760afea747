#ifndef RPQLEARN_SERVER_PROTOCOL_H_
#define RPQLEARN_SERVER_PROTOCOL_H_

/// The RPQ query server's wire protocol: newline-terminated UTF-8 text
/// lines, one command per line, streamed replies. Everything here is pure
/// (no sockets), so the parser is unit-testable and fuzzable on its own —
/// the protocol-line fuzzer drives ParseCommand and LineBuffer directly as
/// well as through a live server.
///
/// Command grammar (one line each; tokens separated by spaces/tabs; the
/// regex token must be whitespace-free — the regex syntax itself ignores
/// whitespace, so any query can be written that way):
///
///   LOAD <path>                       load an edge-list file (LoadEdgeList)
///   QUERY <regex>                     monadic: nodes selected by the query
///   QUERY <regex> FROM <v> [<v> ...]  binary: (src, dst) pairs per source
///   UPDATE +(<u>,<label>,<v>)         insert edge  u --label--> v
///   UPDATE -(<u>,<label>,<v>)         delete edge  (space-separated
///                                     `UPDATE + <u> <label> <v>` accepted)
///   LEARN <goal-regex> [SEED <n>] [MAX <n>]
///                                     run an interactive-learning session
///                                     against a simulated oracle for the
///                                     goal; replies with the learned query
///   STATS                             server / engine / graph telemetry
///   PING                              liveness check
///   QUIT                              server closes after the reply
///
/// Replies (every command produces exactly one terminal OK/ERR line;
/// streaming payload lines precede it):
///
///   LOAD   -> OK LOAD <nodes> <edges> <symbols>
///   QUERY  -> NODE <v>            per selected node, then  OK QUERY <count>
///          -> PAIR <src> <dst>    per selected pair, then  OK QUERY <count>
///   UPDATE -> OK UPDATE <applied:0|1>
///   LEARN  -> LEARNED <regex-or-null>, then
///             OK LEARN <interactions> <reached_goal:0|1>
///   STATS  -> STAT <key> <value>  per entry, then  OK STATS <count>
///   PING   -> OK PING
///   QUIT   -> OK BYE
///   errors -> ERR <CODE> <message>   (codes: the StatusCode names, e.g.
///             INVALID_ARGUMENT, NOT_FOUND, RESOURCE_EXHAUSTED,
///             DEADLINE_EXCEEDED, CANCELLED, FAILED_PRECONDITION)
///
/// A malformed line is answered with ERR and the connection stays open; an
/// oversized line (no newline within the configured bound) is discarded up
/// to the next newline and answered with ERR. Disconnecting mid-request
/// cancels that request's ExecContext.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace rpqlearn::server {

/// Default bound on one protocol line (command side). Lines longer than
/// this without a newline are rejected without buffering more.
inline constexpr size_t kMaxLineBytes = size_t{1} << 16;

/// One parsed protocol command.
struct Command {
  enum class Kind : uint8_t {
    kLoad = 0,
    kQuery = 1,
    kUpdate = 2,
    kLearn = 3,
    kStats = 4,
    kPing = 5,
    kQuit = 6,
  };
  Kind kind = Kind::kPing;

  /// LOAD: the edge-list path.
  std::string path;
  /// QUERY / LEARN: the (goal) regex text.
  std::string regex;
  /// QUERY: FROM clause present (binary semantics) and its sources.
  bool has_sources = false;
  std::vector<NodeId> sources;
  /// UPDATE: direction and the edge triple (label by name; resolved against
  /// the loaded graph's alphabet at execution time).
  bool insert = true;
  NodeId src = 0;
  NodeId dst = 0;
  std::string label;
  /// LEARN: oracle seed and interaction bound.
  uint64_t seed = 1;
  uint64_t max_interactions = 0;  ///< 0 = server default
};

/// Parses one protocol line (without its newline). InvalidArgument with a
/// human-readable reason on any malformed input; never crashes on arbitrary
/// bytes (the fuzzer's contract).
StatusOr<Command> ParseCommand(std::string_view line);

/// The wire token of a StatusCode ("INVALID_ARGUMENT", ...).
std::string_view StatusCodeToken(StatusCode code);

/// Renders a non-ok Status as one ERR line (newline included); control
/// bytes in the message are replaced so the reply stays one line.
std::string FormatErrorReply(const Status& status);

/// Splits a byte stream into protocol lines under a length bound.
/// Append() buffers arriving bytes; NextLine() yields complete lines with
/// the terminator stripped (both "\n" and "\r\n"). When buffered bytes
/// exceed the bound with no newline, the oversized prefix is dropped, the
/// line is marked oversized (the server answers ERR without ever holding
/// more than the bound), and the remainder up to the next newline is
/// discarded too. A trailing "\r" awaiting its "\n" is not counted, so a
/// line's verdict never depends on how its bytes were chunked.
class LineBuffer {
 public:
  explicit LineBuffer(size_t max_line_bytes = kMaxLineBytes)
      : max_line_bytes_(max_line_bytes) {}

  struct Line {
    std::string text;
    /// True: the line exceeded the bound; `text` holds a truncated prefix
    /// for error reporting only and must not be parsed as a command.
    bool oversized = false;
  };

  void Append(std::string_view bytes);

  /// The next complete line, or nullopt when none is buffered yet.
  std::optional<Line> NextLine();

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  size_t max_line_bytes_;
  std::string buffer_;
  /// Mid-discard of an oversized line: bytes are dropped until the next
  /// newline; the pending oversized Line was already emitted.
  bool discarding_ = false;
};

}  // namespace rpqlearn::server

#endif  // RPQLEARN_SERVER_PROTOCOL_H_
