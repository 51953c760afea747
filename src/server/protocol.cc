#include "server/protocol.h"

#include <algorithm>
#include <cstdlib>
#include <span>

namespace rpqlearn::server {
namespace {

/// Splits on runs of spaces/tabs; no empty tokens.
std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t begin = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > begin) tokens.push_back(line.substr(begin, i - begin));
  }
  return tokens;
}

/// Whole-token unsigned parse with an inclusive cap; Status on anything
/// else (sign, overflow, trailing bytes, empty).
StatusOr<uint64_t> ParseUnsigned(std::string_view token, uint64_t max_value,
                                 const char* what) {
  if (token.empty() || token.size() > 20) {
    return Status::InvalidArgument(std::string("malformed ") + what);
  }
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(std::string("malformed ") + what + ": " +
                                     std::string(token));
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (max_value - digit) / 10) {
      return Status::InvalidArgument(std::string(what) + " out of range: " +
                                     std::string(token));
    }
    value = value * 10 + digit;
  }
  return value;
}

StatusOr<NodeId> ParseNode(std::string_view token) {
  StatusOr<uint64_t> value = ParseUnsigned(token, UINT32_MAX, "node id");
  if (!value.ok()) return value.status();
  return static_cast<NodeId>(*value);
}

/// UPDATE edge triple: either the compact `(<u>,<label>,<v>)` form in one
/// token or three separate tokens.
Status ParseUpdateTriple(std::span<const std::string_view> tokens,
                         Command* command) {
  std::string_view fields[3];
  if (tokens.size() == 1 && tokens[0].size() >= 2 &&
      tokens[0].front() == '(' && tokens[0].back() == ')') {
    std::string_view inner = tokens[0].substr(1, tokens[0].size() - 2);
    const size_t first = inner.find(',');
    const size_t last = inner.rfind(',');
    if (first == std::string_view::npos || first == last) {
      return Status::InvalidArgument(
          "UPDATE expects (<u>,<label>,<v>): " + std::string(tokens[0]));
    }
    fields[0] = inner.substr(0, first);
    fields[1] = inner.substr(first + 1, last - first - 1);
    fields[2] = inner.substr(last + 1);
  } else if (tokens.size() == 3) {
    fields[0] = tokens[0];
    fields[1] = tokens[1];
    fields[2] = tokens[2];
  } else {
    return Status::InvalidArgument(
        "UPDATE expects +/-(<u>,<label>,<v>) or +/- <u> <label> <v>");
  }
  StatusOr<NodeId> src = ParseNode(fields[0]);
  if (!src.ok()) return src.status();
  StatusOr<NodeId> dst = ParseNode(fields[2]);
  if (!dst.ok()) return dst.status();
  if (fields[1].empty()) {
    return Status::InvalidArgument("UPDATE label must be non-empty");
  }
  command->src = *src;
  command->dst = *dst;
  command->label = std::string(fields[1]);
  return Status::Ok();
}

}  // namespace

StatusOr<Command> ParseCommand(std::string_view line) {
  const std::vector<std::string_view> tokens = Tokenize(line);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty command line");
  }
  Command command;
  const std::string_view verb = tokens[0];

  if (verb == "PING") {
    if (tokens.size() != 1) {
      return Status::InvalidArgument("PING takes no arguments");
    }
    command.kind = Command::Kind::kPing;
    return command;
  }
  if (verb == "QUIT") {
    if (tokens.size() != 1) {
      return Status::InvalidArgument("QUIT takes no arguments");
    }
    command.kind = Command::Kind::kQuit;
    return command;
  }
  if (verb == "STATS") {
    if (tokens.size() != 1) {
      return Status::InvalidArgument("STATS takes no arguments");
    }
    command.kind = Command::Kind::kStats;
    return command;
  }
  if (verb == "LOAD") {
    if (tokens.size() != 2) {
      return Status::InvalidArgument("LOAD expects exactly one path");
    }
    command.kind = Command::Kind::kLoad;
    command.path = std::string(tokens[1]);
    return command;
  }
  if (verb == "QUERY") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("QUERY expects a regex");
    }
    command.kind = Command::Kind::kQuery;
    command.regex = std::string(tokens[1]);
    if (tokens.size() > 2) {
      if (tokens[2] != "FROM" || tokens.size() < 4) {
        return Status::InvalidArgument(
            "QUERY expects `QUERY <regex> [FROM <v> ...]` "
            "(the regex must be one whitespace-free token)");
      }
      command.has_sources = true;
      for (size_t i = 3; i < tokens.size(); ++i) {
        StatusOr<NodeId> source = ParseNode(tokens[i]);
        if (!source.ok()) return source.status();
        command.sources.push_back(*source);
      }
    }
    return command;
  }
  if (verb == "UPDATE") {
    if (tokens.size() < 2 || tokens[1].empty() ||
        (tokens[1][0] != '+' && tokens[1][0] != '-')) {
      return Status::InvalidArgument(
          "UPDATE expects +/-(<u>,<label>,<v>) or +/- <u> <label> <v>");
    }
    command.kind = Command::Kind::kUpdate;
    command.insert = tokens[1][0] == '+';
    std::vector<std::string_view> rest(tokens.begin() + 2, tokens.end());
    if (tokens[1].size() > 1) {
      // Compact form: the triple is attached to the sign token.
      rest.insert(rest.begin(), tokens[1].substr(1));
    }
    Status triple = ParseUpdateTriple(rest, &command);
    if (!triple.ok()) return triple;
    return command;
  }
  if (verb == "LEARN") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("LEARN expects a goal regex");
    }
    command.kind = Command::Kind::kLearn;
    command.regex = std::string(tokens[1]);
    size_t i = 2;
    while (i < tokens.size()) {
      if (tokens[i] == "SEED" && i + 1 < tokens.size()) {
        StatusOr<uint64_t> seed =
            ParseUnsigned(tokens[i + 1], UINT64_MAX / 16, "seed");
        if (!seed.ok()) return seed.status();
        command.seed = *seed;
        i += 2;
      } else if (tokens[i] == "MAX" && i + 1 < tokens.size()) {
        StatusOr<uint64_t> max =
            ParseUnsigned(tokens[i + 1], UINT64_MAX / 16, "interaction bound");
        if (!max.ok()) return max.status();
        command.max_interactions = *max;
        i += 2;
      } else {
        return Status::InvalidArgument(
            "LEARN expects `LEARN <goal-regex> [SEED <n>] [MAX <n>]`");
      }
    }
    return command;
  }
  return Status::InvalidArgument("unknown command: " + std::string(verb));
}

std::string_view StatusCodeToken(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kAbstain:
      return "ABSTAIN";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kCancelled:
      return "CANCELLED";
    default:
      return "UNKNOWN";
  }
}

std::string FormatErrorReply(const Status& status) {
  std::string reply = "ERR ";
  reply += StatusCodeToken(status.code());
  reply += ' ';
  for (char c : status.message()) {
    reply += (c == '\n' || c == '\r') ? ' ' : c;
  }
  reply += '\n';
  return reply;
}

void LineBuffer::Append(std::string_view bytes) {
  buffer_.append(bytes.data(), bytes.size());
}

std::optional<LineBuffer::Line> LineBuffer::NextLine() {
  for (;;) {
    const size_t newline = buffer_.find('\n');
    if (newline == std::string::npos) {
      // A trailing '\r' may be the first half of a CRLF terminator, so it
      // does not count against the bound until the next byte shows whether
      // it is: the verdict on a line must not depend on where a read split
      // it.
      const bool cr_tail = !buffer_.empty() && buffer_.back() == '\r';
      if (buffer_.size() - (cr_tail ? 1 : 0) <= max_line_bytes_) {
        return std::nullopt;
      }
      // Over the bound with no terminator: drop what is buffered, emit one
      // oversized marker (unless this tail belongs to a line already
      // reported), and keep discarding until the next newline arrives.
      const bool report = !discarding_;
      Line line;
      if (report) {
        line.oversized = true;
        line.text = buffer_.substr(0, std::min<size_t>(64, buffer_.size()));
      }
      buffer_.clear();
      discarding_ = true;
      if (report) return line;
      return std::nullopt;
    }
    std::string text = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    if (discarding_) {
      // The tail of an oversized line: swallow it and keep scanning.
      discarding_ = false;
      continue;
    }
    if (!text.empty() && text.back() == '\r') text.pop_back();
    if (text.size() > max_line_bytes_) {
      Line line;
      line.oversized = true;
      line.text = text.substr(0, 64);
      return line;
    }
    return {Line{std::move(text), false}};
  }
}

}  // namespace rpqlearn::server
