#include "server/protocol.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "server/server.h"
#include "util/random.h"
#include "fuzz_env.h"

namespace rpqlearn::server {
namespace {

// Fuzzing of the wire-protocol layer, pure and live. ParseCommand and
// LineBuffer must digest arbitrary bytes — random binary, mutated valid
// commands, truncated prefixes, oversized floods — without crashing,
// hanging, or violating their buffering bound; a live server fed the same
// garbage must answer typed ERR lines and keep serving. ASan-clean runs of
// this file are part of the nightly fuzz matrix (RPQ_FUZZ_ITERS scales the
// effort; the default keeps CI fast).

/// Random bytes biased toward protocol-looking content: keywords, digits,
/// separators, and raw binary in proportion.
std::string RandomLine(Rng& rng, size_t max_len) {
  static const char* kFragments[] = {
      "LOAD",  "QUERY", "UPDATE", "LEARN",   "STATS", "PING",
      "QUIT",  "FROM",  "SEED",   "MAX",     "+",     "-",
      "(",     ")",     ",",      " ",       "\t",    "l0",
      "(l0+l1)*.l2", "0", "1", "4294967295", "18446744073709551616", "-1"};
  std::string line;
  const size_t len = rng.NextBelow(max_len);
  while (line.size() < len) {
    switch (rng.NextBelow(4)) {
      case 0:
        line += kFragments[rng.NextBelow(std::size(kFragments))];
        break;
      case 1:
        line += static_cast<char>('0' + rng.NextBelow(10));
        break;
      case 2:
        line += static_cast<char>(rng.NextBelow(256));
        break;
      default:
        line += static_cast<char>(' ' + rng.NextBelow(95));
        break;
    }
  }
  return line.substr(0, len);
}

TEST(ServerProtocolFuzzTest, ParseCommandNeverCrashesOnArbitraryBytes) {
  const StatusOr<uint32_t> iterations = FuzzIterations(20000);
  ASSERT_TRUE(iterations.ok()) << iterations.status().ToString();
  Rng rng(20260809);
  for (size_t i = 0; i < *iterations; ++i) {
    const std::string line = RandomLine(rng, 256);
    StatusOr<Command> command = ParseCommand(line);
    if (!command.ok()) {
      EXPECT_EQ(command.status().code(), StatusCode::kInvalidArgument)
          << "line: " << line;
    }
  }
}

TEST(ServerProtocolFuzzTest, ParseCommandSurvivesTruncatedValidCommands) {
  const StatusOr<uint32_t> iterations = FuzzIterations(5000);
  ASSERT_TRUE(iterations.ok()) << iterations.status().ToString();
  Rng rng(7);
  const std::string valid[] = {
      "LOAD /tmp/graph.txt",
      "QUERY (l0+l1)*.l2 FROM 1 2 3",
      "UPDATE +(17,label,42)",
      "UPDATE - 17 label 42",
      "LEARN (a+b)* SEED 99 MAX 1000",
      "STATS",
  };
  for (size_t i = 0; i < *iterations; ++i) {
    std::string line = valid[rng.NextBelow(std::size(valid))];
    line = line.substr(0, rng.NextBelow(line.size() + 1));
    // Optionally splice a random byte into the truncation point.
    if (rng.NextBernoulli(0.5)) {
      line += static_cast<char>(rng.NextBelow(256));
    }
    ParseCommand(line);  // must not crash; ok or InvalidArgument both fine
  }
}

TEST(ServerProtocolFuzzTest, LineBufferHonorsItsBoundUnderRandomChunking) {
  const StatusOr<uint32_t> iterations = FuzzIterations(500);
  ASSERT_TRUE(iterations.ok()) << iterations.status().ToString();
  Rng rng(99);
  constexpr size_t kBound = 512;
  for (size_t round = 0; round < *iterations; ++round) {
    LineBuffer buffer(kBound);
    // A stream mixing normal lines, empty lines, CRLF, oversized floods.
    std::string stream;
    size_t complete_normal_lines = 0;
    for (int l = 0; l < 20; ++l) {
      if (rng.NextBernoulli(0.2)) {
        // Strictly over the bound: a flood of exactly kBound bytes would be
        // a legal line.
        stream += std::string(kBound + 1 + rng.NextBelow(2048), 'x');
      } else {
        std::string line = RandomLine(rng, 100);
        // Inner newlines would split the line; strip them for accounting.
        for (char& c : line) {
          if (c == '\n' || c == '\r') c = '_';
        }
        stream += line;
        ++complete_normal_lines;
      }
      stream += rng.NextBernoulli(0.3) ? "\r\n" : "\n";
    }
    // Feed in random-size chunks; the buffer must never hold more than the
    // bound plus one unsplit append.
    size_t fed = 0;
    size_t lines_seen = 0;
    size_t oversized_seen = 0;
    while (fed < stream.size()) {
      const size_t chunk = 1 + rng.NextBelow(97);
      const std::string_view piece(stream.data() + fed,
                                   std::min(chunk, stream.size() - fed));
      buffer.Append(piece);
      fed += piece.size();
      EXPECT_LE(buffer.buffered_bytes(), kBound + piece.size());
      while (auto line = buffer.NextLine()) {
        if (line->oversized) {
          ++oversized_seen;
        } else {
          ++lines_seen;
          EXPECT_LE(line->text.size(), kBound);
        }
      }
    }
    EXPECT_EQ(lines_seen, complete_normal_lines);
    EXPECT_EQ(lines_seen + oversized_seen, 20u);
  }
}

TEST(ServerProtocolFuzzTest, LineBufferAtBoundVerdictIgnoresChunking) {
  // A line of exactly the bound is legal and one byte more is oversized,
  // under LF and CRLF alike, wherever the stream is split — including right
  // after the '\r' of a CRLF, where the buffer holds bound + 1 bytes.
  constexpr size_t kBound = 512;
  for (const size_t length : {kBound, kBound + 1}) {
    for (const char* terminator : {"\n", "\r\n"}) {
      const std::string stream = std::string(length, 'x') + terminator;
      for (size_t split = 0; split <= stream.size(); ++split) {
        LineBuffer buffer(kBound);
        std::vector<LineBuffer::Line> lines;
        for (const std::string_view piece :
             {std::string_view(stream).substr(0, split),
              std::string_view(stream).substr(split)}) {
          buffer.Append(piece);
          while (auto line = buffer.NextLine()) lines.push_back(*line);
        }
        ASSERT_EQ(lines.size(), 1u)
            << "length " << length << " split " << split;
        EXPECT_EQ(lines[0].oversized, length > kBound)
            << "length " << length << " split " << split
            << (terminator[0] == '\r' ? " CRLF" : " LF");
        if (!lines[0].oversized) {
          EXPECT_EQ(lines[0].text.size(), kBound);
        }
        EXPECT_EQ(buffer.buffered_bytes(), 0u);
      }
    }
  }
}

TEST(ServerProtocolFuzzTest, LiveServerSurvivesGarbageStreams) {
  const StatusOr<uint32_t> iterations = FuzzIterations(50);
  ASSERT_TRUE(iterations.ok()) << iterations.status().ToString();
  ServerOptions options;
  options.max_line_bytes = 1024;
  RpqServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Rng rng(4242);
  for (size_t round = 0; round < *iterations; ++round) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

    std::string garbage;
    for (int l = 0; l < 8; ++l) {
      garbage += RandomLine(rng, 2048);
      if (rng.NextBernoulli(0.8)) garbage += '\n';
    }
    // Ignore send errors: the server may close on QUIT lines the garbage
    // happens to contain, which surfaces as EPIPE here.
    (void)::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL);
    if (rng.NextBernoulli(0.5)) {
      // Half the rounds read some replies back; half just slam the door.
      char sink[4096];
      (void)::recv(fd, sink, sizeof(sink), MSG_DONTWAIT);
    }
    ::close(fd);
  }

  // The server is still alive and sane after every garbage stream.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char ping[] = "PING\n";
  ASSERT_EQ(::send(fd, ping, sizeof(ping) - 1, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(ping) - 1));
  std::string reply;
  char c;
  while (reply.size() < 64 && ::read(fd, &c, 1) == 1 && c != '\n') {
    reply += c;
  }
  ::close(fd);
  EXPECT_EQ(reply, "OK PING");
}

}  // namespace
}  // namespace rpqlearn::server
