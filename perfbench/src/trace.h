#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder of the traced run. A span is a name, a start and
// end time, the span that caused it, and the id of the request it serves.
// Spans are only kept in memory while the run executes and are written out
// (CSV) when it ends. A disabled tracer records nothing and reads no clock,
// which is how the traced and untraced replays differ.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the causing span in Tracer::spans(); -1 for a root.
  int32_t parent = -1;
  uint64_t request_id = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index, or -1 when disabled.
  int32_t Begin(const char* name, uint64_t request_id, int32_t parent = -1);
  void End(int32_t span);
  /// Renames an open span (a loop iteration that turned out to be another
  /// kind of work than the one it was opened as).
  void Rename(int32_t span, const char* name);
  /// Records a span whose times were taken elsewhere (the wire client).
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t request_id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(std::string_view name) const;
  /// Σ over roots called `root` of the time their direct children cover,
  /// divided by Σ of the roots' durations.
  double Coverage(std::string_view root) const;
  /// Per span name: count, total and self time (duration minus the part of
  /// it the span's children cover), one line each.
  std::string SelfTimeReport() const;
  /// Writes every span as CSV (index, name, request id, parent, start and
  /// end relative to the first span, self time). False on I/O failure.
  bool WriteCsv(const std::string& path) const;

 private:
  /// Self time of every span, in nanoseconds.
  std::vector<int64_t> SelfTimesNs() const;

  bool enabled_;
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request_id,
             int32_t parent = -1)
      : tracer_(tracer), index_(tracer.Begin(name, request_id, parent)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  Tracer& tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
