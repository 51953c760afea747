#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "common.h"

namespace perfbench {

int32_t Tracer::Begin(const char* name, uint64_t request_id, int32_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request_id = request_id;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

void Tracer::Rename(int32_t span, const char* name) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].name = name;
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t request_id) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.request_id = request_id;
  spans_.push_back(span);
}

std::vector<double> Tracer::DurationsUs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(NsToUs(span.end_ns - span.start_ns));
  }
  return out;
}

namespace {

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

}  // namespace

std::vector<int64_t> Tracer::SelfTimesNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[i] = (span.end_ns - span.start_ns) -
              CoveredNs(std::move(children[i]), span.start_ns, span.end_ns);
  }
  return self;
}

double Tracer::Coverage(std::string_view root) const {
  const std::vector<int64_t> self = SelfTimesNs();
  int64_t total = 0;
  int64_t covered = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent >= 0 || root != span.name) continue;
    total += span.end_ns - span.start_ns;
    covered += span.end_ns - span.start_ns - self[i];
  }
  return total > 0 ? static_cast<double>(covered) / static_cast<double>(total)
                   : 0.0;
}

std::string Tracer::SelfTimeReport() const {
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  const std::vector<int64_t> self = SelfTimesNs();
  std::map<std::string, Totals> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& totals = by_name[spans_[i].name];
    ++totals.count;
    totals.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    totals.self_ns += self[i];
  }
  std::string report;
  char line[160];
  for (const auto& [name, totals] : by_name) {
    std::snprintf(line, sizeof(line),
                  "  span %-22s count %8llu  total %10.2f ms  self %10.2f ms\n",
                  name.c_str(), static_cast<unsigned long long>(totals.count),
                  NsToMs(totals.total_ns), NsToMs(totals.self_ns));
    report += line;
  }
  return report;
}

bool Tracer::WriteCsv(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<int64_t> self = SelfTimesNs();
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  std::fprintf(out, "index,name,request_id,parent,start_us,end_us,self_us\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out, "%zu,%s,%llu,%d,%.3f,%.3f,%.3f\n", i, span.name,
                 static_cast<unsigned long long>(span.request_id), span.parent,
                 NsToUs(span.start_ns - origin), NsToUs(span.end_ns - origin),
                 NsToUs(self[i]));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
