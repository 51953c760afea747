#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the repository benchmark: run arguments, the result
// record every workload fills, timing and percentile helpers, and the reply
// hash the serving checks use.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (CLOCK_MONOTONIC, the clock steady_clock reads).
int64_t NowNs();

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MB (getrusage ru_maxrss).
double PeakRssMb();

/// 64-bit hash of reply bytes, word at a time. Replies whose bytes are not
/// known when they arrive are checked later by (length, hash).
uint64_t HashBytes(std::string_view bytes);

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's own files (edge lists, span dumps).
  std::string work_dir = ".";
};

/// What a workload reports: operation accounting, output correctness, and
/// its metrics by name.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Why the run's figures are not valid (the load generator fell behind,
  /// too few samples); empty for a valid run. Invalid runs report nothing.
  std::string invalid;
  std::map<std::string, double> metrics;
  /// Human-readable descriptions of output mismatches (first few kept).
  std::vector<std::string> mismatches;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Mismatch(std::string what);
};

RunResult RunReadWrite(const RunArgs& args);
RunResult RunLearnInteractive(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
