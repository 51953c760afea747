#ifndef RPQLEARN_TESTS_FUZZ_ENV_H_
#define RPQLEARN_TESTS_FUZZ_ENV_H_

// The iteration-count knob shared by the fuzz campaigns, and a scoped
// environment override for the tests that check knob parsing.

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>

#include "util/status.h"

namespace rpqlearn {

/// Cases a fuzz campaign runs: `fallback` when RPQ_FUZZ_ITERS is unset,
/// else its value, which must be a positive decimal count. A malformed
/// value ("2k", "lots", "0") is InvalidArgument naming the value, so a
/// typoed nightly leg fails instead of fuzzing some other count.
inline StatusOr<uint32_t> FuzzIterations(uint32_t fallback) {
  const char* env = std::getenv("RPQ_FUZZ_ITERS");
  if (env == nullptr) return fallback;
  const char* end = env + std::strlen(env);
  uint32_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(env, end, parsed);
  if (ec != std::errc() || ptr != end || parsed == 0) {
    return Status::InvalidArgument("invalid RPQ_FUZZ_ITERS value \"" +
                                   std::string(env) +
                                   "\"; expected a positive integer");
  }
  return parsed;
}

/// Sets environment variable `name` to `value` for one scope and restores
/// its previous value, or its absence, on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* previous = std::getenv(name);
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_previous_) {
      ::setenv(name_, previous_.c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_previous_ = false;
  std::string previous_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_TESTS_FUZZ_ENV_H_
