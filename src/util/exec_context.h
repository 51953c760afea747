#ifndef RPQLEARN_UTIL_EXEC_CONTEXT_H_
#define RPQLEARN_UTIL_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "util/status.h"

namespace rpqlearn {

class FaultInjector;

/// Cooperative execution control for long-running evaluation and learning.
///
/// An ExecContext carries three independent limits that a caller can impose
/// on one logical request:
///
///   - a wall-clock **deadline** (`set_deadline_after`), observed at the next
///     checkpoint after it elapses;
///   - an externally-triggerable **cancellation token** (`Cancel()`, safe to
///     call from any thread while workers are mid-evaluation);
///   - a byte-accounted **memory budget** (`set_memory_budget_bytes`), which
///     scratch allocators charge against with `Charge`/`Release`.
///
/// The engines poll `Checkpoint()` at round / closure-wave / merge-trial
/// granularity — never per edge — so a null `exec` pointer keeps the
/// sequential fast path byte-for-byte unchanged and a non-null one costs a
/// handful of relaxed atomic ops per round.
///
/// Trips are **sticky**: the first limit that fires latches a typed Status
/// (`kDeadlineExceeded` / `kCancelled` / `kResourceExhausted`) and every
/// subsequent `Checkpoint()` on any thread returns false immediately. Workers
/// unwind cooperatively, the engine discards its partial result, folds its
/// progress counters into `EvalOptions::stats`, and returns the latched
/// status annotated with how far it got. A tripped context stays tripped;
/// callers start a fresh context (or `Reset()` a test-owned one) to retry.
///
/// Thread-safety: `Checkpoint`, `Cancel`, `Charge`, `Release`, and the
/// observers are safe to call concurrently. The setters (`set_deadline*`,
/// `set_memory_budget_bytes`, `set_fault_injector`, `Reset`) configure the
/// context and must happen-before it is shared with workers.
class ExecContext {
 public:
  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Arms a wall-clock deadline `duration` from now.
  template <typename Rep, typename Period>
  void set_deadline_after(std::chrono::duration<Rep, Period> duration) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    duration);
    has_deadline_ = true;
  }

  /// Caps the total bytes of scratch simultaneously charged via `Charge`.
  /// Zero (the default) means unlimited; bytes are still tracked.
  void set_memory_budget_bytes(size_t bytes) { budget_bytes_ = bytes; }

  /// Installs a deterministic fault injector (see util/fault.h). The injector
  /// observes every checkpoint and may synthesize a trip; it must outlive the
  /// context's use. Pass nullptr to detach.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Requests cancellation. Returns immediately; workers observe the request
  /// at their next checkpoint. Safe from any thread, idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Polls every limit. Returns true when execution may continue; false once
  /// the context has tripped (and latches the trip on the first failure).
  /// Increments the checkpoint counter on every call, so checkpoint ordinals
  /// are dense and — for deterministic engines — reproducible across runs.
  bool Checkpoint();

  /// Charges `bytes` of scratch against the budget. On overflow the context
  /// trips with kResourceExhausted and the charge is rolled back; the caller
  /// must not allocate and must unwind to its checkpoint exit path. Every
  /// successful Charge must be paired with a Release of the same size.
  Status Charge(size_t bytes);

  /// Returns previously charged bytes to the budget.
  void Release(size_t bytes) {
    charged_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  bool tripped() const { return tripped_.load(std::memory_order_acquire); }

  /// The latched trip as a typed Status; Status::Ok() if not tripped.
  Status TripStatus() const;

  /// Total checkpoints observed so far (monotone, shared across workers).
  uint64_t checkpoints() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }

  /// Bytes currently charged against the budget.
  size_t charged_bytes() const {
    return charged_bytes_.load(std::memory_order_relaxed);
  }

  size_t memory_budget_bytes() const { return budget_bytes_; }

  /// Clears the trip latch, counters, and cancellation flag so the context
  /// can be rearmed. Not thread-safe; for tests and bench drivers only.
  void Reset();

 private:
  /// Latches the first trip; later calls are no-ops.
  void Trip(StatusCode code, std::string message);

  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<bool> tripped_{false};
  std::atomic<bool> cancelled_{false};
  std::atomic<size_t> charged_bytes_{0};

  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  size_t budget_bytes_ = 0;
  FaultInjector* injector_ = nullptr;

  mutable std::mutex trip_mutex_;
  StatusCode trip_code_ = StatusCode::kOk;  // guarded by trip_mutex_
  std::string trip_message_;                // guarded by trip_mutex_
};

/// RAII budget charge: charges on construction (when `exec` is non-null),
/// releases exactly what was charged on destruction. A failed charge latches
/// kResourceExhausted in the context and leaves `ok() == false`; the caller
/// skips the allocation and unwinds through its normal tripped() exit path.
class ScopedExecCharge {
 public:
  ScopedExecCharge(ExecContext* exec, size_t bytes) : exec_(exec) {
    if (exec_ == nullptr) return;
    if (exec_->Charge(bytes).ok()) {
      charged_ = bytes;
    } else {
      failed_ = true;
    }
  }
  ~ScopedExecCharge() {
    if (exec_ != nullptr && charged_ > 0) exec_->Release(charged_);
  }
  ScopedExecCharge(const ScopedExecCharge&) = delete;
  ScopedExecCharge& operator=(const ScopedExecCharge&) = delete;

  /// False iff the charge overflowed the budget (never fails without a
  /// context or without a configured budget).
  bool ok() const { return !failed_; }

 private:
  ExecContext* exec_;
  size_t charged_ = 0;
  bool failed_ = false;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_UTIL_EXEC_CONTEXT_H_
