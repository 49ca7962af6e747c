// Cooperative cancellation and deadlines. Long-running algorithms
// (state-space BFS, samplers, exact traversals) accept a non-owning
// `const CancellationToken*` in their options struct and poll Check() at
// loop boundaries; the owner (a query service worker, a CLI timeout, a
// test) arms the token with a deadline and/or flips the cancel flag from
// another thread. Polling is cheap: an acquire load, plus a clock read at
// a configurable stride when a deadline is set.
#ifndef PFQL_UTIL_CANCELLATION_H_
#define PFQL_UTIL_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>

#include "util/status.h"

namespace pfql {

/// Shared cancel/deadline state. Thread-safe: any thread may Cancel() or
/// poll Check()/Expired() concurrently. Not copyable (identity matters —
/// pollers hold a pointer to the one the controller arms).
class CancellationToken {
 public:
  CancellationToken() = default;
  explicit CancellationToken(std::chrono::steady_clock::time_point deadline)
      : deadline_(deadline) {}

  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Token that expires `timeout` from now.
  static CancellationToken AfterTimeout(std::chrono::nanoseconds timeout) {
    return CancellationToken(std::chrono::steady_clock::now() + timeout);
  }

  /// Requests cancellation; every subsequent Check() fails with kCancelled.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  bool has_deadline() const { return deadline_.has_value(); }
  std::optional<std::chrono::steady_clock::time_point> deadline() const {
    return deadline_;
  }

  /// True iff a deadline is set and has passed.
  bool Expired() const {
    return deadline_.has_value() &&
           std::chrono::steady_clock::now() >= *deadline_;
  }

  /// OK while running; Cancelled after Cancel(); DeadlineExceeded once the
  /// deadline passes. Cancellation wins over expiry when both hold.
  Status Check() const {
    if (cancelled()) return Status::Cancelled("operation cancelled");
    if (Expired()) return Status::DeadlineExceeded("deadline exceeded");
    return Status::OK();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::optional<std::chrono::steady_clock::time_point> deadline_;
};

/// Strided poller for hot loops: calls token->Check() only every `stride`
/// ticks (and on the first), so the clock is read O(iterations / stride)
/// times. A null token makes every Tick() free and OK.
class CancelPoller {
 public:
  explicit CancelPoller(const CancellationToken* token, uint32_t stride = 64)
      : token_(token), stride_(stride == 0 ? 1 : stride) {}

  /// Re-points the poller at `token` and keeps its tick count, so a poller
  /// that outlives one call (a resumable sampler's, across quanta) keeps
  /// its stride.
  void Rebind(const CancellationToken* token) { token_ = token; }

  /// Call once per loop iteration.
  Status Tick() {
    if (token_ == nullptr) return Status::OK();
    if (count_++ % stride_ != 0) return Status::OK();
    return token_->Check();
  }

 private:
  const CancellationToken* token_;
  uint32_t stride_;
  uint32_t count_ = 0;
};

}  // namespace pfql

#endif  // PFQL_UTIL_CANCELLATION_H_
