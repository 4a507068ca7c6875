// raw_spinlock.hpp — the library's one internal spinlock.
//
// The library's own cold-path bookkeeping — the thread registry, the
// telemetry handle table and fold, the pshared routing table, an epoch
// domain's limbo list — is guarded by this lock, never by a pthread
// mutex: under the LD_PRELOAD shim a pthread mutex here would re-enter
// the interposed surface. It calls no telemetry hook and no self(),
// because the registry's lock is taken inside thread registration,
// before the calling thread has a record. Test-and-test-and-set,
// spinning through SpinWait so a holder preempted on an oversubscribed
// host gets the CPU back.
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/pause.hpp"

namespace hemlock {

class RawSpinLock {
 public:
  void lock() noexcept {
    // mo: acquire TAS — pairs with unlock's release store; the prior
    // holder's edits are visible.
    while (flag_.exchange(1, std::memory_order_acquire) != 0) {
      SpinWait waiter;
      // mo: relaxed TTAS poll — the acquiring exchange re-synchronizes.
      while (flag_.load(std::memory_order_relaxed) != 0) waiter.wait();
    }
  }

  void unlock() noexcept {
    // mo: release — publishes this holder's edits.
    flag_.store(0, std::memory_order_release);
  }

 private:
  std::atomic<std::uint32_t> flag_{0};
};

/// Holds a RawSpinLock for its scope.
class RawSpinGuard {
 public:
  explicit RawSpinGuard(RawSpinLock& l) noexcept : lock_(l) { lock_.lock(); }
  ~RawSpinGuard() { lock_.unlock(); }
  RawSpinGuard(const RawSpinGuard&) = delete;
  RawSpinGuard& operator=(const RawSpinGuard&) = delete;

 private:
  RawSpinLock& lock_;
};

}  // namespace hemlock
