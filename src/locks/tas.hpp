// tas.hpp — test-and-set and test-and-test-and-set spin locks.
//
// Baselines from the paper's related work (§4): "Simple test-and-set
// or polite test-and-test-and-set locks are compact and exhibit
// excellent latency for uncontended operations, but fail to scale and
// may allow unfairness and even indefinite starvation." They anchor
// the non-FIFO, global-spinning end of the comparison space.
#pragma once

#include <atomic>
#include <cstdint>

#include "locks/lock_traits.hpp"
#include "runtime/annotations.hpp"
#include "runtime/pause.hpp"
#include "stats/telemetry.hpp"

namespace hemlock {

/// Crude test-and-set lock: every acquisition attempt is an atomic
/// exchange, even while the lock is held (maximum coherence abuse).
class HEMLOCK_CAPABILITY("mutex") TasLock {
 public:
  /// Acquire; spins with exchange until the flag was clear. The first
  /// failed attempt makes the acquisition a contended one.
  void lock() noexcept HEMLOCK_ACQUIRE() {
    if (attempt()) return;
    telemetry::wl_contended();
    do {
      cpu_relax();
    } while (!attempt());
  }

  /// Non-blocking attempt; true on acquisition.
  bool try_lock() noexcept HEMLOCK_TRY_ACQUIRE(true) { return attempt(); }

  /// Release (caller owns the lock).
  void unlock() noexcept HEMLOCK_RELEASE() {
    // mo: release publishes this critical section to the next acquirer.
    flag_.store(0, std::memory_order_release);
  }

 private:
  bool attempt() noexcept {
    // mo: acquire on the winning exchange pairs with unlock's release
    // store, carrying the previous critical section.
    return flag_.exchange(1, std::memory_order_acquire) == 0;
  }

  std::atomic<std::uint32_t> flag_{0};
};

/// Polite test-and-test-and-set: spin on a plain load (line stays
/// shared among waiters) and attempt the exchange only when the lock
/// is observed free — Anderson's classic improvement [5], cited in
/// §2.1 when the paper argues CTR inverts this wisdom for Hemlock's
/// 1-to-1 Grant protocol.
class HEMLOCK_CAPABILITY("mutex") TtasLock {
 public:
  /// Acquire; a failed first attempt makes it a contended one.
  void lock() noexcept HEMLOCK_ACQUIRE() {
    if (attempt()) return;
    telemetry::wl_contended();
    do {
      cpu_relax();
    } while (!attempt());
  }

  /// Non-blocking attempt; true on acquisition.
  bool try_lock() noexcept HEMLOCK_TRY_ACQUIRE(true) { return attempt(); }

  /// Release (caller owns the lock).
  void unlock() noexcept HEMLOCK_RELEASE() {
    // mo: release publishes this critical section to the next acquirer.
    flag_.store(0, std::memory_order_release);
  }

 private:
  bool attempt() noexcept {
    // mo: relaxed peek is ordering-free by design (only the winning
    // exchange synchronizes); acquire on it pairs with unlock's release.
    return flag_.load(std::memory_order_relaxed) == 0 &&
           flag_.exchange(1, std::memory_order_acquire) == 0;
  }

  std::atomic<std::uint32_t> flag_{0};
};

/// TTAS with bounded exponential backoff between attempts: trades
/// fairness and handover latency for reduced coherence storms at high
/// thread counts.
class HEMLOCK_CAPABILITY("mutex") TtasBackoffLock {
 public:
  /// Acquire; a failed first attempt makes it a contended one.
  void lock() noexcept HEMLOCK_ACQUIRE() {
    if (attempt()) return;
    telemetry::wl_contended();
    std::uint32_t ceiling = kMinBackoff;
    do {
      for (std::uint32_t i = 0; i < ceiling; ++i) cpu_relax();
      ceiling = ceiling < kMaxBackoff ? ceiling * 2 : kMaxBackoff;
    } while (!attempt());
  }

  /// Non-blocking attempt; true on acquisition.
  bool try_lock() noexcept HEMLOCK_TRY_ACQUIRE(true) { return attempt(); }

  /// Release (caller owns the lock).
  void unlock() noexcept HEMLOCK_RELEASE() {
    // mo: release publishes this critical section to the next acquirer.
    flag_.store(0, std::memory_order_release);
  }

 private:
  bool attempt() noexcept {
    // mo: relaxed peek is ordering-free by design; acquire on the
    // winning exchange pairs with unlock's release.
    return flag_.load(std::memory_order_relaxed) == 0 &&
           flag_.exchange(1, std::memory_order_acquire) == 0;
  }

  static constexpr std::uint32_t kMinBackoff = 4;
  static constexpr std::uint32_t kMaxBackoff = 4096;
  std::atomic<std::uint32_t> flag_{0};
};

template <>
struct lock_traits<TasLock> {
  static constexpr const char* name = "tas";
  static constexpr std::size_t lock_words = 1;
  static constexpr std::size_t held_words = 0;
  static constexpr std::size_t wait_words = 0;
  static constexpr std::size_t thread_words = 0;
  static constexpr bool nontrivial_init = false;
  static constexpr bool is_fifo = false;
  static constexpr bool has_trylock = true;
  static constexpr Spinning spinning = Spinning::kGlobal;
};

template <>
struct lock_traits<TtasLock> {
  static constexpr const char* name = "ttas";
  static constexpr std::size_t lock_words = 1;
  static constexpr std::size_t held_words = 0;
  static constexpr std::size_t wait_words = 0;
  static constexpr std::size_t thread_words = 0;
  static constexpr bool nontrivial_init = false;
  static constexpr bool is_fifo = false;
  static constexpr bool has_trylock = true;
  static constexpr Spinning spinning = Spinning::kGlobal;
};

template <>
struct lock_traits<TtasBackoffLock> {
  static constexpr const char* name = "ttas-backoff";
  static constexpr std::size_t lock_words = 1;
  static constexpr std::size_t held_words = 0;
  static constexpr std::size_t wait_words = 0;
  static constexpr std::size_t thread_words = 0;
  static constexpr bool nontrivial_init = false;
  static constexpr bool is_fifo = false;
  static constexpr bool has_trylock = true;
  static constexpr Spinning spinning = Spinning::kGlobal;
};

}  // namespace hemlock
