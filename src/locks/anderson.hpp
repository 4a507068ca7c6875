// anderson.hpp — Anderson's array-based queueing lock.
//
// From the paper's related work (§4): "Anderson's array-based
// queueing lock is based on Ticket Locks but provides local spinning.
// It employs a waiting array for each lock instance, sized to ensure
// there is at least one array element for each potentially waiting
// thread, yielding a potentially large footprint. The maximum number
// of participating threads must be known in advance when initializing
// the lock." Included to anchor the space/locality trade-off Hemlock
// improves on (Table 1 discussion).
//
// The Waiting template parameter selects the waiting tier
// (core/waiting.hpp): pure spin (the textbook algorithm) or the
// yield/park/governed tiers for oversubscribed hosts. Each waiter has
// a private slot, so the parking tiers wake exactly the intended
// successor.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/waiting.hpp"
#include "locks/lock_traits.hpp"
#include "runtime/annotations.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/pause.hpp"

namespace hemlock {

/// Array-based queue lock for at most `MaxThreads` concurrent
/// contenders (callers must guarantee the bound; exceeding it wraps
/// the slot ring and corrupts the protocol).
template <std::uint32_t MaxThreads = 64, typename Waiting = QueueSpinWaiting>
class HEMLOCK_CAPABILITY("mutex") AndersonLockT {
 public:
  AndersonLockT() {
    // mo: relaxed — construction precedes any concurrent use; the
    // caller publishes the lock object itself.
    slots_[0].value.store(1, std::memory_order_relaxed);  // slot 0 may run
    for (std::uint32_t i = 1; i < MaxThreads; ++i) {
      slots_[i].value.store(0, std::memory_order_relaxed);  // mo: as above
    }
  }
  AndersonLockT(const AndersonLockT&) = delete;
  AndersonLockT& operator=(const AndersonLockT&) = delete;

  /// Acquire: take a slot with fetch-and-add, wait (per the tier)
  /// locally on it.
  void lock() HEMLOCK_ACQUIRE() {
    // mo: relaxed draw — the slot index carries no payload; the wait
    // on the slot below supplies acquire ordering.
    const std::uint64_t ticket =
        next_.value.fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t idx = static_cast<std::uint32_t>(ticket % MaxThreads);
    // Slot claimed, not yet watching it.
    HEMLOCK_VERIFY_YIELD("anderson:slot");
    Waiting::wait_until(slots_[idx].value, std::uint32_t{1});
    // Admitted but permission not yet consumed — the slot must not be
    // observable as enabled by its next-lap claimant here.
    HEMLOCK_VERIFY_YIELD("anderson:admitted");
    // mo: relaxed — consuming the permission so the slot is clean for
    // its next lap; ordered before our eventual publish of the *next*
    // slot by release there, and nobody reads this slot until then.
    slots_[idx].value.store(0, std::memory_order_relaxed);
    owner_idx_ = idx;  // protected by the lock itself
  }

  /// Release: enable the next slot in the ring (the parking tiers
  /// fold their census-gated wake into publish()).
  void unlock() HEMLOCK_RELEASE() {
    const std::uint32_t nxt = (owner_idx_ + 1) % MaxThreads;
    HEMLOCK_VERIFY_YIELD("anderson:handoff");
    Waiting::publish(slots_[nxt].value, std::uint32_t{1});
  }

  /// Max contenders supported.
  static constexpr std::uint32_t capacity() { return MaxThreads; }

 private:
  CacheAligned<std::atomic<std::uint64_t>> next_;
  std::uint32_t owner_idx_ = 0;  ///< valid only while held
  CacheAligned<std::atomic<std::uint32_t>> slots_[MaxThreads];
};

/// The paper's baseline shape: pure busy-wait (existing spelling
/// `AndersonLock<N>` preserved via this alias).
template <std::uint32_t MaxThreads = 64>
using AndersonLock = AndersonLockT<MaxThreads, QueueSpinWaiting>;

/// One row per waiting tier, at every capacity: "anderson",
/// "anderson-yield", "anderson-park", "anderson-adaptive".
template <std::uint32_t N, typename W>
struct lock_traits<AndersonLockT<N, W>> : tiered_traits<"anderson", W> {
  static constexpr std::size_t lock_words =
      (sizeof(AndersonLockT<N, W>)) / sizeof(void*);  // the big array
  static constexpr std::size_t held_words = 0;
  static constexpr std::size_t wait_words = 0;
  static constexpr std::size_t thread_words = 0;
  static constexpr bool nontrivial_init = true;  // slot ring priming
  static constexpr bool is_fifo = true;
  static constexpr bool has_trylock = false;
  static constexpr Spinning spinning = Spinning::kLocal;
  /// The waiting array bounds concurrent contenders; runtime
  /// consumers (LockInfo) enforce this where the thread count is a
  /// run-time quantity.
  static constexpr std::size_t max_threads = N;
};

}  // namespace hemlock
