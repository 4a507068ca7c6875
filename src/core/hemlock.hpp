// hemlock.hpp — the Hemlock mutual-exclusion lock (paper Listings 1-2).
//
// One word per lock (the Tail pointer), one word per thread (the
// Grant mailbox in ThreadRec). Context-free, FIFO, fere-local
// spinning (§3). The algorithm, annotated with the paper's line
// numbers from Listing 1:
//
//   Lock(L):    pred = SWAP(&L->Tail, Self)            // line 8 (doorstep)
//               if pred != null:
//                 while pred->Grant != L: Pause        // line 11
//                 pred->Grant = null                   // line 12 (ack)
//   Unlock(L):  v = CAS(&L->Tail, Self, null)          // line 16
//               if v != Self:
//                 Self->Grant = L                      // line 20 (handover)
//                 while Self->Grant != null: Pause     // line 21 (drain)
//
// The Waiting policy parameter is a Grant poll × waiting tier
// composition (core/waiting.hpp): the naive load-polling of Listing 1
// (PoliteWaiting — "Hemlock-" in the figures), the CTR forms of
// Listing 2 (CtrCasWaiting / CtrFaaWaiting), or CTR polling over a
// parking or governed tier.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "core/waiting.hpp"
#include "locks/lock_traits.hpp"
#include "runtime/annotations.hpp"
#include "runtime/thread_rec.hpp"

namespace hemlock {

/// Hemlock lock body: a single word. For benchmark fairness the
/// harness places instances on separate cache lines; the class itself
/// stays one word so Table 1's space accounting holds for embedders.
template <typename Waiting = CtrCasWaiting>
class HEMLOCK_CAPABILITY("mutex") HemlockBase {
 public:
  HemlockBase() = default;
  HemlockBase(const HemlockBase&) = delete;
  HemlockBase& operator=(const HemlockBase&) = delete;

  /// Acquire. Uncontended: one SWAP. Contended: wait for this lock's
  /// address to appear in the predecessor's Grant mailbox, then
  /// acknowledge by clearing it (the only circumstance in which one
  /// thread stores into another's Grant field, §2).
  void lock() noexcept HEMLOCK_ACQUIRE() {
    ThreadRec& me = self();
    // Listing 1 line 6 invariant: our mailbox must be empty between
    // locking operations (holds for pure Hemlock/CTR/AH usage; see
    // hemlock_ohv.hpp for the variant that relaxes it).
    // mo: relaxed — assert-only peek at our own mailbox, no ordering.
    assert(me.grant.value.load(std::memory_order_relaxed) == kGrantEmpty);
    // mo: doorstep (line 8) is acq_rel — release publishes our record
    // to the successor that will obtain it from this SWAP; acquire
    // pairs with the release CAS of an uncontended unlock so the
    // previous critical section is visible when we get pred == null.
    ThreadRec* pred = tail_.exchange(&me, std::memory_order_acq_rel);
    if (pred != nullptr) {
      // Queued but not yet watching the mailbox: the window where the
      // owner's unlock CAS has already failed against our SWAP and
      // its publish may land before our first poll.
      HEMLOCK_VERIFY_YIELD("hemlock:queued");
      // Lines 11-12: the acquire observation of our lock word pairs
      // with the owner's release store in unlock, carrying the
      // critical section's writes.
      Waiting::wait_and_consume(pred->grant.value, lock_word(), pred);
    }
    // mo: relaxed — assert-only snapshot (line 13), no ordering.
    assert(tail_.load(std::memory_order_relaxed) != nullptr);
    LockProfiler::on_acquire(me);
  }

  /// Non-blocking attempt: CAS instead of SWAP (paper §2: "MCS and
  /// Hemlock allow trivial implementations of the TryLock operations").
  bool try_lock() noexcept HEMLOCK_TRY_ACQUIRE(true) {
    ThreadRec* expected = nullptr;
    // mo: acq_rel on success — same pairing as lock()'s doorstep SWAP;
    // relaxed on failure (no acquisition, nothing to order).
    if (tail_.compare_exchange_strong(expected, &self(),
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      LockProfiler::on_acquire(self());
      return true;
    }
    return false;
  }

  /// Release. Uncontended: one CAS. Contended: publish the lock's
  /// address through our Grant mailbox and wait — outside the
  /// critical section — for the successor's acknowledgement so the
  /// mailbox can be reused (lines 20-21). A thread that unlocks a
  /// lock it does not hold stalls here forever, which the paper
  /// considers a debuggability feature (§2).
  void unlock() noexcept HEMLOCK_RELEASE() {
    ThreadRec& me = self();
    // mo: relaxed — assert-only peek at our own mailbox, no ordering.
    assert(me.grant.value.load(std::memory_order_relaxed) == kGrantEmpty);
    ThreadRec* expected = &me;
    // mo: line 16 CAS is release so the next uncontended acquirer
    // (who reads null from the SWAP) sees our critical section;
    // relaxed on failure — the Grant publish below carries ordering.
    if (!tail_.compare_exchange_strong(expected, nullptr,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
      // Excision failed — a successor exists — but the Grant store
      // has not happened: the successor may already be polling.
      HEMLOCK_VERIFY_YIELD("hemlock:handover");
      // Waiters exist. Line 20: address-based ownership transfer —
      // release carries the critical section to the successor (and,
      // for the parking policy, wakes it).
      Waiting::publish(me.grant.value, lock_word());
      // Line 21: drain. Waiting happens after the transfer, off the
      // critical path; both MCS and Hemlock have such a non-wait-free
      // window (§2).
      Waiting::wait_until_empty(me.grant.value);
    }
    LockProfiler::on_release(me);
  }

  /// True if no thread holds or waits for the lock (racy snapshot;
  /// for tests and assertions only).
  bool appears_unlocked() const noexcept {
    // mo: acquire so test assertions reading through this snapshot see
    // the releasing thread's writes.
    return tail_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  GrantWord lock_word() const noexcept {
    return reinterpret_cast<GrantWord>(this);
  }

  std::atomic<ThreadRec*> tail_{nullptr};
};
static_assert(sizeof(HemlockBase<>) == sizeof(void*),
              "Hemlock's lock body is exactly one word (Table 1)");

/// Hemlock with the CTR optimization (Listing 2) — the configuration
/// all paper results use unless noted.
using Hemlock = HemlockBase<CtrCasWaiting>;
/// "Hemlock-": the simplistic reference implementation (Listing 1).
using HemlockNaive = HemlockBase<PoliteWaiting>;
/// CTR via fetch-and-add of zero (§2.1's LOCK:XADD alternative).
using HemlockFaa = HemlockBase<CtrFaaWaiting>;
/// CTR × governed tier: not a paper configuration; the Hemlock family's
/// adaptive waiting tier (CTR doorstep, then the governor's
/// spin/yield/park escalation). The shim hosts plain "hemlock" on
/// this when HEMLOCK_WAIT is unset; it also serves HEMLOCK_WAIT=yield
/// (the family registers no fixed yield tier).
using HemlockAdaptive = HemlockBase<GovernedGrantWaiting>;
/// CTR × park tier — the Appendix-C "polite waiting" (WaitOnAddress)
/// option for the base algorithm.
using HemlockFutex = HemlockBase<FutexWaiting>;

namespace detail {
template <typename W>
struct hemlock_traits_base {
  static constexpr std::size_t lock_words = 1;    // Table 1: Lock = 1
  static constexpr std::size_t held_words = 0;    // Held = 0
  static constexpr std::size_t wait_words = 0;    // Wait = 0
  static constexpr std::size_t thread_words = 1;  // Thread = 1 (Grant)
  static constexpr bool nontrivial_init = false;  // Init = none
  static constexpr bool is_fifo = true;
  static constexpr bool has_trylock = true;
  static constexpr Spinning spinning = Spinning::kFereLocal;
  /// The composition's name: the poll's for a spin-tier policy
  /// ("ctr-cas", "load", "ctr-faa"), else the tier's ("park", ...).
  static constexpr const char* waiting = W::name;
  /// The escalating tiers yield or park; the paper's measured
  /// spin-tier policies busy-wait and convoy when preempted.
  static constexpr bool oversub_safe = W::oversub_safe;
};
}  // namespace detail

template <>
struct lock_traits<Hemlock> : detail::hemlock_traits_base<CtrCasWaiting> {
  static constexpr const char* name = "hemlock";
};
template <>
struct lock_traits<HemlockNaive>
    : detail::hemlock_traits_base<PoliteWaiting> {
  static constexpr const char* name = "hemlock-";  // paper's figure label
};
template <>
struct lock_traits<HemlockFaa> : detail::hemlock_traits_base<CtrFaaWaiting> {
  static constexpr const char* name = "hemlock-faa";
};
template <>
struct lock_traits<HemlockAdaptive>
    : detail::hemlock_traits_base<GovernedGrantWaiting> {
  static constexpr const char* name = "hemlock-adaptive";
};
template <>
struct lock_traits<HemlockFutex>
    : detail::hemlock_traits_base<FutexWaiting> {
  static constexpr const char* name = "hemlock-futex";
};

}  // namespace hemlock
