// hemlock_overlap.hpp — Hemlock with the Overlap optimization
// (paper Appendix A, Listing 3).
//
// The base algorithm's unlock waits for the successor's
// acknowledgement before returning. Overlap *defers* that wait: the
// unlocking thread publishes the lock address and returns
// immediately, shifting the drain to the prologue of its *next*
// contended synchronization operation, "allowing greater overlap
// between the successor and the outgoing owner."
//
// Two consequences handled here, straight from Appendix A:
//  * lock() must first ensure its own mailbox does not hold a
//    *residual* address of this same lock from a previous contended
//    unlock whose tardy successor has not consumed it yet (Listing 3
//    line 6) — otherwise a new successor could observe the stale
//    value and enter the critical section, "resulting in exclusion
//    and safety failure and a corrupt chain."
//  * unlock() waits for the mailbox to become empty *before* storing
//    (line 16), rather than after.
//
// Thread destruction must drain the Grant word (ThreadRec's
// destructor does; see thread_rec.cpp).
#pragma once

#include <atomic>
#include <cstdint>

#include "core/hemlock.hpp"  // detail::hemlock_traits_base
#include "core/waiting.hpp"
#include "locks/lock_traits.hpp"
#include "runtime/annotations.hpp"
#include "runtime/thread_rec.hpp"

namespace hemlock {

/// Hemlock + Overlap (Listing 3). One-word lock body; FIFO;
/// context-free. The paper measured little benefit and shipped
/// without it (§2); it is provided for the ablation benches.
template <typename Waiting = CtrCasWaiting>
class HEMLOCK_CAPABILITY("mutex") HemlockOverlapBase {
 public:
  HemlockOverlapBase() = default;
  HemlockOverlapBase(const HemlockOverlapBase&) = delete;
  HemlockOverlapBase& operator=(const HemlockOverlapBase&) = delete;

  /// Acquire (Listing 3 lines 5-11).
  void lock() noexcept HEMLOCK_ACQUIRE() {
    ThreadRec& me = self();
    // Line 6: residual check. "If thread T1 were to enqueue ... [a]
    // residual Grant value that happens to match that of the lock,
    // then when a successor T2 enqueues after T1, it will incorrectly
    // see that address in T1's grant field and then incorrectly enter
    // the critical section."  Wait for the tardy successor to drain.
    // mo: acquire residual poll — pairs with the tardy successor's
    // releasing consume so its clear is visible before we enqueue.
    while (me.grant.value.load(std::memory_order_acquire) == lock_word()) {
      cpu_relax();
    }
    // mo: acq_rel doorstep SWAP — release publishes our ThreadRec,
    // acquire orders us after the predecessor's enqueue.
    ThreadRec* pred = tail_.exchange(&me, std::memory_order_acq_rel);
    if (pred != nullptr) {
      Waiting::wait_and_consume(pred->grant.value, lock_word(), pred);
    }
    LockProfiler::on_acquire(me);
  }

  /// Non-blocking attempt. Must also respect the residual check:
  /// succeeding while our mailbox still holds this lock's address
  /// would arm the stale-grant pathology for our future successor.
  bool try_lock() noexcept HEMLOCK_TRY_ACQUIRE(true) {
    ThreadRec& me = self();
    // mo: acquire residual check — as the lock() prologue poll.
    if (me.grant.value.load(std::memory_order_acquire) == lock_word()) {
      return false;  // tardy successor still draining; treat as busy
    }
    ThreadRec* expected = nullptr;
    // mo: acq_rel — acquire pairs with the releasing unlock CAS;
    // relaxed on failure, nothing was read.
    if (tail_.compare_exchange_strong(expected, &me,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      LockProfiler::on_acquire(me);
      return true;
    }
    return false;
  }

  /// Release (Listing 3 lines 12-17): wait for the mailbox to be
  /// empty (drain any *previous* handover), publish, and return
  /// without waiting for the acknowledgement.
  void unlock() noexcept HEMLOCK_RELEASE() {
    ThreadRec& me = self();
    ThreadRec* expected = &me;
    // mo: release hand-off — the critical section happens-before the
    // next acquirer's doorstep SWAP; relaxed on failure (the grant
    // publish below carries release for the contended path).
    if (!tail_.compare_exchange_strong(expected, nullptr,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
      // Line 16: Grant may still hold an address from a previous
      // contended unlock whose successor has not cleared it.
      Waiting::wait_until_empty(me.grant.value);
      // Line 17: publish and leave; the drain is deferred.
      Waiting::publish(me.grant.value, lock_word());
    }
    LockProfiler::on_release(me);
  }

  /// Racy emptiness snapshot for tests.
  bool appears_unlocked() const noexcept {
    // mo: acquire — racy test-only snapshot; orders the observed
    // emptiness after the releasing unlock that produced it.
    return tail_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  GrantWord lock_word() const noexcept {
    return reinterpret_cast<GrantWord>(this);
  }

  std::atomic<ThreadRec*> tail_{nullptr};
};
static_assert(sizeof(HemlockOverlapBase<>) == sizeof(void*));

/// Overlap with CTR waiting (the form the ablation bench compares).
using HemlockOverlap = HemlockOverlapBase<CtrCasWaiting>;

template <>
struct lock_traits<HemlockOverlap>
    : detail::hemlock_traits_base<CtrCasWaiting> {
  static constexpr const char* name = "hemlock-overlap";
};

}  // namespace hemlock
