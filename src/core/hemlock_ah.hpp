// hemlock_ah.hpp — Hemlock with Aggressive Hand-Over (paper Appendix
// B, Listing 4).
//
// AH reorders unlock to store the lock address into Grant *first* —
// optimistically anticipating waiters — and only then CAS the Tail
// for the uncontended case. "This reorganization accomplishes
// handover earlier in the unlock path and improves scalability by
// reducing the critical path for handover ... The contended handover
// critical path is extremely short – the very first statement in the
// unlock operator conveys ownership to the successor."
//
// ## Lifetime caveat (Appendix B, verbatim consequence)
// Because unlock touches the lock body (the Tail CAS) *after*
// ownership may already have transferred, AH "can lead to surprising
// use-after-free memory lifecycle pathologies and is thus not safe
// for general use in a pthread_mutex implementation." It is safe when
// the lock body cannot be recycled while a thread is inside
// unlock(L): static/global locks, arenas, type-stable memory, GC, or
// RCU-style deferred reclamation. This library's tests and benches
// only use AH with static-duration or test-scoped lock storage, and
// the pthread interposition layer refuses to expose it.
// The safe fast-hand-over alternatives are in hemlock_ohv.hpp.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "core/hemlock.hpp"
#include "core/waiting.hpp"
#include "runtime/annotations.hpp"
#include "locks/lock_traits.hpp"
#include "runtime/thread_rec.hpp"

namespace hemlock {

/// Hemlock + AH (+ CTR, as in Listing 4). "The AH form (with CTR)
/// provides the best overall performance of the Hemlock family and is
/// our preferred form when lifecycle concerns permit."
template <typename Waiting = CtrCasWaiting>
class HEMLOCK_CAPABILITY("mutex") HemlockAhBase {
 public:
  HemlockAhBase() = default;
  HemlockAhBase(const HemlockAhBase&) = delete;
  HemlockAhBase& operator=(const HemlockAhBase&) = delete;

  /// Acquire — identical to the base algorithm (Listing 4 lines 5-9).
  void lock() noexcept HEMLOCK_ACQUIRE() {
    ThreadRec& me = self();
    // mo: relaxed — assert-only peek at our own grant word.
    assert(me.grant.value.load(std::memory_order_relaxed) == kGrantEmpty);
    // mo: acq_rel doorstep SWAP — release publishes our ThreadRec,
    // acquire orders us after the predecessor's enqueue.
    ThreadRec* pred = tail_.exchange(&me, std::memory_order_acq_rel);
    if (pred != nullptr) {
      Waiting::wait_and_consume(pred->grant.value, lock_word(), pred);
    }
    LockProfiler::on_acquire(me);
  }

  /// Non-blocking attempt (CAS on Tail).
  bool try_lock() noexcept HEMLOCK_TRY_ACQUIRE(true) {
    ThreadRec* expected = nullptr;
    // mo: acq_rel — acquire pairs with the releasing unlock CAS;
    // relaxed on failure, nothing was read.
    if (tail_.compare_exchange_strong(expected, &self(),
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      LockProfiler::on_acquire(self());
      return true;
    }
    return false;
  }

  /// Release (Listing 4 lines 10-17): speculative handover first.
  void unlock() noexcept HEMLOCK_RELEASE() {
    ThreadRec& me = self();
    // mo: relaxed — assert-only peek at our own grant word.
    assert(me.grant.value.load(std::memory_order_relaxed) == kGrantEmpty);
    // Line 12: optimistic transfer — if a successor is already
    // queued it can enter the critical section immediately, before
    // we even examine the Tail.
    Waiting::publish(me.grant.value, lock_word());
    ThreadRec* expected = &me;
    // mo: release hand-off — the critical section happens-before the
    // next acquirer's doorstep SWAP; relaxed on failure (the grant
    // publish above already carried release).
    if (tail_.compare_exchange_strong(expected, nullptr,
                                      std::memory_order_release,
                                      std::memory_order_relaxed)) {
      // Lines 14-16: no waiters existed (and none could have observed
      // the speculative store: becoming our successor requires
      // swapping the Tail before this CAS, which would have made the
      // CAS fail). Retract the speculation; "the superfluous stores
      // ... are harmless to latency as the thread is likely to have
      // the underlying cache line in modified state."
      // publish (not a bare store): sleepers parked on this word by
      // OTHER locks' waiters must re-check after any mutation.
      Waiting::publish(me.grant.value, kGrantEmpty);
      LockProfiler::on_release(me);
      return;
    }
    // Line 17: waiters exist (or existed — the successor may have
    // consumed the grant and even released the lock already, so the
    // CAS may legitimately have observed Tail == null; Listing 1's
    // `assert v != null` is removed in AH for exactly that reason).
    Waiting::wait_until_empty(me.grant.value);
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
static_assert(sizeof(HemlockAhBase<>) == sizeof(void*));

/// The paper's preferred form: AH + CTR.
using HemlockAh = HemlockAhBase<CtrCasWaiting>;

template <>
struct lock_traits<HemlockAh> : detail::hemlock_traits_base<CtrCasWaiting> {
  static constexpr const char* name = "hemlock-ah";
  /// Appendix B: AH's speculative unlock store is unsafe when a
  /// mutex's memory can be freed by its last user (the glibc
  /// bug-13690 pathology) — the pthread interposition shim must not
  /// host it.
  static constexpr bool pthread_overlay_safe = false;
};

}  // namespace hemlock
