// hemlock_ohv.hpp — Hemlock with Optimized Hand-Over, variants 1 & 2
// (paper Appendix B, Listings 5 and 6).
//
// Both variants retain AH's fast contended hand-over while remaining
// immune to the use-after-free pathology, because neither touches the
// lock body after ownership may have transferred.
//
//  * Variant 1 (Listing 5) augments the Grant encoding with a
//    distinguished L|1 state: an arriving waiter CASes L|1 into its
//    predecessor's *empty* mailbox, advertising "a successor for L
//    certainly exists". An unlock that finds its own mailbox holding
//    L|1 passes ownership immediately — without touching the lock's
//    Tail at all, "further reducing coherence traffic on that
//    coherence hotspot."
//  * Variant 2 (Listing 6) first reads the Tail politely: successors
//    exist iff Tail != Self, in which case it passes ownership
//    directly, "avoiding the futile CAS and its write invalidation"
//    that the naive form incurs on the critical path under contention.
//
// NOTE: Variant 1 can leave an advisory L|1 flag in the thread's
// Grant word between operations, so the Listing-1 `Grant == null`
// entry assertions do not apply to it; threads must not interleave
// OHV1 locks with other Hemlock-family locks (they share the Grant
// word and the other variants' unlock drains would misread the flag).
// The test suite keeps families pure per scenario.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "core/hemlock.hpp"
#include "core/waiting.hpp"
#include "locks/lock_traits.hpp"
#include "runtime/annotations.hpp"
#include "runtime/thread_rec.hpp"

namespace hemlock {

/// Optimized Hand-Over Variant 1 (Listing 5): successor-presence flag
/// in the Grant word's low bit.
class HEMLOCK_CAPABILITY("mutex") HemlockOhv1 {
 public:
  HemlockOhv1() = default;
  HemlockOhv1(const HemlockOhv1&) = delete;
  HemlockOhv1& operator=(const HemlockOhv1&) = delete;

  /// Acquire (Listing 5 lines 5-10).
  void lock() noexcept HEMLOCK_ACQUIRE() {
    ThreadRec& me = self();
    // mo: acq_rel doorstep SWAP — release publishes our ThreadRec,
    // acquire orders us after the predecessor's enqueue.
    ThreadRec* pred = tail_.exchange(&me, std::memory_order_acq_rel);
    if (pred != nullptr) {
      // Line 9: advertise our existence if the predecessor's mailbox
      // is empty. The flag is advisory — losing the race (mailbox
      // busy with another lock's traffic) merely means the
      // predecessor discovers us via its Tail access instead. If the
      // CAS observes our lock word already present, the hand-over has
      // begun and the consume loop below completes it.
      GrantWord empty = kGrantEmpty;
      // mo: acq_rel — success must be ordered against the mailbox
      // owner's publish/drain pair; relaxed on failure (advisory flag,
      // the consume loop below synchronizes).
      pred->grant.value.compare_exchange_strong(empty, flag_word(),
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed);
      // Line 10: CTR consume loop, as in Listing 2.
      CtrCasWaiting::wait_and_consume(pred->grant.value, lock_word(), pred);
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

  /// Release (Listing 5 lines 11-19).
  void unlock() noexcept HEMLOCK_RELEASE() {
    ThreadRec& me = self();
    // Line 12: if our mailbox holds L|1, a successor for this lock
    // certainly exists — pass ownership without touching the Tail.
    // The value is stable under us: only our unique L-successor
    // writes L|1 (Lemma 9), its consume loop only fires on L, and
    // other locks' waiters only CAS an *empty* mailbox.
    // mo: relaxed — advisory peek at our own mailbox; pass_lock's
    // release store is what publishes the critical section.
    if (me.grant.value.load(std::memory_order_relaxed) == flag_word()) {
      pass_lock(me);
      LockProfiler::on_release(me);
      return;
    }
    ThreadRec* expected = &me;
    // mo: release hand-off — the critical section happens-before the
    // next acquirer's doorstep SWAP; relaxed on failure (pass_lock's
    // release publish covers the contended path).
    auto prior = tail_.compare_exchange_strong(expected, nullptr,
                                               std::memory_order_release,
                                               std::memory_order_relaxed);
    assert(prior || expected != nullptr);  // Listing 5 line 18: v != null
    if (!prior) {
      pass_lock(me);  // line 19
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
  /// Lines 13-15: publish L (clearing any L|1 flag) and wait until
  /// the mailbox no longer holds L. Unlike the base algorithm we wait
  /// for `!= L` rather than `== null`: after our successor consumes,
  /// a waiter on a *different* lock we hold may immediately re-flag
  /// the mailbox with L'|1, and that is a legitimate resting state.
  void pass_lock(ThreadRec& me) noexcept {
    // mo: release hand-off — critical section happens-before the
    // successor's acquiring consume of the mailbox.
    me.grant.value.store(lock_word(), std::memory_order_release);
    // mo: acquire FAA(0) drain — pairs with the successor's releasing
    // consume CAS so its (empty or re-flagged) write is visible.
    while (me.grant.value.fetch_add(0, std::memory_order_acquire) ==
           lock_word()) {
      cpu_relax();
    }
  }

  GrantWord lock_word() const noexcept {
    return reinterpret_cast<GrantWord>(this);
  }
  /// L|1 — the "successor certainly exists" advertisement. Lock
  /// objects are pointer-aligned so bit 0 is always free.
  GrantWord flag_word() const noexcept { return lock_word() | 1; }

  std::atomic<ThreadRec*> tail_{nullptr};
};
static_assert(sizeof(HemlockOhv1) == sizeof(void*));
static_assert(alignof(HemlockOhv1) >= 2, "low tag bit must be free");

/// Optimized Hand-Over Variant 2 (Listing 6): polite Tail inspection
/// before the CAS.
template <typename Waiting = CtrCasWaiting>
class HEMLOCK_CAPABILITY("mutex") HemlockOhv2Base {
 public:
  HemlockOhv2Base() = default;
  HemlockOhv2Base(const HemlockOhv2Base&) = delete;
  HemlockOhv2Base& operator=(const HemlockOhv2Base&) = delete;

  /// Acquire — the base Listing-2 path (Listing 6 lines 5-11, with
  /// the paper's "constant-time arrival doorway step" comment).
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

  /// Release (Listing 6 lines 12-21): successors exist iff
  /// Tail != Self; the polite load avoids a futile CAS (and its
  /// write-invalidation of the Tail line) on the contended path.
  void unlock() noexcept HEMLOCK_RELEASE() {
    ThreadRec& me = self();
    // mo: relaxed — assert-only peek at our own grant word.
    assert(me.grant.value.load(std::memory_order_relaxed) == kGrantEmpty);
    // Line 14. Reading our own prior SWAP is guaranteed by cache
    // coherence, so a non-Self observation proves a successor
    // enqueued (Tail cannot revert to null or to an older value
    // without our own unlock CAS).
    // mo: relaxed polite read — a decision hint only; pass_lock's
    // release publish (or the CAS below) carries the ordering.
    if (tail_.load(std::memory_order_relaxed) != &me) {
      pass_lock(me);
      LockProfiler::on_release(me);
      return;
    }
    ThreadRec* expected = &me;
    // mo: release hand-off — the critical section happens-before the
    // next acquirer's doorstep SWAP; relaxed on failure (pass_lock's
    // release publish covers the contended path).
    if (!tail_.compare_exchange_strong(expected, nullptr,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
      assert(expected != nullptr);  // line 20
      pass_lock(me);                // line 21
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
  /// Lines 15-17: publish and drain to empty, CTR-style.
  void pass_lock(ThreadRec& me) noexcept {
    Waiting::publish(me.grant.value, lock_word());
    Waiting::wait_until_empty(me.grant.value);
  }

  GrantWord lock_word() const noexcept {
    return reinterpret_cast<GrantWord>(this);
  }

  std::atomic<ThreadRec*> tail_{nullptr};
};
static_assert(sizeof(HemlockOhv2Base<>) == sizeof(void*));

using HemlockOhv2 = HemlockOhv2Base<CtrCasWaiting>;

template <>
struct lock_traits<HemlockOhv1> : detail::hemlock_traits_base<CtrCasWaiting> {
  static constexpr const char* name = "hemlock-ohv1";
};
template <>
struct lock_traits<HemlockOhv2> : detail::hemlock_traits_base<CtrCasWaiting> {
  static constexpr const char* name = "hemlock-ohv2";
};

}  // namespace hemlock
