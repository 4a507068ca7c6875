// hemlock_cv.hpp — the paper's §6 future-work variant: Grant as a
// bounded buffer of capacity 1 protected by a per-thread mutex and
// condition variable.
//
// "An interesting variation we intend to explore in the future is to
// replace the simplistic spinning on the Grant field with a
// per-thread condition variable and mutex pair that protect the Grant
// field, allowing threads to use the same waiting policy as the
// platform mutex and condition variable primitives. ... This
// construction yields 2 interesting properties: (a) the new lock
// enjoys a fast-path, for uncontended locking, that doesn't require
// any underlying mutex or condition variable operations, (b) even if
// the underlying system mutex isn't FIFO, our new lock provides
// strict FIFO admission."
//
// Space: one word per lock (Tail) plus, per thread, {mutex, condvar,
// Grant} — attractive "for systems where locks outnumber threads."
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "core/hemlock.hpp"
#include "locks/lock_traits.hpp"
#include "runtime/annotations.hpp"

namespace hemlock {

namespace detail {

/// Per-thread state for HemlockCv: the Grant mailbox plus the
/// mutex/condvar pair that implements the bounded-buffer waiting
/// policy. Registered lazily per thread; drained at thread exit.
struct CvRec {
  std::mutex mu;
  std::condition_variable cv;
  /// Written only under mu; HemlockCv::lock()'s residual check also
  /// peeks at it without mu, hence atomic (every other access is
  /// relaxed: the mutex orders it).
  std::atomic<std::uintptr_t> grant{0};

  ~CvRec() {
    // Appendix A note applies here too: the mailbox must drain before
    // the memory is reclaimed (a tardy successor may still consume).
    std::unique_lock<std::mutex> lk(mu);
    // mo: relaxed — read under mu, which orders it.
    cv.wait(lk, [&] { return grant.load(std::memory_order_relaxed) == 0; });
  }
};

/// The calling thread's CvRec.
inline CvRec& cv_self() {
  static thread_local CvRec rec;
  return rec;
}

}  // namespace detail

/// Blocking Hemlock: spins never, parks in the OS via condvars, yet
/// preserves strict FIFO admission and the uncontended
/// single-atomic-op fast path.
class HEMLOCK_CAPABILITY("mutex") HemlockCv {
 public:
  HemlockCv() = default;
  HemlockCv(const HemlockCv&) = delete;
  HemlockCv& operator=(const HemlockCv&) = delete;

  /// Acquire. Uncontended: one SWAP, no mutex/condvar operations
  /// (property (a) above). Contended: block on the predecessor's
  /// condvar until this lock's address fills its mailbox, then
  /// consume ("take" from the bounded buffer) and notify.
  void lock() HEMLOCK_ACQUIRE() {
    detail::CvRec& me = detail::cv_self();
    // Residual check (Overlap, Listing 3 line 6): unlock() returns
    // without waiting for its successor's consume, so our mailbox may
    // still hold this lock's address. Enqueueing now would let our next
    // successor take that residual grant in place of the tardy successor
    // it belonged to, which would then wait forever.
    // mo: acquire peek — only this thread stores non-null values, so a
    // value other than ours is the tardy successor's clear.
    if (me.grant.load(std::memory_order_acquire) == lock_word()) {
      std::unique_lock<std::mutex> lk(me.mu);
      me.cv.wait(lk, [&] {
        // mo: relaxed — read under mu, which orders it.
        return me.grant.load(std::memory_order_relaxed) != lock_word();
      });
    }
    // mo: acq_rel doorstep SWAP — release publishes our CvRec,
    // acquire orders us after the predecessor's enqueue.
    detail::CvRec* pred = tail_.exchange(&me, std::memory_order_acq_rel);
    if (pred != nullptr) {
      telemetry::wl_contended();  // queued behind a predecessor
      std::unique_lock<std::mutex> lk(pred->mu);
      pred->cv.wait(lk, [&] {
        // mo: relaxed — read under mu, which orders it.
        return pred->grant.load(std::memory_order_relaxed) == lock_word();
      });
      // mo: relaxed — written under mu, which orders it.
      pred->grant.store(0, std::memory_order_relaxed);
      // Wake the predecessor's producer side (its next contended
      // unlock waits for the mailbox to empty) and any co-waiters
      // monitoring the same mailbox for other locks. Notify while
      // HOLDING the mutex: the predecessor's thread-exit destructor
      // may destroy the condvar as soon as it can observe grant == 0
      // under the mutex, so an unlocked notify could touch a dead
      // object (caught by TSan in the churn stress).
      pred->cv.notify_all();
    }
  }

  /// Non-blocking attempt (CAS on Tail; still no cv operations).
  bool try_lock() HEMLOCK_TRY_ACQUIRE(true) {
    detail::CvRec* expected = nullptr;
    // mo: acq_rel — acquire pairs with the releasing unlock CAS;
    // relaxed on failure, nothing was read.
    return tail_.compare_exchange_strong(expected, &detail::cv_self(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed);
  }

  /// Release. Uncontended: one CAS. Contended: "put" the lock address
  /// into our bounded-buffer mailbox — waiting first, if necessary,
  /// for a previous handover to drain — and notify the successor.
  void unlock() HEMLOCK_RELEASE() {
    detail::CvRec& me = detail::cv_self();
    detail::CvRec* expected = &me;
    // mo: release hand-off — the critical section happens-before the
    // next acquirer's doorstep SWAP; relaxed on failure (the mutex-
    // protected mailbox hand-off synchronizes the contended path).
    if (!tail_.compare_exchange_strong(expected, nullptr,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
      std::unique_lock<std::mutex> lk(me.mu);
      me.cv.wait(lk, [&] {  // buffer empty?
        // mo: relaxed — read under mu, which orders it.
        return me.grant.load(std::memory_order_relaxed) == 0;
      });
      // mo: relaxed — written under mu, which orders it.
      me.grant.store(lock_word(), std::memory_order_relaxed);
      me.cv.notify_all();  // under the mutex; see lock() for why
    }
  }

  /// Racy emptiness snapshot for tests.
  bool appears_unlocked() const noexcept {
    // mo: acquire — racy test-only snapshot; orders the observed
    // emptiness after the releasing unlock that produced it.
    return tail_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  std::uintptr_t lock_word() const noexcept {
    return reinterpret_cast<std::uintptr_t>(this);
  }

  std::atomic<detail::CvRec*> tail_{nullptr};
};
static_assert(sizeof(HemlockCv) == sizeof(void*));

template <>
struct lock_traits<HemlockCv> {
  static constexpr const char* name = "hemlock-cv";
  static constexpr std::size_t lock_words = 1;
  static constexpr std::size_t held_words = 0;
  static constexpr std::size_t wait_words = 0;
  // mutex + condvar + grant, in words (platform-dependent; reported
  // for this build's libstdc++).
  static constexpr std::size_t thread_words =
      (sizeof(std::mutex) + sizeof(std::condition_variable) +
       sizeof(std::uintptr_t)) /
      sizeof(void*);
  static constexpr bool nontrivial_init = false;
  static constexpr bool is_fifo = true;
  static constexpr bool has_trylock = true;
  static constexpr Spinning spinning = Spinning::kFereLocal;
  /// The parking path waits on a per-thread std::mutex/condvar — the
  /// very pthread primitives an interposition library replaces — so
  /// hosting this lock inside an interposed pthread_mutex_t would
  /// re-enter the shim (and pthread_cond_wait on an interposed mutex
  /// is unsupported; see interpose/shim_mutex.hpp).
  static constexpr bool pthread_overlay_safe = false;
  /// Not an engine tier: waiters sleep on the predecessor's condvar,
  /// outside the governor's census.
  static constexpr const char* waiting = "condvar";
  static constexpr LockTier tier = LockTier::kPark;
  static constexpr bool oversub_safe = true;
};

}  // namespace hemlock
