// hemlock.hpp — the Hemlock mutual-exclusion lock (paper Listings 1-6).
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
// HemlockBase is the one lock body of the Grant-word family, over two
// policy axes:
//
//  * Waiting — a Grant poll × waiting tier composition
//    (core/waiting.hpp): the naive load-polling of Listing 1
//    (PoliteWaiting — "Hemlock-" in the figures), the CTR forms of
//    Listing 2 (CtrCasWaiting / CtrFaaWaiting), or CTR polling over a
//    parking or governed tier.
//  * Handover — the unlock, which is what Appendices A and B edit:
//    Listings 1-2 (HemlockHandover, the default), Overlap (Listing 3),
//    Aggressive Hand-Over (Listing 4) and the two Optimized Hand-Over
//    variants (Listings 5-6). A policy holds only what its listing
//    changes; the Tail word, the doorstep, try_lock and the §5.4 hooks
//    are the body's, once.
//
// Policy hooks (all static, W = the Waiting policy):
//   arrive(mine, L):      lock entry, before the doorstep (line 6).
//   may_try(mine, L):     try_lock's line 6 — may an attempt start now?
//   announce(pred, L):    queued behind `pred`, before waiting on it.
//   successor(tail, me, L): unlock's excision; true when a successor
//                         exists and must be passed the lock.
//   pass(mine, L):        hand the lock to that successor.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "core/waiting.hpp"
#include "locks/lock_traits.hpp"
#include "runtime/annotations.hpp"
#include "runtime/thread_rec.hpp"

namespace hemlock {

// ======================================================================
// Hand-over policies.
// ======================================================================

/// Listings 1-2, and the defaults every other listing inherits.
template <typename W>
struct HemlockHandover {
  /// Listing 1's invariant: our mailbox is empty between locking
  /// operations (Overlap and OHV1 relax it).
  static void assert_idle(const std::atomic<GrantWord>& mine) noexcept {
    // mo: relaxed — assert-only peek at our own mailbox, no ordering.
    assert(mine.load(std::memory_order_relaxed) == kGrantEmpty);
    (void)mine;
  }

  static void arrive(std::atomic<GrantWord>& mine, GrantWord) noexcept {
    assert_idle(mine);  // line 6
  }

  static bool may_try(std::atomic<GrantWord>&, GrantWord) noexcept {
    return true;
  }

  static void announce(std::atomic<GrantWord>&, GrantWord) noexcept {}

  static bool successor(std::atomic<ThreadRec*>& tail, ThreadRec& me,
                        GrantWord) noexcept {
    assert_idle(me.grant.value);
    return !excise(tail, me);
  }

  /// Line 20: address-based ownership transfer — release carries the
  /// critical section to the successor (and, for the parking policy,
  /// wakes it). Line 21: drain. Waiting happens after the transfer,
  /// off the critical path; both MCS and Hemlock have such a
  /// non-wait-free window (§2).
  static void pass(std::atomic<GrantWord>& mine, GrantWord lock) noexcept {
    W::publish(mine, lock);
    W::wait_until_empty(mine);
  }

  /// Line 16: swing the Tail from us back to null; false when a
  /// successor has already swapped itself in.
  static bool excise(std::atomic<ThreadRec*>& tail, ThreadRec& me) noexcept {
    ThreadRec* expected = &me;
    // mo: line 16 CAS is release so the next uncontended acquirer
    // (who reads null from the SWAP) sees our critical section;
    // relaxed on failure — the Grant publish carries ordering.
    return tail.compare_exchange_strong(expected, nullptr,
                                        std::memory_order_release,
                                        std::memory_order_relaxed);
  }
};

/// Overlap (Appendix A, Listing 3). The base unlock waits for the
/// successor's acknowledgement before returning; Overlap *defers* that
/// wait to the prologue of the thread's next contended unlock,
/// "allowing greater overlap between the successor and the outgoing
/// owner." The paper measured little benefit and shipped without it
/// (§2); it is provided for the ablation benches. Thread destruction
/// must drain the Grant word (ThreadRec's destructor does; see
/// thread_rec.cpp).
template <typename W>
struct OverlapHandover : HemlockHandover<W> {
  /// Line 6: residual check. "If thread T1 were to enqueue ... [a]
  /// residual Grant value that happens to match that of the lock,
  /// then when a successor T2 enqueues after T1, it will incorrectly
  /// see that address in T1's grant field and then incorrectly enter
  /// the critical section." Wait for the tardy successor to drain,
  /// with loads: the residual is rare, and the read must not pull the
  /// line from the successor polling it.
  static void arrive(std::atomic<GrantWord>& mine, GrantWord lock) noexcept {
    W::template wait_while<LoadPoll>(mine, lock);
  }

  /// Succeeding while our mailbox still holds this lock's address
  /// would arm the stale-grant pathology for our future successor:
  /// treat the lock as busy until the tardy successor drains.
  static bool may_try(std::atomic<GrantWord>& mine, GrantWord lock) noexcept {
    // mo: acquire residual check — as arrive()'s poll, pairs with the
    // tardy successor's releasing consume.
    return mine.load(std::memory_order_acquire) != lock;
  }

  /// Our mailbox may still hold another lock's residual: no idle
  /// assertion.
  static bool successor(std::atomic<ThreadRec*>& tail, ThreadRec& me,
                        GrantWord) noexcept {
    return !HemlockHandover<W>::excise(tail, me);
  }

  static void pass(std::atomic<GrantWord>& mine, GrantWord lock) noexcept {
    // Line 16: Grant may still hold an address from a previous
    // contended unlock whose successor has not cleared it.
    W::wait_until_empty(mine);
    // Line 17: publish and leave; the drain is deferred.
    W::publish(mine, lock);
    // Published, acknowledgement not awaited: we may re-enter lock()
    // before the successor consumes.
    HEMLOCK_VERIFY_YIELD("hemlock:deferred");
  }
};

/// Aggressive Hand-Over (Appendix B, Listing 4): store the lock address
/// into Grant *first* — optimistically anticipating waiters — and only
/// then CAS the Tail for the uncontended case. "The contended handover
/// critical path is extremely short – the very first statement in the
/// unlock operator conveys ownership to the successor." "The AH form
/// (with CTR) provides the best overall performance of the Hemlock
/// family and is our preferred form when lifecycle concerns permit."
///
/// Lifetime caveat (Appendix B): because unlock touches the lock body
/// (the Tail CAS) *after* ownership may already have transferred, AH
/// "can lead to surprising use-after-free memory lifecycle pathologies
/// and is thus not safe for general use in a pthread_mutex
/// implementation." It is safe when the lock body cannot be recycled
/// while a thread is inside unlock(L): static/global locks, arenas,
/// type-stable memory, GC, or RCU-style deferred reclamation. This
/// library's tests and benches only use AH with static-duration or
/// test-scoped lock storage, and the pthread interposition layer
/// refuses to expose it. OHV1 and OHV2 are the safe fast-hand-over
/// alternatives.
template <typename W>
struct AhHandover : HemlockHandover<W> {
  static bool successor(std::atomic<ThreadRec*>& tail, ThreadRec& me,
                        GrantWord lock) noexcept {
    std::atomic<GrantWord>& mine = me.grant.value;
    HemlockHandover<W>::assert_idle(mine);
    // Line 12: optimistic transfer — if a successor is already queued
    // it can enter the critical section immediately, before we even
    // examine the Tail.
    W::publish(mine, lock);
    // Ownership may be gone: the successor can consume, run and even
    // release before our Tail CAS below.
    HEMLOCK_VERIFY_YIELD("hemlock:speculated");
    if (HemlockHandover<W>::excise(tail, me)) {
      // Lines 14-16: no waiters existed (and none could have observed
      // the speculative store: becoming our successor requires
      // swapping the Tail before this CAS, which would have made the
      // CAS fail). Retract the speculation; "the superfluous stores
      // ... are harmless to latency as the thread is likely to have
      // the underlying cache line in modified state."
      // publish (not a bare store): sleepers parked on this word by
      // OTHER locks' waiters must re-check after any mutation.
      W::publish(mine, kGrantEmpty);
      return false;
    }
    return true;
  }

  /// Line 17: waiters exist (or existed — the successor may have
  /// consumed the grant and even released the lock already, so the
  /// CAS may legitimately have observed Tail == null; Listing 1's
  /// `assert v != null` is removed in AH for exactly that reason).
  static void pass(std::atomic<GrantWord>& mine, GrantWord) noexcept {
    W::wait_until_empty(mine);
  }
};

/// Optimized Hand-Over Variant 1 (Appendix B, Listing 5). Keeps AH's
/// fast contended hand-over without touching the lock body after
/// ownership may have transferred. The Grant encoding gains a
/// distinguished L|1 state: an arriving waiter CASes L|1 into its
/// predecessor's *empty* mailbox, advertising "a successor for L
/// certainly exists". An unlock that finds its own mailbox holding L|1
/// passes ownership immediately — without touching the lock's Tail at
/// all, "further reducing coherence traffic on that coherence hotspot."
///
/// OHV1 can leave an advisory L|1 flag in the thread's Grant word
/// between operations, so the Listing-1 `Grant == null` entry
/// assertions do not apply to it; threads must not interleave OHV1
/// locks with other Hemlock-family locks (they share the Grant word
/// and the other variants' unlock drains would misread the flag). The
/// test suite keeps families pure per scenario.
template <typename W>
struct Ohv1Handover : HemlockHandover<W> {
  /// L|1 — the "successor certainly exists" advertisement. Lock
  /// objects are pointer-aligned so bit 0 is always free.
  static GrantWord flag(GrantWord lock) noexcept { return lock | 1; }

  static void arrive(std::atomic<GrantWord>&, GrantWord) noexcept {}

  /// Line 9: advertise our existence if the predecessor's mailbox is
  /// empty. The flag is advisory — losing the race (mailbox busy with
  /// another lock's traffic) merely means the predecessor discovers us
  /// via its Tail access instead. If the CAS observes our lock word
  /// already present, the hand-over has begun and the consume loop
  /// (line 10, as in Listing 2) completes it.
  static void announce(std::atomic<GrantWord>& pred, GrantWord lock) noexcept {
    GrantWord empty = kGrantEmpty;
    // mo: acq_rel — success must be ordered against the mailbox
    // owner's publish/drain pair; relaxed on failure (advisory flag,
    // the consume loop synchronizes).
    pred.compare_exchange_strong(empty, flag(lock), std::memory_order_acq_rel,
                                 std::memory_order_relaxed);
    // Flag posted (or refused), consume not yet begun: the predecessor
    // may pass without touching the Tail before our first poll.
    HEMLOCK_VERIFY_YIELD("hemlock:announced");
  }

  static bool successor(std::atomic<ThreadRec*>& tail, ThreadRec& me,
                        GrantWord lock) noexcept {
    // Line 12: if our mailbox holds L|1, a successor for this lock
    // certainly exists — pass ownership without touching the Tail.
    // The value is stable under us: only our unique L-successor
    // writes L|1 (Lemma 9), its consume loop only fires on L, and
    // other locks' waiters only CAS an *empty* mailbox.
    // mo: relaxed — advisory peek at our own mailbox; pass()'s
    // release publish is what carries the critical section.
    if (me.grant.value.load(std::memory_order_relaxed) == flag(lock)) {
      return true;
    }
    return !HemlockHandover<W>::excise(tail, me);  // lines 16-19
  }

  /// Lines 13-15: publish L (clearing any L|1 flag) and wait until the
  /// mailbox no longer holds L. Unlike the base algorithm we wait for
  /// `!= L` rather than `== null`: after our successor consumes, a
  /// waiter on a *different* lock we hold may immediately re-flag the
  /// mailbox with L'|1, and that is a legitimate resting state.
  static void pass(std::atomic<GrantWord>& mine, GrantWord lock) noexcept {
    W::publish(mine, lock);
    W::wait_while(mine, lock);
  }
};

/// Optimized Hand-Over Variant 2 (Appendix B, Listing 6): read the Tail
/// politely first. Successors exist iff Tail != Self, in which case
/// ownership passes directly, "avoiding the futile CAS and its write
/// invalidation" that the naive form incurs on the critical path under
/// contention. The lock side is the base Listing-2 path, with the
/// paper's "constant-time arrival doorway step".
template <typename W>
struct Ohv2Handover : HemlockHandover<W> {
  static bool successor(std::atomic<ThreadRec*>& tail, ThreadRec& me,
                        GrantWord) noexcept {
    HemlockHandover<W>::assert_idle(me.grant.value);
    // Line 14. Reading our own prior SWAP is guaranteed by cache
    // coherence, so a non-Self observation proves a successor
    // enqueued (Tail cannot revert to null or to an older value
    // without our own unlock CAS).
    // mo: relaxed polite read — a decision hint only; pass()'s
    // release publish (or the CAS below) carries the ordering.
    if (tail.load(std::memory_order_relaxed) != &me) return true;
    // Read "no successor"; one may still swap in before the CAS.
    HEMLOCK_VERIFY_YIELD("hemlock:polite");
    return !HemlockHandover<W>::excise(tail, me);  // lines 18-21
  }
};

// ======================================================================
// The lock body.
// ======================================================================

/// Hemlock lock body: a single word. For benchmark fairness the
/// harness places instances on separate cache lines; the class itself
/// stays one word so Table 1's space accounting holds for embedders.
template <typename Waiting = CtrCasWaiting,
          template <typename> class Handover = HemlockHandover>
class HEMLOCK_CAPABILITY("mutex") HemlockBase {
  using H = Handover<Waiting>;

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
    H::arrive(me.grant.value, lock_word());
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
      H::announce(pred->grant.value, lock_word());
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
    ThreadRec& me = self();
    if (!H::may_try(me.grant.value, lock_word())) return false;
    ThreadRec* expected = nullptr;
    // mo: acq_rel on success — same pairing as lock()'s doorstep SWAP;
    // relaxed on failure (no acquisition, nothing to order).
    if (tail_.compare_exchange_strong(expected, &me,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      LockProfiler::on_acquire(me);
      return true;
    }
    return false;
  }

  /// Release. Uncontended: one CAS. Contended: pass the lock through
  /// our Grant mailbox (Listing 2: publish the lock's address, then
  /// wait — outside the critical section — for the successor's
  /// acknowledgement so the mailbox can be reused). A thread that
  /// unlocks a lock it does not hold stalls here forever, which the
  /// paper considers a debuggability feature (§2).
  void unlock() noexcept HEMLOCK_RELEASE() {
    ThreadRec& me = self();
    if (H::successor(tail_, me, lock_word())) {
      // A successor exists but the hand-over has not completed: the
      // successor may already be polling.
      HEMLOCK_VERIFY_YIELD("hemlock:handover");
      H::pass(me.grant.value, lock_word());
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
/// The paper's appendix variants, each with CTR waiting (the form the
/// ablation bench compares). AH + CTR is the paper's preferred form.
using HemlockOverlap = HemlockBase<CtrCasWaiting, OverlapHandover>;
using HemlockAh = HemlockBase<CtrCasWaiting, AhHandover>;
using HemlockOhv1 = HemlockBase<CtrCasWaiting, Ohv1Handover>;
using HemlockOhv2 = HemlockBase<CtrCasWaiting, Ohv2Handover>;
static_assert(alignof(HemlockOhv1) >= 2, "low tag bit must be free");

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
template <>
struct lock_traits<HemlockOverlap>
    : detail::hemlock_traits_base<CtrCasWaiting> {
  static constexpr const char* name = "hemlock-overlap";
};
template <>
struct lock_traits<HemlockAh> : detail::hemlock_traits_base<CtrCasWaiting> {
  static constexpr const char* name = "hemlock-ah";
  /// Appendix B: AH's speculative unlock store is unsafe when a
  /// mutex's memory can be freed by its last user (the glibc
  /// bug-13690 pathology) — the pthread interposition shim must not
  /// host it.
  static constexpr bool pthread_overlay_safe = false;
};
template <>
struct lock_traits<HemlockOhv1> : detail::hemlock_traits_base<CtrCasWaiting> {
  static constexpr const char* name = "hemlock-ohv1";
};
template <>
struct lock_traits<HemlockOhv2> : detail::hemlock_traits_base<CtrCasWaiting> {
  static constexpr const char* name = "hemlock-ohv2";
};

}  // namespace hemlock
