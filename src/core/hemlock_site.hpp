// hemlock_site.hpp — the §2.3 on-stack Grant optimization.
//
// "If a lock site is well-balanced – with the lock and corresponding
// unlock operators lexically scoped and executing in the same stack
// frame – a Hemlock implementation can opt to use an on-stack Grant
// field instead of the thread-local Grant field accessed via Self.
// This optimization, which can be applied on an ad-hoc site-by-site
// basis, also acts to reduce multi-waiting on the thread-local Grant
// field." (The paper cites std::lock_guard/std::scoped_lock shapes as
// exactly this situation.)
//
// HemlockSite is the guard-only embodiment: acquisition constructs a
// Guard whose *stack frame* carries the Grant slot this waiter's
// successor will spin on. Because every queue entry has its own slot,
// a thread holding many HemlockSite locks never concentrates waiters
// on one word — multi-waiting degree is structurally 1 (strictly
// local spinning), at the cost of one cache line of stack per held
// lock and the loss of the bare lock()/unlock() interface (the guard
// *is* the context, so this form is deliberately not context-free;
// the paper frames it as a site-local opt-in, and mixed usage with
// plain Hemlock on other sites is the intended deployment).
//
// The Guard's destructor must fully drain the handover (successor's
// acknowledgement) before returning — the slot dies with the frame,
// so the Overlap deferral is structurally impossible here.
//
// Like HemlockBase, the lock takes its Grant-word waiting policy as a
// template parameter: HemlockSite is the paper's CTR spin form, and
// HemlockSiteBase<GovernedGrantWaiting> escalates to yielding and
// parking when waiters outnumber the CPUs. The hand-off goes through
// the policy's publish, which wakes a parked successor.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/waiting.hpp"
#include "locks/lock_traits.hpp"
#include "runtime/annotations.hpp"
#include "runtime/cacheline.hpp"

namespace hemlock {

/// Hemlock with per-acquisition on-stack Grant slots. One word of
/// lock body; acquisition only via Guard. `Waiting` is a Grant-word
/// policy (core/waiting.hpp), as for HemlockBase.
template <typename Waiting = CtrCasWaiting>
class HEMLOCK_CAPABILITY("mutex") HemlockSiteBase {
 public:
  HemlockSiteBase() = default;
  HemlockSiteBase(const HemlockSiteBase&) = delete;
  HemlockSiteBase& operator=(const HemlockSiteBase&) = delete;

  /// On-stack queue element: the Grant slot lives inside the guard.
  class HEMLOCK_SCOPED_CAPABILITY [[nodiscard]] Guard {
   public:
    /// Acquire `lock` (blocking).
    explicit Guard(HemlockSiteBase& lock) HEMLOCK_ACQUIRE(lock)
        : lock_(lock) {
      // mo: acq_rel doorstep SWAP — release publishes our slot,
      // acquire orders us after the predecessor's enqueue.
      Slot* pred = lock_.tail_.exchange(&slot_, std::memory_order_acq_rel);
      if (pred != nullptr) {
        // CTR consume on the predecessor's *slot* — guaranteed to be
        // the only thread polling that word (slot-per-acquisition).
        Waiting::wait_and_consume(pred->grant.value, lock_.lock_word());
      }
    }

    /// Release. Drains the successor's acknowledgement before the
    /// frame (and the slot within it) is reclaimed.
    ~Guard() HEMLOCK_RELEASE() {
      Slot* expected = &slot_;
      // mo: release hand-off — the critical section happens-before
      // the next acquirer's doorstep SWAP; relaxed on failure (the
      // slot publish below carries release instead).
      if (!lock_.tail_.compare_exchange_strong(expected, nullptr,
                                               std::memory_order_release,
                                               std::memory_order_relaxed)) {
        // The policy's release publish: the critical section
        // happens-before the successor's acquiring consume of this
        // slot, and a successor parked on the slot is woken.
        Waiting::publish(slot_.grant.value, lock_.lock_word());
        Waiting::wait_until_empty(slot_.grant.value);
      }
    }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    friend class HemlockSiteBase;
    struct Slot {
      CacheAligned<std::atomic<GrantWord>> grant{kGrantEmpty};
    };

    HemlockSiteBase& lock_;
    Slot slot_;
  };

  /// Racy emptiness snapshot for tests.
  bool appears_unlocked() const noexcept {
    // mo: acquire — racy test-only snapshot; orders the observed
    // emptiness after the releasing unlock that produced it.
    return tail_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  using Slot = typename Guard::Slot;

  GrantWord lock_word() const noexcept {
    return reinterpret_cast<GrantWord>(this);
  }

  std::atomic<Slot*> tail_{nullptr};
};

/// The paper's form: CTR CAS polling on the spin tier.
using HemlockSite = HemlockSiteBase<CtrCasWaiting>;
static_assert(sizeof(HemlockSite) == sizeof(void*));

template <>
struct lock_traits<HemlockSite> {
  static constexpr const char* name = "hemlock-site";
  static constexpr std::size_t lock_words = 1;
  static constexpr std::size_t held_words =
      kCacheLineSize / sizeof(void*);  // the on-stack slot, padded
  static constexpr std::size_t wait_words = kCacheLineSize / sizeof(void*);
  static constexpr std::size_t thread_words = 0;  // no Self state used
  static constexpr bool nontrivial_init = false;
  static constexpr bool is_fifo = true;
  static constexpr bool has_trylock = false;  // guard-only interface
  static constexpr Spinning spinning = Spinning::kLocal;  // slot/waiter
};

}  // namespace hemlock
