// hemlock_chain.hpp — the Appendix C park/unpark-capable variant.
//
// "To allow purely local spinning and enable the use of park-unpark
// waiting constructs, we can replace the per-thread Grant field with
// a per-thread pointer to a chain of waiting elements, each of which
// represents a waiting thread. The elements on T's chain are T's
// immediate successors for various locks. Waiting elements contain a
// next field, a flag and a reference to the lock being waited on and
// can be allocated on-stack. Instead of busy waiting on the
// predecessor's Grant field, waiting threads use CAS to push their
// element onto the predecessor's chain, and then busy-wait on the
// flag in their element. The contended unlock(L) operator detaches
// the thread's own chain, using SWAP of null, traverses the detached
// chain, and sets the flag in the element that references L. (At most
// one element will reference L). Any residual non-matching elements
// are returned to the chain. The detach-and-scan phase repeats until
// a matching successor is found and ownership is transferred."
//
// Each waiter waits on its private flag through the waiting engine's
// park tier (SpinThenParkWaiting: spin, yield, then futex park) — the
// park/unpark construct the chain exists to enable. The hand-off is
// the tier's publish, whose wake is gated on the governor's parked
// census for the flag's address, so a successor still spinning costs
// no syscall. That wake may land after the (stack-allocated) element
// is already popped and its frame reused; it reads only the census
// bucket, never the element, and is the standard wake-after-free futex
// idiom — the syscall either finds no waiters or spuriously wakes an
// unrelated one, and every wait re-checks its predicate.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/waiting.hpp"
#include "locks/lock_traits.hpp"
#include "runtime/annotations.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/pause.hpp"

namespace hemlock {

namespace detail {

/// On-stack waiting element (Appendix C: next + flag + lock ref).
struct alignas(kCacheLineSize) ChainElem {
  ChainElem* next = nullptr;
  std::atomic<std::uint32_t> flag{0};  ///< 0 = waiting, 1 = granted
  const void* lock_addr = nullptr;
};

/// Per-thread chain head: this thread's immediate successors, one
/// element per lock they wait on. Sole occupant of its line.
struct ChainRec {
  CacheAligned<std::atomic<ChainElem*>> head{nullptr};
};

/// The calling thread's chain record.
inline ChainRec& chain_self() {
  static thread_local ChainRec rec;
  return rec;
}

}  // namespace detail

/// Hemlock with per-thread successor chains and futex parking.
/// Strictly local waiting (each waiter has a private flag), at the
/// cost of the unlock-side detach-and-scan.
class HEMLOCK_CAPABILITY("mutex") HemlockChain {
 public:
  HemlockChain() = default;
  HemlockChain(const HemlockChain&) = delete;
  HemlockChain& operator=(const HemlockChain&) = delete;

  /// Acquire: enqueue on the Tail; if contended, push an on-stack
  /// element onto the predecessor's chain and wait on our own flag.
  void lock() HEMLOCK_ACQUIRE() {
    detail::ChainRec& me = detail::chain_self();
    // mo: acq_rel doorstep SWAP — release publishes our ChainRec,
    // acquire orders us after the predecessor's enqueue.
    detail::ChainRec* pred = tail_.exchange(&me, std::memory_order_acq_rel);
    if (pred == nullptr) return;
    // Queued on the Tail, element not yet pushed: the owner's unlock
    // may already be scanning its chain for us.
    HEMLOCK_VERIFY_YIELD("hemlock:queued");

    detail::ChainElem elem;
    elem.lock_addr = this;
    // Treiber push onto the predecessor's chain.
    // mo: relaxed initial read — the CAS below revalidates it.
    detail::ChainElem* h = pred->head.value.load(std::memory_order_relaxed);
    do {
      elem.next = h;
    // mo: release push — publishes elem.next/lock_addr to the
    // predecessor's acquiring detach SWAP; relaxed failure reloads.
    } while (!pred->head.value.compare_exchange_weak(
        h, &elem, std::memory_order_release, std::memory_order_relaxed));

    // Spin-then-park on our private flag; the engine's acquire polls
    // pair with the owner's release publish, so the previous critical
    // section happens-before our entry.
    SpinThenParkWaiting::wait_until(elem.flag, std::uint32_t{1});
  }

  /// Non-blocking attempt (CAS on Tail).
  bool try_lock() HEMLOCK_TRY_ACQUIRE(true) {
    detail::ChainRec* expected = nullptr;
    // mo: acq_rel — acquire pairs with the releasing unlock CAS;
    // relaxed on failure, nothing was read.
    return tail_.compare_exchange_strong(expected, &detail::chain_self(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed);
  }

  /// Release: uncontended CAS, else detach-and-scan for the unique
  /// element referencing this lock, re-attaching bystanders.
  void unlock() HEMLOCK_RELEASE() {
    detail::ChainRec& me = detail::chain_self();
    detail::ChainRec* expected = &me;
    // mo: release hand-off — the critical section happens-before the
    // next acquirer's doorstep SWAP; relaxed on failure (the flag
    // store below carries release instead).
    if (tail_.compare_exchange_strong(expected, nullptr,
                                      std::memory_order_release,
                                      std::memory_order_relaxed)) {
      return;
    }
    // A successor exists but may not have pushed its element yet;
    // repeat the detach-and-scan until it appears.
    for (;;) {
      // mo: acq_rel detach SWAP — acquire pairs with waiters' release
      // pushes (their elem fields are visible); release keeps the
      // splice-back below ordered for the next detach.
      detail::ChainElem* list =
          me.head.value.exchange(nullptr, std::memory_order_acq_rel);
      detail::ChainElem* match = nullptr;
      detail::ChainElem* keep_head = nullptr;
      detail::ChainElem* keep_tail = nullptr;
      while (list != nullptr) {
        detail::ChainElem* next = list->next;
        if (list->lock_addr == this) {
          match = list;  // at most one element references L
        } else {
          list->next = keep_head;
          keep_head = list;
          if (keep_tail == nullptr) keep_tail = list;
        }
        list = next;
      }
      if (keep_head != nullptr) {
        // Splice the bystanders back (they are other locks' waiters;
        // their unlocks — also by this thread — will find them).
        // mo: relaxed initial read — the CAS below revalidates it.
        detail::ChainElem* h = me.head.value.load(std::memory_order_relaxed);
        do {
          keep_tail->next = h;
        // mo: release splice — republishes the bystander links;
        // relaxed failure reloads.
        } while (!me.head.value.compare_exchange_weak(
            h, keep_head, std::memory_order_release,
            std::memory_order_relaxed));
      }
      if (match != nullptr) {
        // Transfer ownership. After the flag store the element (on
        // the successor's stack) may vanish at any moment; the
        // publish's wake tolerates that (see file comment).
        SpinThenParkWaiting::publish(match->flag, std::uint32_t{1});
        return;
      }
      // The successor swapped the Tail but has not pushed its element.
      HEMLOCK_VERIFY_YIELD("chain:rescan");
      cpu_relax();
    }
  }

  /// Racy emptiness snapshot for tests.
  bool appears_unlocked() const noexcept {
    // mo: acquire — racy test-only snapshot; orders the observed
    // emptiness after the releasing unlock that produced it.
    return tail_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  std::atomic<detail::ChainRec*> tail_{nullptr};
};
static_assert(sizeof(HemlockChain) == sizeof(void*));

template <>
struct lock_traits<HemlockChain> {
  static constexpr const char* name = "hemlock-chain";
  static constexpr std::size_t lock_words = 1;
  static constexpr std::size_t held_words = 0;
  static constexpr std::size_t wait_words =
      sizeof(detail::ChainElem) / sizeof(void*);  // on-stack element
  static constexpr std::size_t thread_words = 1;  // chain head
  static constexpr bool nontrivial_init = false;
  static constexpr bool is_fifo = true;
  static constexpr bool has_trylock = true;
  static constexpr Spinning spinning = Spinning::kLocal;  // private flags
  static constexpr const char* waiting = SpinThenParkWaiting::name;
  static constexpr LockTier tier = SpinThenParkWaiting::lock_tier;
  static constexpr bool oversub_safe = true;
};

}  // namespace hemlock
