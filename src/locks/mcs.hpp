// mcs.hpp — classic MCS queue lock (Mellor-Crummey & Scott, 1991).
//
// Configured exactly as the paper's baseline (§5.1): "our
// implementation stores the current head of the queue – the owner –
// in a field adjacent to the tail, so the lock body size was 2
// words", making the lock usable behind the context-free pthread
// interface (no node passed from lock to unlock); queue nodes are
// cache-line padded ("we also elected to align and pad the MCS and
// CLH queue nodes ... to provide a fair comparison") and recycled
// through the thread-local free stacks of node_pool.hpp (footnote 5).
//
// The Waiting template parameter selects the waiting tier
// (core/waiting.hpp): QueueSpinWaiting is the paper's pure busy-wait
// baseline; the yield/park/governed tiers make the same algorithm
// survive oversubscribed hosts, where a FIFO hand-off to a preempted
// spinner otherwise costs a scheduler timeslice.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/waiting.hpp"
#include "locks/lock_traits.hpp"
#include "locks/node_pool.hpp"
#include "runtime/annotations.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/pause.hpp"

namespace hemlock {

/// MCS queue element. One per (thread, lock-held-or-waited) pair,
/// padded to a cache line so waiters on different nodes never share.
/// Shared across all waiting tiers (the tier only changes how the
/// words are polled/published, never their layout).
struct alignas(kCacheLineSize) McsNode {
  std::atomic<McsNode*> next{nullptr};
  std::atomic<std::uint32_t> locked{0};
  McsNode* pool_next = nullptr;  ///< node_pool intrusive link
};
static_assert(sizeof(McsNode) == kCacheLineSize);

/// Classic MCS lock, 2-word body (tail + head), parameterized over the
/// waiting tier.
template <typename Waiting = QueueSpinWaiting>
class HEMLOCK_CAPABILITY("mutex") McsLockT {
 public:
  McsLockT() = default;
  McsLockT(const McsLockT&) = delete;
  McsLockT& operator=(const McsLockT&) = delete;

  /// Acquire. Uncontended: one SWAP. Contended: enqueue then wait
  /// (per the tier) on the node's own flag.
  void lock() HEMLOCK_ACQUIRE() {
    McsNode* n = NodePool<McsNode>::acquire();
    // mo: relaxed init — the doorstep SWAP below releases these stores
    // to the successor that reads the node through pred->next.
    n->next.store(nullptr, std::memory_order_relaxed);
    n->locked.store(1, std::memory_order_relaxed);
    // mo: doorstep SWAP is acq_rel — release publishes the node's
    // initialization above to the successor that will read it via
    // pred->next; acquire observes the predecessor's publication
    // symmetrically.
    McsNode* pred = tail_.exchange(n, std::memory_order_acq_rel);
    if (pred != nullptr) {
      // In the queue (tail swung) but not yet reachable from the
      // predecessor — the arrival gap unlock's link wait covers.
      HEMLOCK_VERIFY_YIELD("mcs:queued");
      // Make ourselves reachable from the predecessor (waking it if
      // it parked in its unlock-side link wait), then wait for the
      // owner's hand-off on our own (local) flag.
      Waiting::publish(pred->next, n);
      HEMLOCK_VERIFY_YIELD("mcs:linked");
      Waiting::wait_until(n->locked, std::uint32_t{0});
    }
    // head_ is protected by the lock itself (paper §1: such accesses
    // "execute within the effective critical section").
    head_ = n;
  }

  /// Non-blocking attempt (paper §2: "MCS ... allow[s] trivial
  /// implementations of the TryLock operations – using CAS instead
  /// of SWAP").
  bool try_lock() HEMLOCK_TRY_ACQUIRE(true) {
    McsNode* n = NodePool<McsNode>::acquire();
    // mo: relaxed init — the success CAS below releases these stores
    // (failure discards the node, nothing published).
    n->next.store(nullptr, std::memory_order_relaxed);
    n->locked.store(1, std::memory_order_relaxed);
    McsNode* expected = nullptr;
    // mo: acq_rel on success — same pairing as lock()'s doorstep SWAP;
    // relaxed on failure (no acquisition, nothing to order).
    if (tail_.compare_exchange_strong(expected, n, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      head_ = n;
      return true;
    }
    NodePool<McsNode>::release(n);
    return false;
  }

  /// Release. Uncontended: one CAS. Contended: wait for the arriving
  /// successor's back-link, then hand off with a single store (the
  /// non-wait-free window both MCS and Hemlock share, §2).
  void unlock() HEMLOCK_RELEASE() {
    McsNode* n = head_;
    // mo: acquire pairs with the successor's publish of pred->next so
    // its node initialization is visible before we store to it.
    McsNode* succ = n->next.load(std::memory_order_acquire);
    if (succ == nullptr) {
      // No successor observed; one may swing the tail before our CAS.
      HEMLOCK_VERIFY_YIELD("mcs:no-succ");
      McsNode* expected = n;
      // mo: release on success so the next uncontended acquirer (who
      // reads null from the SWAP) sees our critical section; relaxed
      // on failure — the hand-off publish below carries ordering.
      if (tail_.compare_exchange_strong(expected, nullptr,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
        NodePool<McsNode>::release(n);
        return;
      }
      // A successor swapped in but has not linked yet; its store to
      // n->next is imminent (unless it was preempted mid-arrival —
      // the parking tiers sleep through exactly that gap).
      succ = Waiting::wait_while(n->next, static_cast<McsNode*>(nullptr));
    }
    HEMLOCK_VERIFY_YIELD("mcs:handoff");
    Waiting::publish(succ->locked, std::uint32_t{0});
    NodePool<McsNode>::release(n);
  }

 private:
  std::atomic<McsNode*> tail_{nullptr};
  McsNode* head_ = nullptr;  ///< owner's node; valid only while held
};

/// The paper's baseline: pure busy-wait.
using McsLock = McsLockT<QueueSpinWaiting>;
/// Spin-then-yield tier for mildly oversubscribed hosts.
using McsYieldLock = McsLockT<QueueYieldWaiting>;
/// Spin-then-park (futex) tier for heavy oversubscription.
using McsParkLock = McsLockT<SpinThenParkWaiting>;
/// Governor-adaptive tier (spin -> yield -> park as contention grows).
using McsGovernedLock = McsLockT<GovernedWaiting>;

/// One row per waiting tier: "mcs", "mcs-yield", "mcs-park",
/// "mcs-adaptive".
template <typename W>
struct lock_traits<McsLockT<W>> : tiered_traits<"mcs", W> {
  static constexpr std::size_t lock_words = 2;  // tail + head (Table 1)
  static constexpr std::size_t held_words = sizeof(McsNode) / sizeof(void*);
  static constexpr std::size_t wait_words = sizeof(McsNode) / sizeof(void*);
  static constexpr std::size_t thread_words = 0;
  static constexpr bool nontrivial_init = false;
  static constexpr bool is_fifo = true;
  static constexpr bool has_trylock = true;
  static constexpr Spinning spinning = Spinning::kLocal;
};

}  // namespace hemlock
