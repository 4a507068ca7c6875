// clh.hpp — CLH queue lock (Craig; Landin & Hagersten), standard
// interface variant.
//
// Matches the paper's baseline (§5.1): "CLH based on Scott's CLH
// variant with a standard interface, Figure 4.14 of [50]" — the head
// (owner's node) is stored in the lock body so no context passes from
// lock to unlock; the lock is pre-initialized with a dummy node that
// must be recovered at destruction (Table 1's Init column), and nodes
// *migrate*: on acquisition a thread reclaims its predecessor's node
// for its own future use (§2.3: "a thread contributes an element but
// ... recovers a different element from the queue – elements migrate
// between locks and threads").
//
// The Waiting template parameter selects the waiting tier
// (core/waiting.hpp); QueueSpinWaiting is the paper's pure busy-wait
// baseline, the yield/park/governed tiers survive oversubscription.
// Tiers are a per-lock-instance property: a migrated node's flag is
// always polled and published by parties of the same lock, so mixing
// tiers across locks sharing the node pool is safe.
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

/// CLH queue element: a single flag, padded to a line. `locked`
/// transitions true -> false exactly once per enqueue epoch.
struct alignas(kCacheLineSize) ClhNode {
  std::atomic<std::uint32_t> locked{0};
  ClhNode* pool_next = nullptr;  ///< node_pool intrusive link
};
static_assert(sizeof(ClhNode) == kCacheLineSize);

/// CLH lock, 2-word body (tail + head) plus the resident dummy
/// element (Table 1 row "CLH": Lock = 2+E, Init = yes), parameterized
/// over the waiting tier.
template <typename Waiting = QueueSpinWaiting>
class HEMLOCK_CAPABILITY("mutex") ClhLockT {
 public:
  /// Provision the required dummy element (unlocked state).
  ClhLockT() {
    ClhNode* dummy = NodePool<ClhNode>::acquire();
    // mo: relaxed — construction precedes any concurrent use; the
    // caller publishes the lock object itself.
    dummy->locked.store(0, std::memory_order_relaxed);
    tail_.store(dummy, std::memory_order_relaxed);
  }

  /// Recover the current dummy element (paper: "When the lock is
  /// ultimately destroyed, the element must be recovered").
  ~ClhLockT() {
    // mo: relaxed — destruction requires the lock unheld and
    // unawaited, so no concurrent access remains to order against.
    ClhNode* dummy = tail_.load(std::memory_order_relaxed);
    if (dummy != nullptr) NodePool<ClhNode>::release(dummy);
  }

  ClhLockT(const ClhLockT&) = delete;
  ClhLockT& operator=(const ClhLockT&) = delete;

  /// Acquire. Uncontended: SWAP + one (satisfied) load. Contended:
  /// wait (per the tier) on the predecessor's node — local waiting,
  /// the element is not shared with any other waiter.
  void lock() HEMLOCK_ACQUIRE() {
    ClhNode* n = NodePool<ClhNode>::acquire();
    // mo: relaxed init — the doorstep SWAP below releases locked=1 to
    // the successor that will wait on it.
    n->locked.store(1, std::memory_order_relaxed);
    // mo: doorstep SWAP is acq_rel — release publishes our node's
    // locked=1; acquire observes the predecessor's publication.
    ClhNode* pred = tail_.exchange(n, std::memory_order_acq_rel);
    // Enqueued (tail swung to our node) but not yet waiting on the
    // predecessor's flag.
    HEMLOCK_VERIFY_YIELD("clh:queued");
    Waiting::wait_until(pred->locked, std::uint32_t{0});
    // Acquired. The predecessor's element now belongs to us (node
    // migration); keep it for a future acquisition.
    NodePool<ClhNode>::release(pred);
    head_ = n;  // protected by the lock itself
  }

  /// Release: a single store (paper §4: "the unlock operator for CLH
  /// and Tickets is wait-free") — plus, for the parking tiers, the
  /// census-gated wake folded into publish(). Our node is inherited
  /// by the successor (or becomes the lock's dummy if none).
  void unlock() HEMLOCK_RELEASE() {
    ClhNode* n = head_;
    HEMLOCK_VERIFY_YIELD("clh:handoff");
    Waiting::publish(n->locked, std::uint32_t{0});
  }

 private:
  std::atomic<ClhNode*> tail_;
  ClhNode* head_ = nullptr;  ///< owner's node; valid only while held
};

/// The paper's baseline: pure busy-wait.
using ClhLock = ClhLockT<QueueSpinWaiting>;
/// Spin-then-yield tier for mildly oversubscribed hosts.
using ClhYieldLock = ClhLockT<QueueYieldWaiting>;
/// Spin-then-park (futex) tier for heavy oversubscription.
using ClhParkLock = ClhLockT<SpinThenParkWaiting>;
/// Governor-adaptive tier (spin -> yield -> park as contention grows).
using ClhGovernedLock = ClhLockT<GovernedWaiting>;

/// One row per waiting tier: "clh", "clh-yield", "clh-park",
/// "clh-adaptive".
template <typename W>
struct lock_traits<ClhLockT<W>> : tiered_traits<"clh", W> {
  // Table 1: lock body = 2 words + resident dummy element E.
  static constexpr std::size_t lock_words =
      2 + sizeof(ClhNode) / sizeof(void*);
  static constexpr std::size_t held_words = 0;  // Table 1: Held = 0
  static constexpr std::size_t wait_words = sizeof(ClhNode) / sizeof(void*);
  static constexpr std::size_t thread_words = 0;
  static constexpr bool nontrivial_init = true;  // dummy provision/recovery
  static constexpr bool is_fifo = true;
  static constexpr bool has_trylock = false;  // paper §2: CLH does not
  static constexpr Spinning spinning = Spinning::kLocal;
};

}  // namespace hemlock
