// mcs_k42.hpp — the K42 variation of the MCS lock.
//
// Discussed in the paper §2.3: "The K42 variation of MCS can recover
// the queue element before returning from lock whereas classic MCS
// recovers the queue element in unlock. That is, under K42, a queue
// element is needed only while waiting but not while the lock is
// held, and as such, queue elements can always be allocated on stack
// ... While appealing, the paths are much more complex and touch more
// cache lines than the classic version, impacting performance."
//
// The lock body doubles as a queue element: `tail_` is the MCS tail
// and `head_` the owner's successor hint. A waiter's element lives on
// its own stack frame and is abandoned before lock() returns. This
// port follows the published K42 algorithm (Auslander et al., US
// 2003/0200457; Scott, Shared-Memory Synchronization Fig. 4.15).
#pragma once

#include <atomic>
#include <cstdint>

#include "locks/lock_traits.hpp"
#include "runtime/annotations.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/pause.hpp"
#include "stats/telemetry.hpp"

namespace hemlock {

/// K42 MCS lock. 2-word body, on-stack waiter elements, element
/// recovered before lock() returns.
class HEMLOCK_CAPABILITY("mutex") McsK42Lock {
 public:
  McsK42Lock() = default;
  McsK42Lock(const McsK42Lock&) = delete;
  McsK42Lock& operator=(const McsK42Lock&) = delete;

  /// Acquire. The on-stack node is dead once lock() returns.
  void lock() HEMLOCK_ACQUIRE() {
    for (;;) {
      // mo: acquire — a non-null tail may be republished by an exiting
      // owner; acquire orders our read of its node fields after that.
      Node* prev = tail_.load(std::memory_order_acquire);
      if (prev == nullptr) {
        // Lock appears free: installing the lock's own pseudo-node as
        // tail marks "held, no waiters". Invariant: whenever tail_ is
        // null, head_ is already null (see unlock), so no stale
        // successor hint survives into this fast path.
        Node* expected = nullptr;
        // mo: acq_rel — acquire pairs with the releasing unlock CAS so
        // the prior critical section is visible; relaxed on failure
        // (the retry loop re-reads tail). Release side orders our
        // pseudo-node install before any successor's linkage.
        if (tail_.compare_exchange_weak(expected, &lock_node_,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
          return;
        }
      } else {
        alignas(kCacheLineSize) Node me;
        // mo: relaxed init — the releasing tail CAS below publishes
        // these fields before any other thread can see &me.
        me.status.store(kWaiting, std::memory_order_relaxed);
        me.next.store(nullptr, std::memory_order_relaxed);
        // mo: acq_rel enqueue — release publishes me.status/me.next;
        // acquire orders our use of prev's fields after its publisher.
        // Relaxed on failure: the outer loop re-reads tail.
        if (tail_.compare_exchange_weak(prev, &me, std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
          telemetry::wl_contended();
          // Queued. Link from predecessor: if prev is the lock's own
          // pseudo-node the owner has no waiters yet and the hand-off
          // hint lives in head_.
          if (prev == &lock_node_) {
            // mo: release link — pairs with the owner's acquire load
            // of head_ in unlock.
            head_.store(&me, std::memory_order_release);
          } else {
            // mo: release link — pairs with the predecessor's acquire
            // load of me.next after it is granted.
            prev->next.store(&me, std::memory_order_release);
          }
          // mo: acquire poll — pairs with unlock's kGranted release
          // store; the previous critical section happens-before us.
          while (me.status.load(std::memory_order_acquire) == kWaiting) {
            cpu_relax();
          }
          // We own the lock. Recover the element before returning:
          // transplant the successor hint into the lock body.
          // mo: acquire — pairs with the successor's release link,
          // ordering our reads of the successor node after its init.
          Node* succ = me.next.load(std::memory_order_acquire);
          if (succ == nullptr) {
            // mo: relaxed — we own the lock; head_ is only read by the
            // owner (unlock) until we publish a successor.
            head_.store(nullptr, std::memory_order_relaxed);
            Node* expected = &me;
            // mo: acq_rel — on success, release retires `me` from the
            // queue before the frame dies; relaxed failure is fine
            // (the acquire re-read of me.next below synchronizes).
            if (!tail_.compare_exchange_strong(expected, &lock_node_,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
              // Somebody appended behind us; wait for the link.
              // mo: acquire — as the me.next load above.
              while ((succ = me.next.load(std::memory_order_acquire)) ==
                     nullptr) {
                cpu_relax();
              }
              // mo: release — transplant the hint; pairs with unlock's
              // acquire head_ load (possibly by a later owner).
              head_.store(succ, std::memory_order_release);
            }
          } else {
            // mo: release — as the transplant store above.
            head_.store(succ, std::memory_order_release);
          }
          return;  // `me` is dead; nobody holds a reference to it
        }
      }
    }
  }

  /// Non-blocking attempt.
  bool try_lock() HEMLOCK_TRY_ACQUIRE(true) {
    Node* expected = nullptr;
    // mo: acq_rel — same pairing as the lock() fast path; relaxed on
    // failure, no state was read.
    return tail_.compare_exchange_strong(expected, &lock_node_,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed);
  }

  /// Release.
  void unlock() HEMLOCK_RELEASE() {
    // mo: acquire — pairs with a waiter's release link into head_ so
    // we read the successor's initialized node.
    Node* succ = head_.load(std::memory_order_acquire);
    if (succ == nullptr) {
      Node* expected = &lock_node_;
      // mo: release hand-off — the critical section happens-before
      // the next acquirer's acquire CAS on tail_; relaxed on failure
      // (the head_ re-poll below synchronizes instead).
      if (tail_.compare_exchange_strong(expected, nullptr,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
        return;  // head_ was already null — fast-path invariant holds
      }
      // A waiter swapped in but has not linked through head_ yet.
      // mo: acquire — as the head_ load above.
      while ((succ = head_.load(std::memory_order_acquire)) == nullptr) {
        cpu_relax();
      }
    }
    // mo: relaxed — only the owner touches head_ between hand-offs;
    // the kGranted release below publishes it to the successor.
    head_.store(nullptr, std::memory_order_relaxed);
    // mo: release hand-off — critical section happens-before the
    // successor's acquire poll of its status word.
    succ->status.store(kGranted, std::memory_order_release);
  }

 private:
  struct Node {
    std::atomic<Node*> next{nullptr};
    std::atomic<std::uint32_t> status{0};
  };

  static constexpr std::uint32_t kWaiting = 1;
  static constexpr std::uint32_t kGranted = 0;

  std::atomic<Node*> tail_{nullptr};
  std::atomic<Node*> head_{nullptr};  ///< owner's successor hint
  Node lock_node_;  ///< pseudo-node standing in for the owner
};

template <>
struct lock_traits<McsK42Lock> {
  static constexpr const char* name = "mcs-k42";
  static constexpr std::size_t lock_words = 4;  // tail + head + 2-word pseudo-node
  static constexpr std::size_t held_words = 0;   // element recovered in lock()
  static constexpr std::size_t wait_words = 2;   // on-stack node while waiting
  static constexpr std::size_t thread_words = 0;
  static constexpr bool nontrivial_init = false;
  static constexpr bool is_fifo = true;
  static constexpr bool has_trylock = true;
  static constexpr Spinning spinning = Spinning::kLocal;
};

}  // namespace hemlock
