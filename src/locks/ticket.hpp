// ticket.hpp — classic Ticket Lock.
//
// Baseline from the paper (§1, §5): "Ticket Locks are simple and
// compact, requiring just two words for each lock instance and no
// per-thread data. They perform well in the absence of contention
// ... Under contention, however, performance suffers because all
// threads contending for a given lock will busy-wait on a central
// location." FIFO; uncontended acquire is one fetch-and-add and
// uncontended release a plain store (Table: atomic counts, §2).
//
// The Waiting template parameter selects the waiting tier
// (core/waiting.hpp). All waiters share the now-serving word (global
// spinning), but each knows the exact ticket value it awaits, so the
// parking tiers sleep on a per-(lock, ticket) slot of the global
// ticket ring (queue_wait::ticket_slot) rather than on the shared
// word: a release wakes only the front waiter's slot instead of the
// whole herd (which previously re-parked N-1 sleepers per hand-off).
// Spin and yield tiers are untouched — they never sleep.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/waiting.hpp"
#include "locks/lock_traits.hpp"
#include "runtime/annotations.hpp"
#include "runtime/pause.hpp"

namespace hemlock {

/// Classic two-word ticket lock (dispenser + now-serving),
/// parameterized over the waiting tier.
template <typename Waiting = QueueSpinWaiting>
class HEMLOCK_CAPABILITY("mutex") TicketLockT {
 public:
  /// Acquire: draw a ticket, wait until it is served (global
  /// waiting — every waiter polls now_serving_; parking tiers sleep
  /// on their ticket's own ring slot, see wait_ticket).
  void lock() noexcept HEMLOCK_ACQUIRE() {
    // mo: relaxed draw — the ticket value itself carries no payload;
    // the wait on now_serving_ below supplies acquire ordering.
    const std::uint64_t my = next_.fetch_add(1, std::memory_order_relaxed);
    // Ticket drawn, not yet polling now-serving: the release that
    // serves us may land entirely inside this window.
    HEMLOCK_VERIFY_YIELD("ticket:drawn");
    if constexpr (requires { Waiting::wait_ticket(now_serving_, my); }) {
      Waiting::wait_ticket(now_serving_, my);
    } else {
      Waiting::wait_until(now_serving_, my);
    }
  }

  /// Opportunistic non-blocking attempt: succeeds only when no ticket
  /// is outstanding. NOTE: the paper (§2) observes Ticket Locks do
  /// not admit a *trivial* try_lock via CAS-instead-of-SWAP the way
  /// MCS/Hemlock do; this CAS-on-dispenser form is a documented
  /// extension and preserves correctness (it never draws a ticket it
  /// cannot immediately use).
  bool try_lock() noexcept HEMLOCK_TRY_ACQUIRE(true) {
    // mo: acquire on now_serving_ — the previous owner's unlock
    // released *this* word, not next_, so a successful attempt must
    // observe it with acquire to carry that critical section's writes
    // (a relaxed load here is a genuine — TSan-visible — race with
    // the next CS).
    std::uint64_t served = now_serving_.load(std::memory_order_acquire);
    std::uint64_t expected = served;
    // mo: acquire on success backstops the load above (the CAS may
    // observe a newer dispenser value); relaxed on failure — no
    // acquisition, nothing to order.
    return next_.compare_exchange_strong(expected, served + 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  /// Release: advance now-serving (a wait-free store; the paper notes
  /// Ticket/CLH unlock is wait-free, unlike MCS/Hemlock). The parking
  /// tiers wake only the served ticket's ring slot via publish_ticket.
  void unlock() noexcept HEMLOCK_RELEASE() {
    // mo: relaxed — only the owner writes now_serving_, so our own
    // prior store (or the init value) is all this load can see; the
    // publish below carries release ordering to the next owner.
    const std::uint64_t next =
        now_serving_.load(std::memory_order_relaxed) + 1;
    HEMLOCK_VERIFY_YIELD("ticket:serve");
    if constexpr (requires { Waiting::publish_ticket(now_serving_, next); }) {
      Waiting::publish_ticket(now_serving_, next);
    } else {
      Waiting::publish(now_serving_, next);
    }
  }

 private:
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> now_serving_{0};
};

/// The paper's baseline: pure busy-wait.
using TicketLock = TicketLockT<QueueSpinWaiting>;
/// Spin-then-yield tier for mildly oversubscribed hosts.
using TicketYieldLock = TicketLockT<QueueYieldWaiting>;
/// Spin-then-park (futex) tier for heavy oversubscription.
using TicketParkLock = TicketLockT<SpinThenParkWaiting>;
/// Governor-adaptive tier (spin -> yield -> park as contention grows).
using TicketGovernedLock = TicketLockT<GovernedWaiting>;

/// One row per waiting tier: "ticket", "ticket-yield", "ticket-park",
/// "ticket-adaptive".
template <typename W>
struct lock_traits<TicketLockT<W>> : tiered_traits<"ticket", W> {
  static constexpr std::size_t lock_words = 2;  // Table 1: Lock = 2
  static constexpr std::size_t held_words = 0;
  static constexpr std::size_t wait_words = 0;
  static constexpr std::size_t thread_words = 0;
  static constexpr bool nontrivial_init = false;
  static constexpr bool is_fifo = true;
  static constexpr bool has_trylock = true;  // extension, see try_lock()
  static constexpr Spinning spinning = Spinning::kGlobal;
};

}  // namespace hemlock
