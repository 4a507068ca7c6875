// waiting.hpp — the waiting engine: how a contender waits on a word.
//
// Every lock in the roster waits through one engine, chosen along two
// axes:
//
//  * A *tier* paces the wait. QueueSpinWaiting busy-waits forever (the
//    paper's §5.1 configuration). The escalating tiers spin a free
//    doorstep, then run rounds their round rule picks: always yield
//    (QueueYieldWaiting), a few yields then a futex park
//    (SpinThenParkWaiting — Appendix C's "wait politely ... via
//    constructs such as WaitOnAddress"), or whatever the
//    ContentionGovernor recommends (GovernedWaiting).
//  * A *poll* takes one look at the word. The queue locks (MCS, CLH,
//    Ticket, Anderson, the rwlock gate) poll with an acquire load.
//    Hemlock's Grant mailbox takes the paper's Coherence Traffic
//    Reduction choice (§2.1): Listing 1's load then a clearing store
//    (LoadPoll), Listing 2's CAS, whose success *is* the clear
//    (CasPoll), or fetch-and-add of 0 then the store (FaaPoll). An RMW
//    poll holds the line in M-state, so the hand-over needs no S->M
//    upgrade.
//
// GrantWaiting<Poll, Tier> composes the two for the Hemlock family; the
// paper's configurations are its spin-tier rows. A new waiting behavior
// is a poll shape or a tier, never a new policy struct. "Back-off in
// the busy-waiting loop is not useful" (§2.1) holds on dedicated cores;
// the escalating tiers exist for the regime where it does not — more
// runnable threads than cores, where a FIFO hand-off to a preempted
// spinner costs a scheduler timeslice.
//
// Tier interface (all static):
//   wait(w, poll, done, count): block until poll(v) succeeds; return
//       the v it saw. `done` is the same test as a pure predicate on a
//       loaded value (park rounds re-check with it). With `count`, a
//       wait whose first poll fails is tallied contended — the one
//       place a queue wait is counted.
//   wait_until(w, expected[, count]) / wait_while(w, unwanted): the
//       queue locks' load-polled waits (WordWaits).
//   publish(w, value): the hand-off store (release); the parking tiers
//       fold in a census-gated futex wake.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "core/verify_hooks.hpp"
#include "runtime/futex.hpp"
#include "runtime/governor.hpp"
#include "runtime/pause.hpp"
#include "runtime/thread_rec.hpp"
#include "stats/telemetry.hpp"

namespace hemlock {

/// Sleep bound for futex parks on 8-byte words (Grant words, queue
/// nodes, tickets). The kernel compares only the low 32 bits, so a
/// publish whose value aliases the parked snapshot's low half passes
/// that compare and its wake can land before the sleep begins; the
/// bound turns that lost-wakeup deadlock into one re-check. 2 ms is
/// free against real contended hand-off latencies.
inline constexpr std::int64_t kWideWordParkNanos = 2000000;

namespace queue_wait {

#if defined(HEMLOCK_VERIFY)
/// Verify builds compress the budgets: every loop iteration is a
/// schedule point to the interleaving enumerator, so a 1024-spin
/// doorstep (or four yield rounds) would spend the whole bounded depth
/// on equivalent polls before any park became reachable.
inline constexpr std::uint32_t kDoorstepSpins = 4;
inline constexpr std::uint32_t kChunkSpins = 2;
inline constexpr std::uint32_t kYieldsBeforePark = 1;
#else
/// Spins of the free doorstep every escalating tier performs: fast
/// hand-offs (the common case on non-oversubscribed hosts) never reach
/// a yield or a syscall.
inline constexpr std::uint32_t kDoorstepSpins = 1024;
/// Spin chunk between tier re-evaluations once escalated.
inline constexpr std::uint32_t kChunkSpins = 256;
/// Yield rounds the park tier performs before sleeping (cheap second
/// chances around a preempted publisher).
inline constexpr std::uint32_t kYieldsBeforePark = 4;
#endif

/// The waited word's low 32 bits — the futex-comparable view.
template <typename T>
inline std::uint32_t low_word(T v) noexcept {
  if constexpr (std::is_pointer_v<T>) {
    return static_cast<std::uint32_t>(reinterpret_cast<std::uintptr_t>(v));
  } else {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(v));
  }
}

/// The futex word overlaying the waited atomic (its low half for
/// 8-byte words). Hand-off mutations normally change the low half —
/// flags toggle 0/1, tickets increment, pointers go null -> non-null
/// — but a published pointer *can* alias the snapshot's low 32 bits
/// (e.g. a 4 GiB-aligned queue node), so 8-byte parks are bounded by
/// kWideWordParkNanos rather than trusting the kernel's compare.
template <typename T>
inline std::atomic<std::uint32_t>* futex_word(std::atomic<T>& w) noexcept {
  static_assert(std::atomic<T>::is_always_lock_free);
  static_assert(sizeof(std::atomic<T>) == sizeof(T));
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  if constexpr (sizeof(T) == 8) {
    static_assert(std::endian::native == std::endian::little,
                  "futex word overlay assumes little-endian layout");
  }
  return reinterpret_cast<std::atomic<std::uint32_t>*>(&w);
}

/// The queue locks' poll: an acquire load tested against `done`.
template <typename T, typename Done>
inline auto load_poll(std::atomic<T>& w, const Done& done) noexcept {
  return [&w, &done](T& v) {
    // mo: acquire poll pairs with the hand-off store's release, so the
    // observation that ends a wait carries the publisher's critical
    // section.
    v = w.load(std::memory_order_acquire);
    return done(v);
  };
}

// ---------------------------------------------------------------------
// Per-slot parking ring for exact-value waits (the ticket shape).
//
// Every ticket waiter polls the one now-serving word, so sleeping there
// makes every release wake *every* sleeper — N-1 of which immediately
// re-park (the thundering herd of parked ticket locks). A ticket waiter
// knows the exact value it awaits, so it sleeps on a slot of a small
// global ring of generation-counted futex words keyed by (word address,
// awaited value), and a release wakes only the slot of the ticket it
// served (plus rare hash collisions, which re-check and re-park).
// ---------------------------------------------------------------------

/// Slots in the process-wide ticket-parking ring. Collisions are
/// correctness-neutral, so the ring only needs to make them rare across
/// the handful of hot parked ticket locks a process runs.
inline constexpr std::size_t kTicketRingSlots = 256;

/// The ring: generation counters bumped by every publish that targets
/// the slot. Sleepers snapshot the generation before re-checking their
/// predicate; the kernel's compare against that snapshot closes the
/// publish-vs-sleep race exactly as it does for direct word parks.
inline std::atomic<std::uint32_t> g_ticket_ring[kTicketRingSlots];

/// The ring slot for value `v` awaited on the word at `addr`.
template <typename T>
inline std::atomic<std::uint32_t>& ticket_slot(const void* addr,
                                               T v) noexcept {
  auto a = reinterpret_cast<std::uintptr_t>(addr) >> 3;
  const auto mix = static_cast<std::uintptr_t>(
      static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ULL);
  const std::uintptr_t h = (a ^ (a >> 7)) + mix;
  return g_ticket_ring[static_cast<std::size_t>(h ^ (h >> 11)) &
                       (kTicketRingSlots - 1)];
}

/// The end of a park round, once the re-check under the census has
/// decided: sleep on `word` while it still reads `seen`, or — the
/// condition already holds — record the return-to-baseline retry.
inline void sleep_or_retry(ContentionGovernor& gov, bool sleep,
                           std::atomic<std::uint32_t>* word,
                           std::uint32_t seen, bool bounded) noexcept {
  auto& d = gov.diag();
  if (!sleep) {
    // mo: relaxed — diagnostic retry tally (ParkDiag).
    d.baseline_retries.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // mo: relaxed — diagnostic sleep tally (ParkDiag).
  d.park_sleeps.fetch_add(1, std::memory_order_relaxed);
  HEMLOCK_TM_PARK();
  if (bounded) {
    futex_wait_for(word, seen, kWideWordParkNanos);
  } else {
    futex_wait(word, seen);
  }
  // mo: relaxed — diagnostic wakeup tally (ParkDiag).
  d.park_wakeups.fetch_add(1, std::memory_order_relaxed);
}

/// One parking round: announce the parked intent, re-check the word
/// behind a seq_cst fence (the Dekker handshake with wake_parked()'s
/// store-fence-read of the parked census), then sleep. The kernel's
/// own compare of the futex word against `seen` closes the remaining
/// window; spurious returns are absorbed by the engine's loop.
template <typename T, typename Done>
inline void park_round(std::atomic<T>& w, const Done& done) noexcept {
  // mo: acquire snapshot — pairs with the publisher's release store.
  const T seen = w.load(std::memory_order_acquire);
  if (done(seen)) return;
  auto& gov = ContentionGovernor::instance();
  gov.begin_park(&w);
  // mo: seq_cst fence — Dekker handshake with wake_parked's
  // store-fence-census sequence: either the publisher sees our park
  // registration and wakes, or we re-read its published value here.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // 8-byte words may alias in their low half (an MCS successor node at
  // a 4 GiB-aligned address, a ticket 2^32 hand-offs later): bounded.
  // mo: relaxed re-check — ordered by the fence above.
  sleep_or_retry(gov, w.load(std::memory_order_relaxed) == seen,
                 futex_word(w), low_word(seen), sizeof(T) == 8);
  gov.end_park(&w);
}

/// One parking round on the ring slot keyed by (w, expected). The
/// generation snapshot plays the role the word's value plays in
/// park_round: a publisher bumps the generation (a seq_cst RMW — also
/// the Dekker fence against the parked census) strictly after storing
/// the serving word, so a sleeper either reads the bumped generation
/// (and its predicate re-check then sees the store) or is refused by
/// the kernel's compare. Sleeps are bounded anyway: a 2^32-generation
/// wrap in one descheduled window is the wide-word alias hazard again.
template <typename T, typename Done>
inline void park_round_slotted(std::atomic<T>& w, T expected,
                               const Done& done) noexcept {
  auto& slot = ticket_slot(&w, expected);
  // mo: acquire generation snapshot — taken before the predicate
  // check so a publish between them bumps past `gen` and the kernel
  // refuses the sleep.
  const std::uint32_t gen = slot.load(std::memory_order_acquire);
  if (done(w.load(std::memory_order_acquire))) return;  // mo: as above
  auto& gov = ContentionGovernor::instance();
  gov.begin_park(&slot);
  // mo: seq_cst fence — Dekker handshake with the publisher's seq_cst
  // generation bump + census read: either it sees our park
  // registration and wakes, or we re-read its published value here.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // mo: relaxed re-check — the fence above already orders it.
  sleep_or_retry(gov, !done(w.load(std::memory_order_relaxed)), &slot, gen,
                 true);
  gov.end_park(&slot);
}

/// The escalating loop every tier above spin shares. `poll(v)` takes
/// one look at the word, leaving what it saw in v, and returns true
/// when the wait is over — a CAS poll has then also consumed the word,
/// so one CAS serves as doorstep and escalated poll alike. The doorstep
/// polls kDoorstepSpins times for free; then come rounds whose behavior
/// `Rule::tier(round)` selects, with `park_once` supplying the park
/// round (park_round on the word, or the ticket ring's slotted one).
/// Escalated rounds are registered with the governor's waiter census
/// (that census *is* the oversubscription signal classify() consumes).
/// With `count`, a wait whose first poll fails is tallied contended.
template <typename Rule, typename T, typename Poll, typename ParkFn>
inline T wait_escalating_with(const Poll& poll, const ParkFn& park_once,
                              bool count) noexcept {
  T v{};
  for (std::uint32_t i = 0; i < kDoorstepSpins; ++i) {
    if (poll(v)) return v;
    if (count && i == 0) HEMLOCK_TM_CONTENDED();
    cpu_relax();
    HEMLOCK_VERIFY_YIELD("queue:doorstep");
  }
  auto& gov = ContentionGovernor::instance();
  gov.begin_wait();
  // Tier-transition tracking: the doorstep counts as kSpin, so a wait
  // whose first escalated round already yields/parks records one
  // transition, and a governed wait flapping between tiers records
  // each flap (that instability is what the diagnostic exposes).
  WaitTier prev_tier = WaitTier::kSpin;
  for (std::uint64_t round = 0;; ++round) {
    const WaitTier round_tier = Rule::tier(round);
    if (round_tier != prev_tier) {
      prev_tier = round_tier;
      // mo: relaxed — diagnostic escalation tally (ParkDiag).
      gov.diag().escalations.fetch_add(1, std::memory_order_relaxed);
      HEMLOCK_TM_ESCALATE();
    }
    bool got = false;
    switch (round_tier) {
      case WaitTier::kSpin:
        for (std::uint32_t i = 0; i < kChunkSpins && !got; ++i) {
          cpu_relax();
          HEMLOCK_VERIFY_YIELD("queue:spin");
          got = poll(v);
        }
        break;
      case WaitTier::kYield:
        cpu_yield();
        HEMLOCK_VERIFY_YIELD("queue:yield");
        got = poll(v);
        break;
      case WaitTier::kPark:
        park_once();
        got = poll(v);
        break;
    }
    if (got) {
      gov.end_wait();
      return v;
    }
  }
}

/// The wake half of a parking hand-off, after the caller's Dekker
/// fence: the syscall is skipped whenever nobody is parked on the
/// census bucket of `addr` (per-lock, so an unrelated lock's sleepers
/// do not tax this lock's hand-offs).
inline void wake_if_parked(const void* addr,
                           std::atomic<std::uint32_t>* word) noexcept {
  auto& gov = ContentionGovernor::instance();
  if (gov.parked(addr) != 0) {
    // mo: relaxed — diagnostic syscall tally (ParkDiag).
    gov.diag().wake_syscalls.fetch_add(1, std::memory_order_relaxed);
    HEMLOCK_TM_WAKE();
    futex_wake_all(word);
  } else {
    // mo: relaxed — diagnostic gate-skip tally (ParkDiag).
    gov.diag().wake_gate_skips.fetch_add(1, std::memory_order_relaxed);
  }
}

/// The parking tiers' wake after a hand-off mutation of `w`.
template <typename T>
inline void wake_parked(std::atomic<T>& w) noexcept {
  // mo: seq_cst fence — Dekker with park_round's fence: either we see
  // the parked census and wake, or the parker re-reads our store and
  // never sleeps.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  wake_if_parked(&w, futex_word(w));
}

/// Hand-off store for the parking tiers: release, then wake sleepers.
template <typename T>
inline void publish_and_wake(std::atomic<T>& w, T value) noexcept {
  // mo: release hand-off store — waiters' acquire polls pair here.
  w.store(value, std::memory_order_release);
  // The value is visible but the wake has not happened: a parked
  // waiter resumed here must cope with seeing the store early.
  HEMLOCK_VERIFY_YIELD("queue:published");
  wake_parked(w);
}

/// Hand-off store for slotted (exact-value) waiters: release the
/// value, bump its slot's generation (the RMW is the Dekker fence),
/// then wake that slot only — the front waiter, not the herd.
template <typename T>
inline void publish_and_wake_slotted(std::atomic<T>& w, T value) noexcept {
  // mo: release hand-off store — waiters' acquire polls pair here.
  w.store(value, std::memory_order_release);
  // Serving word published, slot generation not yet bumped — the
  // window the slotted Dekker handshake exists to close.
  HEMLOCK_VERIFY_YIELD("queue:published");
  auto& slot = ticket_slot(&w, value);
  // mo: seq_cst generation bump — the RMW doubles as the Dekker fence
  // against park_round_slotted's fence + census registration.
  slot.fetch_add(1, std::memory_order_seq_cst);
  wake_if_parked(&slot, &slot);
}

}  // namespace queue_wait

// ======================================================================
// Tiers.
// ======================================================================

/// The queue locks' word waits over a tier's wait(), polled by acquire
/// loads. wait_until is an acquire-side wait — counted when its first
/// poll fails — unless the caller is a drain (`count` false);
/// wait_while serves MCS's unlock-side successor link and never counts.
template <typename Tier>
struct WordWaits {
  template <typename T>
  static void wait_until(std::atomic<T>& w, T expected,
                         bool count = true) noexcept {
    const auto done = [expected](T v) { return v == expected; };
    (void)Tier::wait(w, queue_wait::load_poll(w, done), done, count);
  }

  template <typename T>
  static T wait_while(std::atomic<T>& w, T unwanted) noexcept {
    const auto done = [unwanted](T v) { return v != unwanted; };
    return Tier::wait(w, queue_wait::load_poll(w, done), done, false);
  }
};

/// Pure busy-waiting — the paper's §5.1 baseline configuration and the
/// default tier everywhere: a bare poll loop, exempt from the governor
/// census so the measured configurations carry zero added cost.
struct QueueSpinWaiting : WordWaits<QueueSpinWaiting> {
  static constexpr const char* name = "spin";
  static constexpr bool oversub_safe = false;
  static constexpr bool escalates = false;
  /// Waiters never sleep — publishers need no wake consideration.
  static constexpr bool may_park = false;

  template <typename T, typename Poll, typename Done>
  static T wait(std::atomic<T>&, const Poll& poll, const Done&,
                bool count) noexcept {
    T v{};
    if (poll(v)) return v;
    if (count) HEMLOCK_TM_CONTENDED();
    do {
      cpu_relax();
      HEMLOCK_VERIFY_YIELD("queue:spin");
    } while (!poll(v));
    return v;
  }

  template <typename T>
  static void publish(std::atomic<T>& w, T value) noexcept {
    // mo: release hand-off — waiters' acquire polls pair here; no
    // sleepers under this tier, so no wake or fence.
    w.store(value, std::memory_order_release);
  }
};

/// An escalating tier: the doorstep, then rounds chosen by `Rule`
/// (name, may_park, tier(round)). The three tiers below differ only in
/// that rule.
template <typename Rule>
struct EscalatingWaiting : WordWaits<EscalatingWaiting<Rule>> {
  static constexpr const char* name = Rule::name;
  static constexpr bool oversub_safe = true;
  static constexpr bool escalates = true;
  static constexpr bool may_park = Rule::may_park;

  template <typename T, typename Poll, typename Done>
  static T wait(std::atomic<T>& w, const Poll& poll, const Done& done,
                bool count) noexcept {
    return queue_wait::wait_escalating_with<Rule, T>(
        poll, [&] { queue_wait::park_round(w, done); }, count);
  }

  template <typename T>
  static void publish(std::atomic<T>& w, T value) noexcept {
    if constexpr (may_park) {
      queue_wait::publish_and_wake(w, value);
    } else {
      // mo: release hand-off — waiters' acquire polls pair here; no
      // sleepers under this tier, so no wake or fence.
      w.store(value, std::memory_order_release);
    }
  }

  /// Exact-value wait on a globally-shared word (ticket shape): park
  /// rounds sleep on the (word, value) ring slot, so a hand-off wakes
  /// only the waiter it serves instead of the whole herd.
  template <typename T>
  static void wait_ticket(std::atomic<T>& w, T expected) noexcept
    requires(Rule::may_park) {
    const auto done = [expected](T v) { return v == expected; };
    (void)queue_wait::wait_escalating_with<Rule, T>(
        queue_wait::load_poll(w, done),
        [&] { queue_wait::park_round_slotted(w, expected, done); }, true);
  }

  /// The matching hand-off store: wake the published value's slot only.
  template <typename T>
  static void publish_ticket(std::atomic<T>& w, T value) noexcept
    requires(Rule::may_park) {
    queue_wait::publish_and_wake_slotted(w, value);
  }
};

namespace queue_wait {

/// Yield every round: survives oversubscription (waiters surrender
/// their timeslice to whoever holds the lock) without ever paying a
/// futex syscall.
struct YieldRounds {
  static constexpr const char* name = "yield";
  static constexpr bool may_park = false;
  static WaitTier tier(std::uint64_t) noexcept { return WaitTier::kYield; }
};

/// A few yield rounds, then futex park — Appendix C's polite waiting.
/// It diverges from the paper's no-backoff guidance (§2.1) by design:
/// a wake syscall per contended hand-off buys bounded latency when
/// threads outnumber cores.
struct ParkRounds {
  static constexpr const char* name = "park";
  static constexpr bool may_park = true;
  static WaitTier tier(std::uint64_t round) noexcept {
    return round < kYieldsBeforePark ? WaitTier::kYield : WaitTier::kPark;
  }
};

/// Ask the ContentionGovernor every round, so the same lock spins on
/// dedicated cores, yields under mild oversubscription and parks under
/// heavy oversubscription — Dhoked & Mittal's observation that the
/// waiting strategy should follow *observed* contention rather than a
/// compile-time choice.
struct GovernedRounds {
  static constexpr const char* name = "adaptive";
  static constexpr bool may_park = true;
  static WaitTier tier(std::uint64_t) noexcept {
    return ContentionGovernor::instance().tier();
  }
};

}  // namespace queue_wait

using QueueYieldWaiting = EscalatingWaiting<queue_wait::YieldRounds>;
using SpinThenParkWaiting = EscalatingWaiting<queue_wait::ParkRounds>;
/// What the interposition shim hosts for bare lock names when
/// HEMLOCK_WAIT is unset.
using GovernedWaiting = EscalatingWaiting<queue_wait::GovernedRounds>;

// ======================================================================
// Grant polls and the Hemlock adapter.
// ======================================================================

/// Listing 1: plain-load polling ("Hemlock-" in the figures); the clear
/// is a separate store after the observation.
struct LoadPoll {
  static constexpr const char* name = "load";
  static constexpr bool consumes = false;
  using Drain = LoadPoll;

  template <typename T>
  static bool poll(std::atomic<T>& w, T expect, T& seen) noexcept {
    // mo: acquire poll pairs with publish's release, carrying the
    // predecessor's critical section.
    seen = w.load(std::memory_order_acquire);
    return seen == expect;
  }
};

/// §2.1's fetch-and-add of 0 (LOCK:XADD on x86): "we simply replace the
/// load instruction in the traditional busy-wait loop with fetch-and-add
/// of 0"; the clear is still a store.
struct FaaPoll {
  static constexpr const char* name = "ctr-faa";
  static constexpr bool consumes = false;
  using Drain = FaaPoll;

  template <typename T>
  static bool poll(std::atomic<T>& w, T expect, T& seen) noexcept {
    // mo: acquire FAA(0) poll pairs with publish's release (and, as a
    // drain, with the successor's release ack).
    seen = w.fetch_add(0, std::memory_order_acquire);
    return seen == expect;
  }
};

/// Listing 2 line 9: CAS polling — a failed CAS still acquires the line
/// in M-state, and the successful one is the clear itself. Its drain is
/// FAA(0) (line 15: the Grant word "will be written by that same thread
/// in subsequent unlock operations").
struct CasPoll {
  static constexpr const char* name = "ctr-cas";
  static constexpr bool consumes = true;
  using Drain = FaaPoll;

  static bool poll(std::atomic<GrantWord>& g, GrantWord expect,
                   GrantWord& seen) noexcept {
    seen = expect;
    // mo: acq_rel consume — acquire pairs with publish's release
    // (carrying the critical section), release makes the clear visible
    // to the predecessor's drain; relaxed on failure (the CTR poll is
    // just a read-with-intent-to-write).
    return g.compare_exchange_weak(seen, kGrantEmpty,
                                   std::memory_order_acq_rel,
                                   std::memory_order_relaxed);
  }
};

/// A Hemlock Grant-word policy: Poll reads (and clears) the
/// predecessor's Grant word, Tier paces the wait. It provides:
///   publish(g, value): the unlock-side hand-over (Listing 1 line 20).
///   wait_and_consume(g, expect[, pred]): block until g == expect, then
///       clear g to kGrantEmpty (the successor's acknowledgement, §2).
///   wait_until_empty(g): the unlock-side drain (line 21).
///   wait_while(g, value): block until g != value (OHV1's drain,
///       Overlap's residual check).
template <typename Poll, typename Tier>
struct GrantWaiting {
  /// Only the spin tier drains with its poll's read (FAA(0) for the CTR
  /// polls); a tier that escalates drains with plain loads.
  using Drain =
      std::conditional_t<Tier::escalates, LoadPoll, typename Poll::Drain>;

  /// A spin-tier composition reports its poll's paper name ("load",
  /// "ctr-cas", "ctr-faa"); an escalating one reports its tier's.
  static constexpr const char* name =
      Tier::escalates ? Tier::name : Poll::name;
  static constexpr bool oversub_safe = Tier::oversub_safe;

  static void publish(std::atomic<GrantWord>& g, GrantWord value) noexcept {
    Tier::publish(g, value);
  }

  /// `pred` (the mailbox's owner) feeds the §5.4 multi-waiting gauge:
  /// while LockProfiler is on, the wait peeks with loads and the waiter
  /// deregisters strictly before its (then guaranteed) clear. Only this
  /// waiter can clear the observed value (Lemma 9), and no next-epoch
  /// waiter can register on the word until the owner's drain — which
  /// needs our clear — completes, so the gauge never counts a finished
  /// waiter alongside a fresh one.
  static void wait_and_consume(std::atomic<GrantWord>& g, GrantWord expect,
                               ThreadRec* pred = nullptr) noexcept {
    HEMLOCK_TM_CONTENDED();  // only ever called behind a real predecessor
    const auto done = [expect](GrantWord v) { return v == expect; };
    if (pred != nullptr && LockProfiler::enabled()) {
      LockProfiler::on_wait_begin(*pred);
      (void)Tier::wait(g, poll_with<LoadPoll>(g, expect), done, false);
      LockProfiler::on_wait_end(*pred);
      // Deregistered, not yet cleared: the peek-then-consume window.
      HEMLOCK_VERIFY_YIELD("grant:profiled-poll");
      ack(g);
    } else {
      (void)Tier::wait(g, poll_with<Poll>(g, expect), done, false);
      if constexpr (!Poll::consumes) {
        // The observe-then-ack gap a CAS poll closes atomically.
        HEMLOCK_VERIFY_YIELD("grant:ack");
        ack(g);
      }
    }
    // The predecessor may be parked in its drain awaiting this clear.
    if constexpr (Tier::may_park) queue_wait::wake_parked(g);
  }

  static void wait_until_empty(std::atomic<GrantWord>& g) noexcept {
    (void)Tier::wait(g, poll_with<Drain>(g, kGrantEmpty),
                     [](GrantWord v) { return v == kGrantEmpty; }, false);
  }

  /// Wait until g stops holding `value`, reading with P: OHV1's drain
  /// (Listing 5 line 15), which may end on another lock's L'|1 flag
  /// rather than on empty, and Overlap's residual check (Listing 3 line
  /// 6). Never counted: neither waits for a lock.
  template <typename P = Drain>
  static void wait_while(std::atomic<GrantWord>& g, GrantWord value) noexcept {
    (void)Tier::wait(
        g, [&g, value](GrantWord& v) { return !P::poll(g, value, v); },
        [value](GrantWord v) { return v != value; }, false);
  }

 private:
  template <typename P>
  static auto poll_with(std::atomic<GrantWord>& g, GrantWord expect) noexcept {
    return [&g, expect](GrantWord& v) { return P::poll(g, expect, v); };
  }

  static void ack(std::atomic<GrantWord>& g) noexcept {
    // Restore the mailbox to empty so the predecessor may reuse it (the
    // single store the paper counts as Hemlock's only extra
    // critical-path burden vs MCS/CLH, §2).
    // mo: release ack — the predecessor's drain acquires this so our
    // read of the mailbox is complete before it reuses the word.
    g.store(kGrantEmpty, std::memory_order_release);
  }
};

/// The roster's Grant policies, by their historical names.
using PoliteWaiting = GrantWaiting<LoadPoll, QueueSpinWaiting>;
using CtrCasWaiting = GrantWaiting<CasPoll, QueueSpinWaiting>;
using CtrFaaWaiting = GrantWaiting<FaaPoll, QueueSpinWaiting>;
using FutexWaiting = GrantWaiting<CasPoll, SpinThenParkWaiting>;
using GovernedGrantWaiting = GrantWaiting<CasPoll, GovernedWaiting>;

}  // namespace hemlock
