// rwlock.hpp — compact Hemlock-style reader-writer locks.
//
// Reader/writer is the two-session special case of group mutual
// exclusion (Gokhale & Mittal), and Hemlock's grant-based hand-off
// extends to it naturally: the *writer* path is exactly a Hemlock —
// writers serialize through HemlockBase's one-word tail and hand over
// through the per-thread CTR Grant word (core/hemlock.hpp), so the
// writer arrival path stays constant-space the way Hapax/Hemlock
// arrival paths are. Readers arrive through an ingress counter and
// leave through a matching egress decrement; a single writer-present
// word (`wflag_`) is the gate between the two sessions.
//
// Protocol:
//
//   lock_shared():  shard.fetch_add(1)                 (announce)
//                   if wflag_ == 0: done                (fast path)
//                   shard.fetch_sub(1); wait wflag_==0; retry
//   lock():         writers_.lock()                     (Hemlock FIFO)
//                   wflag_ = 1                          (close the gate)
//                   for each shard: wait shard == 0     (drain readers)
//   unlock():       wflag_ = 0 (wakes gated readers); writers_.unlock()
//   unlock_shared():shard.fetch_sub(1)  (wakes a draining writer)
//
// The announce/check pair and the gate-close/drain pair form a Dekker
// handshake (both sides seq_cst): a reader that read wflag_ == 0
// incremented its shard before the writer's drain scan, so the writer
// waits for it; a reader that read wflag_ != 0 backs out and cannot
// be inside the read-side critical section.
//
// Writer preference, by construction: once a writer closes the gate,
// new readers back out and wait, so the writer's drain is bounded by
// the readers already admitted — a continuous reader stream cannot
// starve writers. (The converse discipline is the documented one:
// like glibc's PREFER_WRITER_NONRECURSIVE_NP, a thread re-acquiring
// the read lock while a writer waits can deadlock — recursive read
// acquisition is not supported.)
//
// Sharding: under read-mostly load the ingress counter is the only
// contended line, and a single fetch-and-add word serializes every
// reader's cache-line acquisition. The default family therefore
// shards ingress across `kRwDefaultShards` cache-line-separated
// counters indexed by thread id — readers on different shards never
// touch each other's lines, and only the (rare) writer walks all of
// them. The "-compact" family collapses to one packed counter: 16
// bytes total, sized for hosting inside an interposed
// pthread_rwlock_t (src/interpose/shim_rwlock.*).
//
// The Waiting template parameter is the queue-lock waiting tier
// (core/waiting.hpp): it decides how gated readers wait on wflag_ and
// how draining writers wait on the shard counters, so -yield/-park/
// -adaptive variants come for free from the governor. The writer-side
// Hemlock waits on the same tier with CTR CAS polling
// (GrantWaiting<CasPoll, Waiting>).
#pragma once

#include <atomic>
#include <cstdint>

#include "core/hemlock.hpp"
#include "core/waiting.hpp"
#include "locks/lock_traits.hpp"
#include "runtime/annotations.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/thread_rec.hpp"

namespace hemlock {

namespace detail {

/// Reader-ingress storage: cache-line-sharded counters, or one packed
/// word for the compact (pthread_rwlock_t-hostable) instantiation.
template <std::uint32_t Shards>
struct RwIngress {
  CacheAligned<std::atomic<std::uint32_t>> shard[Shards];
  std::atomic<std::uint32_t>& mine() noexcept {
    return shard[self().id % Shards].value;
  }
  std::atomic<std::uint32_t>& at(std::uint32_t i) noexcept {
    return shard[i].value;
  }
};
template <>
struct RwIngress<1> {
  std::atomic<std::uint32_t> count{0};
  std::atomic<std::uint32_t>& mine() noexcept { return count; }
  std::atomic<std::uint32_t>& at(std::uint32_t) noexcept { return count; }
};

}  // namespace detail

/// Default ingress shard count for the standalone family: enough to
/// spread readers on the thread counts the figure sweeps use without
/// making the writer's drain walk long.
inline constexpr std::uint32_t kRwDefaultShards = 8;

/// Reader-writer lock: Hemlock writer path, sharded reader ingress,
/// writer-preferring gate. Satisfies BasicLockable (the writer side),
/// TryLockable and SharedLockable.
template <typename Waiting = QueueSpinWaiting,
          std::uint32_t Shards = kRwDefaultShards>
class HEMLOCK_CAPABILITY("mutex") RwLockT {
 public:
  RwLockT() = default;
  RwLockT(const RwLockT&) = delete;
  RwLockT& operator=(const RwLockT&) = delete;

  /// Writer acquire: FIFO among writers (Hemlock), then close the
  /// reader gate and drain admitted readers shard by shard.
  // Body exempt: the exclusive hold is a composite (inner writers_
  // Hemlock + gate word) the analysis would misread as a leaked inner
  // capability; callers see only the outer RwLockT capability.
  void lock() noexcept HEMLOCK_ACQUIRE() HEMLOCK_NO_THREAD_SAFETY_ANALYSIS {
    writers_.lock();
    close_gate_and_drain();
  }

  /// Writer non-blocking attempt: fails when another writer holds or
  /// queues, or when any reader is admitted (a transiently backing-out
  /// reader can also fail it — allowed for try operations).
  // Body exempt: same composite-capability shape as lock().
  bool try_lock() noexcept HEMLOCK_TRY_ACQUIRE(true)
      HEMLOCK_NO_THREAD_SAFETY_ANALYSIS {
    if (!writers_.try_lock()) return false;
    // mo: seq_cst gate close + fence — the Dekker pairing with
    // lock_shared's seq_cst announce/check (see close_gate_and_drain).
    wflag_.store(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (std::uint32_t i = 0; i < Shards; ++i) {
      HEMLOCK_VERIFY_YIELD("rwlock:try-scan");
      // mo: acquire so a zero scan carries the departing readers'
      // critical sections into ours.
      if (ingress_.at(i).load(std::memory_order_acquire) != 0) {
        reopen_gate();
        writers_.unlock();
        return false;
      }
    }
    return true;
  }

  /// Writer release: reopen the gate (waking gated readers), then pass
  /// the writer baton.
  // Body exempt: releases the composite hold via the inner writers_
  // Hemlock the analysis never saw this function acquire.
  void unlock() noexcept HEMLOCK_RELEASE() HEMLOCK_NO_THREAD_SAFETY_ANALYSIS {
    reopen_gate();
    writers_.unlock();
  }

  /// Reader acquire: announce on this thread's shard, admit if no
  /// writer holds or drains; else back out and wait for the gate.
  void lock_shared() noexcept HEMLOCK_ACQUIRE_SHARED() {
    std::atomic<std::uint32_t>& c = ingress_.mine();
    for (;;) {
      // mo: seq_cst announce — Dekker handshake with the writer's
      // seq_cst gate-close + drain scan; either the writer sees our
      // increment or we see its wflag_ (both seq_cst keeps the pair
      // in the single total order).
      c.fetch_add(1, std::memory_order_seq_cst);
      // THE Dekker window: announced on the shard, wflag_ not yet
      // checked — a writer closing the gate right here must find our
      // increment in its drain scan.
      HEMLOCK_VERIFY_YIELD("rwlock:announced");
      // mo: seq_cst check — the other half of the handshake above.
      if (wflag_.load(std::memory_order_seq_cst) == 0) return;
      HEMLOCK_VERIFY_YIELD("rwlock:backout");
      egress(c);  // back out: the writer's drain must not wait for us
      Waiting::wait_until(wflag_, std::uint32_t{0});
    }
  }

  /// Reader non-blocking attempt.
  bool try_lock_shared() noexcept HEMLOCK_TRY_ACQUIRE_SHARED(true) {
    std::atomic<std::uint32_t>& c = ingress_.mine();
    // mo: seq_cst announce/check — same Dekker pair as lock_shared.
    c.fetch_add(1, std::memory_order_seq_cst);
    HEMLOCK_VERIFY_YIELD("rwlock:announced");
    // mo: seq_cst gate check — ordered after the announce above.
    if (wflag_.load(std::memory_order_seq_cst) == 0) return true;
    egress(c);
    return false;
  }

  /// Reader release.
  void unlock_shared() noexcept HEMLOCK_RELEASE_SHARED() {
    egress(ingress_.mine());
  }

  /// True if no thread holds the lock in either mode (racy snapshot;
  /// tests only).
  bool appears_unlocked() noexcept {
    if (!writers_.appears_unlocked()) return false;
    for (std::uint32_t i = 0; i < Shards; ++i) {
      // mo: acquire so test assertions reading through this snapshot
      // see the last releasing reader's writes.
      if (ingress_.at(i).load(std::memory_order_acquire) != 0) return false;
    }
    return true;
  }

 private:
  void close_gate_and_drain() noexcept {
    // mo: seq_cst gate close — Dekker handshake with lock_shared's
    // seq_cst announce/check.
    wflag_.store(1, std::memory_order_seq_cst);
    // Gate closed, drain not yet started: late readers must now be
    // backing out, admitted readers must still be counted.
    HEMLOCK_VERIFY_YIELD("rwlock:gate-closed");
    // mo: seq_cst fence so the drain scan below cannot read a shard
    // value older than the increment of any reader that was admitted
    // (read wflag_ == 0) before the gate closed — the Dekker pairing
    // with lock_shared's seq_cst announce/check.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (std::uint32_t i = 0; i < Shards; ++i) {
      // Between shard waits: a shard already passed must not be
      // re-enterable while the gate stays closed.
      HEMLOCK_VERIFY_YIELD("rwlock:drain-next");
      Waiting::wait_until(ingress_.at(i), std::uint32_t{0}, /*count=*/false);
    }
  }

  void reopen_gate() noexcept {
    HEMLOCK_VERIFY_YIELD("rwlock:reopen");
    // The tier's publish wakes readers parked on the gate word.
    Waiting::publish(wflag_, std::uint32_t{0});
  }

  /// Decrement a shard; the reader whose decrement completes a
  /// writer's drain wakes that (possibly parked) writer. The fence +
  /// census-gated wake is the same Dekker handshake as
  /// queue_wait::publish_and_wake, with the RMW playing the store.
  static void egress(std::atomic<std::uint32_t>& c) noexcept {
    HEMLOCK_VERIFY_YIELD("rwlock:egress");
    // mo: seq_cst decrement — releases our read-side section to the
    // draining writer and orders against the census check below.
    const std::uint32_t prior = c.fetch_sub(1, std::memory_order_seq_cst);
    if constexpr (Waiting::may_park) {
      if (prior == 1) {
        // mo: seq_cst fence — store-to-load Dekker against a parking
        // writer (decrement above vs. its census registration), same
        // handshake as queue_wait::publish_and_wake.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (ContentionGovernor::instance().parked(&c) != 0) {
          futex_wake_all(queue_wait::futex_word(c));
        }
      }
    }
  }

  /// Writer-writer exclusion, waiting on this lock's tier.
  HemlockBase<GrantWaiting<CasPoll, Waiting>> writers_;
  std::atomic<std::uint32_t> wflag_{0};    ///< writer present / draining
  detail::RwIngress<Shards> ingress_;      ///< admitted-reader counts
};

/// The standalone (sharded-ingress) family, one name per waiting tier.
using RwLock = RwLockT<QueueSpinWaiting>;
using RwYieldLock = RwLockT<QueueYieldWaiting>;
using RwParkLock = RwLockT<SpinThenParkWaiting>;
using RwGovernedLock = RwLockT<GovernedWaiting>;

/// The compact family: one packed ingress word, 16 bytes total —
/// what the pthread_rwlock_t interposition overlay hosts.
using RwCompactLock = RwLockT<QueueSpinWaiting, 1>;
using RwCompactYieldLock = RwLockT<QueueYieldWaiting, 1>;
using RwCompactParkLock = RwLockT<SpinThenParkWaiting, 1>;
using RwCompactGovernedLock = RwLockT<GovernedWaiting, 1>;

static_assert(sizeof(RwCompactLock) == 16,
              "compact rwlock must stay pthread_rwlock_t-hostable");

namespace detail {
template <typename W, std::uint32_t S>
struct rwlock_traits_base {
  static constexpr std::size_t lock_words =
      sizeof(RwLockT<W, S>) / sizeof(void*);
  static constexpr std::size_t held_words = 0;
  static constexpr std::size_t wait_words = 0;
  // The writer path hands over through the thread's Grant word.
  static constexpr std::size_t thread_words = 1;
  static constexpr bool nontrivial_init = false;
  // Writers are FIFO (Hemlock); readers are admitted as a group.
  static constexpr bool is_fifo = false;
  static constexpr bool has_trylock = true;
  static constexpr Spinning spinning = Spinning::kGlobal;
  static constexpr const char* waiting = W::name;
  static constexpr bool oversub_safe = W::oversub_safe;
};
}  // namespace detail

template <>
struct lock_traits<RwLock>
    : detail::rwlock_traits_base<QueueSpinWaiting, kRwDefaultShards> {
  static constexpr const char* name = "rwlock";
};
template <>
struct lock_traits<RwYieldLock>
    : detail::rwlock_traits_base<QueueYieldWaiting, kRwDefaultShards> {
  static constexpr const char* name = "rwlock-yield";
};
template <>
struct lock_traits<RwParkLock>
    : detail::rwlock_traits_base<SpinThenParkWaiting, kRwDefaultShards> {
  static constexpr const char* name = "rwlock-park";
};
template <>
struct lock_traits<RwGovernedLock>
    : detail::rwlock_traits_base<GovernedWaiting, kRwDefaultShards> {
  static constexpr const char* name = "rwlock-adaptive";
};
template <>
struct lock_traits<RwCompactLock>
    : detail::rwlock_traits_base<QueueSpinWaiting, 1> {
  static constexpr const char* name = "rwlock-compact";
};
template <>
struct lock_traits<RwCompactYieldLock>
    : detail::rwlock_traits_base<QueueYieldWaiting, 1> {
  static constexpr const char* name = "rwlock-compact-yield";
};
template <>
struct lock_traits<RwCompactParkLock>
    : detail::rwlock_traits_base<SpinThenParkWaiting, 1> {
  static constexpr const char* name = "rwlock-compact-park";
};
template <>
struct lock_traits<RwCompactGovernedLock>
    : detail::rwlock_traits_base<GovernedWaiting, 1> {
  static constexpr const char* name = "rwlock-compact-adaptive";
};

}  // namespace hemlock
