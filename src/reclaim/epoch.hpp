// epoch.hpp — epoch-based memory reclamation (EBR/QSBR) for lock-free
// readers.
//
// The sharded MiniKV serving layer (minikv/sharded_db.hpp) lets Get()
// traverse a shard's memtable and table version WITHOUT holding any
// lock; the structures it walks are replaced (flush, compaction) by
// writers that still hold the shard lock. Something must defer the
// frees until every such reader is done. This module is that
// something: classic three-epoch reclamation in the style of Fraser's
// EBR / Linux RCU-sched.
//
//   * Readers bracket their traversal with enter()/exit() (or the
//     EpochGuard RAII). enter() publishes the current global epoch
//     into the calling thread's ThreadRec announcement slot; exit()
//     clears it. The per-thread state lives in runtime/thread_rec.hpp
//     (one cache-aligned word per domain), so readers never contend
//     on shared reclamation state.
//   * Writers retire(ptr, deleter) garbage after unlinking it. The
//     object is stamped with the current global epoch and parked on
//     the domain's limbo list.
//   * Anyone may try_advance(): the global epoch moves from E to E+1
//     only when every thread announcing an epoch announces exactly E
//     (a thread still at E-1 could hold references unlinked two
//     epochs back). Garbage retired at epoch R is freed once the
//     global epoch reaches R+2 — by then every reader that could have
//     observed the object has exited.
//   * drain(max) bounds reclamation work per call: one advance
//     attempt, one walk of the limbo list, at most `max` deleter calls
//     (an unbounded free storm would turn the caller's operation into
//     a latency cliff).
//   * Readers never reclaim. A get pins the epoch and, on a block-cache
//     miss at its shard's entry bound, may try to advance it
//     (minikv/cache.hpp); it frees nothing. Retired memtables and table
//     versions are freed by writers' drains, flush() and destructors
//     (minikv/sharded_db.hpp), so in a read-only phase after a flush,
//     that flush's retirees stay pending until the next write. Entries
//     that are recycled rather than freed (the block cache's, the
//     memtable's dead rows) never enter the limbo list: their owners
//     stamp them with stamp() and reuse them once expired() says so.
//
// A stalled reader never deadlocks the domain: advance attempts
// simply fail (counted in DomainStats::advance_blocked) and garbage
// accumulates (DomainStats::pending) until the reader exits. That
// bounded-interference contract is what tests/test_reclaim.cpp pins
// down.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "runtime/cacheline.hpp"
#include "runtime/raw_spinlock.hpp"
#include "runtime/thread_rec.hpp"

namespace hemlock::reclaim {

/// Observable state of a domain, for tests and ops dashboards.
struct DomainStats {
  std::uint64_t epoch = 0;            ///< current global epoch
  std::uint64_t pending = 0;          ///< retired, not yet freed
  std::uint64_t freed = 0;            ///< total objects reclaimed
  std::uint64_t advances = 0;         ///< successful epoch advances
  std::uint64_t advance_blocked = 0;  ///< advance attempts refused by a
                                      ///< still-active reader
};

/// One independent reclamation domain. Each domain claims a slot in
/// every ThreadRec's announcement array (ThreadRec::kMaxEpochDomains
/// bounds how many domains can coexist); threads participate
/// automatically the first time they enter — registration IS the
/// thread's ThreadRec, no separate reader registry exists.
///
/// Thread-safety: enter/exit/retire/try_advance/drain/stats may be
/// called concurrently from any threads. The destructor requires the
/// domain quiesced (no thread in an epoch, no concurrent calls); it
/// frees everything still on the limbo list.
class EpochDomain {
 public:
  EpochDomain();
  ~EpochDomain();
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  /// Enter a read-side critical section: pin the current epoch.
  /// Nestable; only the outermost enter publishes.
  void enter() noexcept;
  /// Leave the read-side critical section (outermost exit clears the
  /// announcement, making the thread quiescent in this domain).
  void exit() noexcept;
  /// Whether the calling thread is currently inside this domain.
  bool in_epoch() const noexcept;

  /// Defer `deleter(p)` until no reader can still hold a reference.
  /// Call AFTER unlinking `p` from the shared structure. Never frees
  /// inline; never blocks on readers.
  void retire(void* p, void (*deleter)(void*));

  /// Typed convenience: defers `delete static_cast<T*>(p)`.
  template <typename T>
  void retire(T* p) {
    retire(static_cast<void*>(p),
           [](void* q) { delete static_cast<T*>(q); });
  }

  /// Attempt one epoch advance. Returns true when the epoch moved.
  /// Fails (and counts advance_blocked) while any thread announces an
  /// epoch older than the current one — the stalled-reader case.
  bool try_advance() noexcept;

  /// Advance if possible, then free up to `max_frees` safe retirees
  /// (retired two or more epochs ago). Returns the number freed.
  /// Bounded: a single call never does more than one advance attempt,
  /// one walk of the limbo list and `max_frees` deleter calls.
  std::size_t drain(std::size_t max_frees = kDefaultDrainBatch);

  /// The current global epoch, for callers that pace their drains by
  /// whether it has moved.
  std::uint64_t epoch() const noexcept {
    // mo: relaxed — a pacing hint; drain() rereads the epoch with the
    // ordering its frees need.
    return epoch_.load(std::memory_order_relaxed);
  }

  /// The grace rule, in two halves. stamp() is the epoch to stamp on
  /// something the caller has just unlinked: call it after the unlink
  /// store. expired(stamp) says whether every reader that could have
  /// reached it before the unlink has exited: the epoch has advanced
  /// twice since. retire() stamps and drain() frees by exactly this
  /// rule; MemTable reuses its overwritten entries by it, and the block
  /// cache its evicted ones.
  std::uint64_t stamp() const noexcept;
  bool expired(std::uint64_t stamp) const noexcept {
    // mo: acquire — pairs with the advancing CAS, which came after the
    // advancer saw every pinned reader's release exit: what the caller
    // does with the expired object happens after those readers' reads.
    return stamp + 2 <= epoch_.load(std::memory_order_acquire);
  }

  /// Current counters (pending/freed/advances are exact; epoch is a
  /// racy snapshot by nature).
  DomainStats stats() const;

  /// The process-wide default domain (what ShardedDB uses unless
  /// given its own).
  static EpochDomain& global();

  static constexpr std::size_t kDefaultDrainBatch = 64;

 private:
  /// A retired object on the limbo list.
  struct Retiree {
    void* ptr;
    void (*deleter)(void*);
    std::uint64_t epoch;  ///< stamp() at retire time
    Retiree* next;
  };

  // Every enter() reads these two, so they get a line of their own:
  // the limbo list and the counters below are written by every drain.
  alignas(kCacheLineSize) std::uint32_t slot_;  ///< index into ThreadRec::epochs
  std::atomic<std::uint64_t> epoch_{1};  ///< 0 is reserved for "quiescent"

  /// Guards the limbo list (retire/drain are rare, off the read fast
  /// path; the raw spinlock keeps this header free of the locks the
  /// library itself implements).
  alignas(kCacheLineSize) mutable RawSpinLock limbo_lock_;
  Retiree* limbo_head_ = nullptr;  ///< under limbo_lock_
  std::uint64_t pending_ = 0;     ///< under limbo_lock_
  std::atomic<std::uint64_t> freed_{0};
  std::atomic<std::uint64_t> advances_{0};
  std::atomic<std::uint64_t> advance_blocked_{0};
};

/// RAII read-side section: enters on construction, exits on
/// destruction. The serving layer's Get()/Scan() use this.
class EpochGuard {
 public:
  explicit EpochGuard(EpochDomain& domain) noexcept : domain_(domain) {
    domain_.enter();
  }
  ~EpochGuard() { domain_.exit(); }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochDomain& domain_;
};

}  // namespace hemlock::reclaim
