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
//     the domain's limbo list. An object that embeds a RetireNode is
//     parked through that node instead, with no allocation, and its
//     reclaim hook may recycle it rather than free it (the block
//     cache's entry batches, minikv/cache.hpp).
//   * Anyone may try_advance(): the global epoch moves from E to E+1
//     only when every thread announcing an epoch announces exactly E
//     (a thread still at E-1 could hold references unlinked two
//     epochs back). Garbage retired at epoch R is freed once the
//     global epoch reaches R+2 — by then every reader that could have
//     observed the object has exited.
//   * drain(max) bounds reclamation work per call: one advance
//     attempt, one walk of the limbo list, at most `max` reclaims (an
//     unbounded free storm would turn the caller's operation into a
//     latency cliff). The serving layer drains from its write paths,
//     and the block cache from a miss that finds its shard's entry
//     pool empty, so a get may run any retiree's reclaim hook —
//     memtable and table-version deleters included.
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

  /// A limbo-list link embedded in a retired object, so that retiring
  /// it allocates nothing (retire(p, deleter) allocates one).
  struct RetireNode {
    void (*reclaim)(RetireNode*) = nullptr;
    std::uint64_t epoch = 0;  ///< global epoch at retire time
    RetireNode* next = nullptr;
  };

  /// Defer `deleter(p)` until no reader can still hold a reference.
  /// Call AFTER unlinking `p` from the shared structure. Never frees
  /// inline; never blocks on readers.
  void retire(void* p, void (*deleter)(void*));

  /// Allocation-free retire: defer `reclaim(node)` likewise. The node
  /// (and whatever embeds it) belongs to the domain until reclaim runs,
  /// which may free or recycle it.
  void retire(RetireNode* node, void (*reclaim)(RetireNode*));

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
  /// one walk of the limbo list and `max_frees` reclaim invocations.
  std::size_t drain(std::size_t max_frees = kDefaultDrainBatch);

  /// The current global epoch, for callers that pace their drains by
  /// whether it has moved.
  std::uint64_t epoch() const noexcept {
    // mo: relaxed — a pacing hint; drain() rereads the epoch with the
    // ordering its frees need.
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Current counters (pending/freed/advances are exact; epoch is a
  /// racy snapshot by nature).
  DomainStats stats() const;

  /// The process-wide default domain (what ShardedDB uses unless
  /// given its own).
  static EpochDomain& global();

  static constexpr std::size_t kDefaultDrainBatch = 64;

 private:
  /// Spinlock over the limbo list (retire/drain are rare, off the
  /// read fast path; a raw spinlock keeps this header dependency-free
  /// for the locks the library itself implements).
  void lock_limbo() const noexcept;
  void unlock_limbo() const noexcept;

  std::uint32_t slot_;  ///< index into ThreadRec::epochs
  std::atomic<std::uint64_t> epoch_{1};  ///< 0 is reserved for "quiescent"

  mutable std::atomic<bool> limbo_lock_{false};
  RetireNode* limbo_head_ = nullptr;  ///< under limbo_lock_
  std::uint64_t pending_ = 0;      ///< under limbo_lock_
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
