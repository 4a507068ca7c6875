// thread_rec.hpp — the per-thread record holding the Grant word.
//
// Hemlock's entire per-thread footprint is one word: the Grant field
// (paper §1: "requiring just one word per thread plus one word per
// lock"). ThreadRec sequesters that word as the sole occupant of a
// cache line (§2.3) and adds, on separate *cold* lines, the registry
// linkage, the thread's telemetry slab and the live multi-waiting
// gauge of the §5.4 application characterization. The gauge is never
// touched on lock fast paths unless profiling is explicitly enabled.
// The two owner-only fields of the demotion predictor (DemoteHint)
// are not part of the algorithm's Table 1 footprint: they only decide
// whether a release demotes the lock's line.
//
// Lifetime rule (paper Appendix A): "When ultimately destroying a
// thread, it is necessary to wait while the thread's Grant field
// [transitions] back to null before reclaiming the memory underlying
// Grant." ThreadRec's destructor enforces exactly that, which makes
// the Overlap variant (deferred acknowledgement) safe.
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/cacheline.hpp"
#include "stats/telemetry.hpp"

namespace hemlock {

/// Values stored in a Grant word: null (0), a lock address, or — for
/// the Optimized Hand-Over Variant 1 (paper Listing 5) — a lock
/// address with the low bit set (L|1, "successor certainly exists").
using GrantWord = std::uintptr_t;
inline constexpr GrantWord kGrantEmpty = 0;

/// The release-side demotion predictor (core/hemlock.hpp). Demoting a
/// lock's line on an uncontended release pays only when another core
/// takes the lock next, so the thread remembers the last lock it saw
/// shared (queued behind a predecessor on, or handed to a successor)
/// and demotes only that lock's first kReleases uncontended releases
/// after it. A lock the thread runs alone never demotes. Owner-only.
struct DemoteHint {
  static constexpr std::uint32_t kReleases = 64;
  GrantWord lock = kGrantEmpty;     ///< the lock last seen shared
  std::uint32_t solo_releases = 0;  ///< its uncontended releases since

  /// This thread queued on `l` behind a predecessor, or passed it on.
  void shared(GrantWord l) noexcept {
    lock = l;
    solo_releases = 0;
  }

  /// An uncontended release of `l`: true when it should demote.
  bool solo_release(GrantWord l) noexcept {
    if (l != lock || solo_releases == kReleases) return false;
    ++solo_releases;
    return true;
  }
};

/// Per-thread locking record. Obtain the calling thread's record with
/// self(); records are registered for the lifetime of the thread and
/// enumerable via ThreadRegistry for tests and profilers.
struct ThreadRec {
  // ---- hot line: the Grant mailbox ------------------------------------
  /// The singleton mailbox between this thread and whichever waiter is
  /// its immediate successor on some lock's queue. Protocol invariants
  /// (paper §2): only this thread stores a non-null value here (during
  /// its unlock), and the only store performed by *another* thread is
  /// the successor's acknowledgement clearing it back to null.
  CacheAligned<std::atomic<GrantWord>> grant{kGrantEmpty};

  // ---- epoch lines: reclamation slots (src/reclaim/epoch.hpp) ----------
  /// Per-domain epoch announcement words. Slot `i` belongs to the
  /// EpochDomain holding slot id `i`; 0 means "quiescent in that
  /// domain", any other value is the global epoch the thread pinned on
  /// entry. Written only by the owning thread; read by whichever
  /// thread attempts an epoch advance. Each word owns a cache line so
  /// readers announcing epochs never false-share with the Grant word
  /// or with each other's announcements.
  static constexpr std::uint32_t kMaxEpochDomains = 4;
  CacheAligned<std::atomic<std::uint64_t>> epochs[kMaxEpochDomains]{};
  /// Reentrancy depth per domain — owner-thread-only (a thread may
  /// nest enter() calls; only the outermost publishes/clears the
  /// announcement word), so plain integers on a cold line suffice.
  std::uint32_t epoch_depth[kMaxEpochDomains] = {};
  /// The release-side demotion predictor: owner-only too, read on every
  /// uncontended Hemlock release, so it shares neither the Grant line
  /// nor grant_waiters' line.
  DemoteHint demote;

  // ---- cold line(s): registry + profiling ------------------------------
  /// Intrusive registry link; managed by ThreadRegistry.
  ThreadRec* registry_next = nullptr;
  /// Dense id assigned at registration (stable for the thread's life).
  std::uint32_t id = 0;
  /// True between registration and deregistration.
  std::atomic<bool> live{false};

  /// Threads now waiting on this->grant (the §5.4 multi-waiting
  /// gauge), moved only while LockProfiler is enabled. Its waiters
  /// write it, so unlike the slab it is a shared RMW, kept off the
  /// owner-only line above.
  alignas(kCacheLineSize) std::atomic<std::uint32_t> grant_waiters{0};

  /// Per-lock telemetry counters for this thread (stats/telemetry.hpp).
  /// Cold relative to the Grant line; written only by the owning
  /// thread, read by snapshot walks. Folded into the telemetry retired
  /// accumulator at deregistration.
  telemetry::Slab telemetry_slab;

  ThreadRec() = default;
  ThreadRec(const ThreadRec&) = delete;
  ThreadRec& operator=(const ThreadRec&) = delete;
};

// Grant occupies the record's first cache line by itself: CacheAligned
// pads it to a full line and everything after it therefore starts on
// the next line. (Checked at runtime in tests/test_runtime.cpp since
// offsetof on this type is conditionally-supported.)
static_assert(alignof(ThreadRec) >= kCacheLineSize);

/// The calling thread's record. First call registers the thread; the
/// record is deregistered (after draining its Grant word) when the
/// thread exits.
ThreadRec& self();

/// Global roster of live ThreadRecs (meta-level: registration and
/// enumeration take an internal mutex; nothing here is on a lock fast
/// path).
class ThreadRegistry {
 public:
  /// Invoke fn(rec, ctx) for every currently-live record. The registry
  /// lock is held for the whole walk, so records cannot be unlinked
  /// mid-traversal; fn must not register/deregister threads.
  static void for_each_raw(void (*fn)(ThreadRec&, void*), void* ctx);

  /// fn(rec) for every live record, through for_each_raw. Nothing
  /// allocates, so the telemetry SIGUSR1 report and the epoch advance
  /// may walk.
  template <typename Fn>
  static void for_each(Fn fn) {
    for_each_raw(
        [](ThreadRec& rec, void* ctx) { (*static_cast<Fn*>(ctx))(rec); },
        &fn);
  }

  /// Number of threads ever registered (monotone).
  static std::uint32_t ever_registered();
  /// Number of currently-live registered threads.
  static std::uint32_t live_count();

  // Internal: called by self()'s per-thread holder at thread start /
  // exit. Not for direct use.
  static void register_rec(ThreadRec* rec);
  static void deregister_rec(ThreadRec* rec);
};

/// The §5.4 characterization switch ("Using an instrumented version of
/// Hemlock we characterized the application behavior of LevelDB").
/// Off by default. The Hemlock lock body calls the hooks, and each
/// statistic lands in the telemetry slab of the thread that observes
/// it: nested acquires and the most locks held under the lock being
/// acquired, the most Grant waiters under the lock being waited for
/// (telemetry::collect()'s `profile` folds them).
class LockProfiler {
 public:
  /// Enable/disable the §5.4 hooks globally.
  static void enable(bool on) noexcept {
    // mo: relaxed — profiling switch; counters are advisory stats.
    enabled_.store(on, std::memory_order_relaxed);
  }
  /// Whether the hooks are counting.
  static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);  // mo: see enable()
  }

  /// A thread acquired a lock (post-CS-entry).
  static void on_acquire(ThreadRec& me) noexcept {
    if (!enabled()) return;
    telemetry::Slab& slab = me.telemetry_slab;
    telemetry::TmSlot& s = telemetry::attr_slot(slab);
    if (slab.held != 0) telemetry::bump(s.nested_acquires);
    telemetry::raise(s.max_held, ++slab.held);
  }

  /// A thread released a lock. A release never takes the gauge below
  /// zero: a lock acquired before the switch went on was not counted.
  static void on_release(ThreadRec& me) noexcept {
    if (!enabled()) return;
    if (me.telemetry_slab.held != 0) --me.telemetry_slab.held;
  }

  /// A waiter began waiting on `pred`'s Grant word.
  static void on_wait_begin(ThreadRec& pred) noexcept {
    if (!enabled()) return;
    // mo: relaxed — the live gauge is a statistic, not synchronization.
    const std::uint32_t now =
        pred.grant_waiters.fetch_add(1, std::memory_order_relaxed) + 1;
    telemetry::TmSlot& s = telemetry::attr_slot(telemetry::my_slab());
    telemetry::raise(s.max_grant_waiters, now);
  }

  /// A waiter stopped waiting on `pred`'s Grant word.
  static void on_wait_end(ThreadRec& pred) noexcept {
    if (!enabled()) return;
    pred.grant_waiters.fetch_sub(1, std::memory_order_relaxed);  // mo: stats
  }

 private:
  static std::atomic<bool> enabled_;
};

}  // namespace hemlock
