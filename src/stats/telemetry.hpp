// telemetry.hpp — always-on per-lock runtime metrics and the opt-in
// flight recorder.
//
// The paper's §5.4 characterization ("24 nested acquires, max 2 locks
// held, max 1 Grant waiter") was only possible because Dice & Kogan
// ran an *instrumented* lock under LevelDB. This module makes our
// runtime answer the same questions about any live workload: every
// attribution point (AnyLock, the LD_PRELOAD shim families, the
// waiting tiers, the §5.4 profiler, the epoch domains) feeds
// per-thread counter slabs keyed by a small per-lock TelemetryHandle,
// and a registry-walking snapshot folds them. The slabs are the
// library's only counter mechanism: the snapshot's governor and §5.4
// blocks are totals of its per-lock rows.
//
// Cost model (the subsystem is always compiled in; LockProfiler's §5.4
// hooks are its one runtime switch):
//  * Unattributed locks (handle id 0) pay one predicted branch per
//    hook — the id check — and nothing else.
//  * Attributed fast paths pay a handful of relaxed increments on a
//    thread-local cache line plus *sampled* wait/hold timing (one
//    clock pair every kSampleEvery-th acquisition), so the tax stays
//    a few nanoseconds per lock/unlock pair.
//  * Contended-path metrics (contended acquisitions, parks, wakes,
//    gate skips, escalations) are counted from inside the waiting slow
//    paths, on the waiting or publishing thread's own slab — no shared
//    cache line is written for a statistic.
//
// The flight recorder is a fixed-size per-thread TSC-stamped event
// ring, enabled only via HEMLOCK_TRACE=<path>, dumped at exit as
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
// Exporters: HEMLOCK_STATS=report|json[:path] atexit dump and SIGUSR1
// on-demand report. See docs/OBSERVABILITY.md for the full metric
// inventory.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/timing.hpp"

/// Always 1: there is one build, with telemetry. Kept for the perfbench
/// run fingerprint, which reports it.
#define HEMLOCK_TELEMETRY_ENABLED 1

namespace hemlock::telemetry {

/// Per-lock identity for metric attribution. id 0 is the reserved
/// "(unattributed)" bucket: hooks given it fall through at the cost
/// of one branch, and slow-path metrics with no current attribution
/// land in slot 0 so they are never silently dropped.
struct TelemetryHandle {
  std::uint16_t id = 0;
};

/// Fixed handle-table capacity (slot 0 reserved). A bounded table
/// keeps the per-thread slabs inline in ThreadRec — no allocation on
/// any path the interposition shim can reach.
inline constexpr std::uint16_t kMaxHandles = 32;

/// Log2-bucketed duration histograms: bucket i counts values in
/// [2^i, 2^(i+1)) ns; the top bucket absorbs everything >= 2^39 ns
/// (~9 min). Snapshots keep the buckets as they are (Log2Histogram).
inline constexpr unsigned kHistBuckets = 40;

/// The log2 bucket for a duration (0 maps to bucket 0).
inline unsigned log2_bucket(std::uint64_t ns) noexcept {
  const unsigned b = ns == 0 ? 0u : static_cast<unsigned>(std::bit_width(ns)) - 1u;
  return b >= kHistBuckets ? kHistBuckets - 1 : b;
}

/// Sampling period for wait/hold timing: one clock pair per
/// kSampleEvery-th acquisition per (thread, handle). Counters are
/// exact; only the duration histograms are sampled.
inline constexpr std::uint32_t kSampleEvery = 64;

/// How a counter combines across slabs: summed, or kept as the largest
/// value seen (a high-water). kCensus is a high-water of the governor's
/// parked census, stored as the count shifted above the census bucket
/// it was seen in (kCensusBucketBits), so one max keeps the two
/// together.
enum class Fold : std::uint8_t { kSum, kMax, kCensus };
inline constexpr unsigned kCensusBucketBits = 8;

/// The counter table: every per-lock counter, named once. A row is
/// X(field, fold, heading): `field` names the slab atomic, the
/// snapshot value and the JSON key; `heading` heads the text report's
/// column. New rows go last, so the report's columns keep their
/// positions.
#define HEMLOCK_TM_COUNTERS(X)                                           \
  X(acquires, kSum, "acquires")        /* exclusive acquisitions */      \
  X(contended, kSum, "contended")      /* acquisitions that waited */    \
  X(try_failures, kSum, "try-fail")    /* failed try_lock attempts */    \
  X(parks, kSum, "parks")              /* futex sleeps entered */        \
  X(wakes, kSum, "wakes")              /* wake syscalls issued */        \
  X(escalations, kSum, "escal")        /* waiting-tier transitions */    \
  X(shared_acquires, kSum, "shared")   /* reader admissions */           \
  X(gate_skips, kSum, "gate-skips")    /* wakes skipped: none parked */  \
  X(park_returns, kSum, "park-rets")   /* futex sleeps that ended */     \
  X(baseline_retries, kSum, "retries") /* parks the re-check cancelled */ \
  X(census_high_water, kCensus, "census-hw") /* most threads parked */   \
  X(nested_acquires, kSum, "nested")   /* §5.4: lock() holding another */ \
  X(max_held, kMax, "max-held")        /* §5.4: most locks held */       \
  X(max_grant_waiters, kMax, "max-grant-w") /* §5.4: most on a Grant */ \
  X(demotions, kSum, "demotions")      /* released lines demoted */

/// Per-(thread, handle) counters. The table's counters are written by
/// the owning thread with relaxed atomics (statistics, never
/// synchronization) and read concurrently by snapshot walks. The
/// leading sampling state is owner-thread-only and never read by
/// snapshots; it sits just before the acquire counter, so the fast-path
/// hooks touch adjacent words.
struct TmSlot {
  // ---- owner-thread sampling state (plain: never shared) --------------
  std::uint32_t ops = 0;            ///< acquisition counter driving sampling
  std::int64_t wait_begin_ns = 0;   ///< nonzero while timing a sampled wait
  std::int64_t hold_begin_ns = 0;   ///< nonzero while timing a sampled hold

#define HEMLOCK_TM_SLOT_FIELD(field, fold, heading) \
  std::atomic<std::uint64_t> field{0};
  HEMLOCK_TM_COUNTERS(HEMLOCK_TM_SLOT_FIELD)
#undef HEMLOCK_TM_SLOT_FIELD
  std::atomic<std::uint32_t> wait_hist[kHistBuckets]{};  ///< sampled wait ns
  std::atomic<std::uint32_t> hold_hist[kHistBuckets]{};  ///< sampled hold ns
};

/// The per-thread slab: one TmSlot per handle, hanging off ThreadRec.
struct Slab {
  TmSlot slots[kMaxHandles];
  /// §5.4 gauge: Hemlock-family locks this thread holds right now.
  /// Owner-only, and left out of reset(): zeroing it under a held lock
  /// would make that lock's release count below zero.
  std::uint32_t held = 0;
};

/// Single-writer counter increment: slab slots belong to one thread,
/// so a relaxed load+store — a plain `inc` in the asm — replaces the
/// lock-prefixed RMW a fetch_add would emit (measured at roughly half
/// the hook cost on the uncontended pair). Snapshot readers race
/// benignly; the only competing writer is release_handle's scrub,
/// which can race an increment only when the lock is being destroyed
/// mid-operation — undefined at the lock layer before telemetry is
/// involved.
template <typename T>
inline void bump(std::atomic<T>& c) noexcept {
  // mo: relaxed — single-writer statistic, never synchronization.
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

/// Single-writer high-water: the same contract as bump().
inline void raise(std::atomic<std::uint64_t>& c, std::uint64_t v) noexcept {
  // mo: relaxed — single-writer statistic, never synchronization.
  if (v > c.load(std::memory_order_relaxed)) c.store(v, std::memory_order_relaxed);
}

/// Thread-local slab cache. Populated on first hook via slab_slow()
/// (which registers through self()); cleared at thread deregistration
/// so late hooks from other thread_local destructors fall back to a
/// shared dummy slab instead of touching freed memory.
inline thread_local Slab* t_slab = nullptr;

/// The handle the calling thread is currently acquiring/releasing —
/// how the handle-blind waiting layer attributes its slow-path
/// metrics. 0 between operations.
inline thread_local std::uint16_t t_attr = 0;

/// Cold path of my_slab(): resolve the calling thread's slab (or the
/// shared post-exit dummy) and cache it.
Slab* slab_slow() noexcept;

inline Slab& my_slab() noexcept {
  Slab* s = t_slab;
  return *(s != nullptr ? s : slab_slow());
}

/// The slot of `slab` the current attribution selects (slot 0 when no
/// attribution is current).
inline TmSlot& attr_slot(Slab& slab) noexcept {
  return slab.slots[t_attr < kMaxHandles ? t_attr : 0];
}

/// Flight-recorder master switch: set once at startup from
/// HEMLOCK_TRACE, read with a relaxed load on the (rare) traced
/// events' paths.
inline std::atomic<bool> g_trace_on{false};

/// Flight-recorder event kinds (one byte in the ring record).
enum class Ev : std::uint8_t {
  kAcquire = 0,
  kContended,
  kPark,
  kWake,
  kEscalate,
  kEpochAdvance,
};

/// Append one event to the calling thread's trace ring (out-of-line;
/// only reached when tracing is enabled).
void trace_emit(Ev ev, std::uint16_t handle, std::uint32_t arg) noexcept;

inline void trace(Ev ev, std::uint16_t handle, std::uint32_t arg = 0) noexcept {
  // mo: relaxed — advisory tracing switch; the ring is thread-local,
  // so no ordering is needed between the check and the append.
  if (g_trace_on.load(std::memory_order_relaxed)) trace_emit(ev, handle, arg);
}

// ---------------------------------------------------------------------
// Fast-path hooks (inline). Every hook is a no-op for handle id 0.
// ---------------------------------------------------------------------

/// Before a blocking exclusive acquire: publish the attribution for
/// the waiting layer and start a sampled wait timer.
inline void on_lock_begin(TelemetryHandle h) noexcept {
  if (h.id == 0) return;
  TmSlot& s = my_slab().slots[h.id];
  t_attr = h.id;
  if ((++s.ops % kSampleEvery) == 1) s.wait_begin_ns = now_ns();
}

/// After a blocking exclusive acquire returned.
inline void on_lock_acquired(TelemetryHandle h) noexcept {
  if (h.id == 0) return;
  TmSlot& s = my_slab().slots[h.id];
  t_attr = 0;
  bump(s.acquires);
  if (s.wait_begin_ns != 0) {
    const std::int64_t t1 = now_ns();
    bump(s.wait_hist[log2_bucket(
        static_cast<std::uint64_t>(t1 - s.wait_begin_ns))]);
    s.wait_begin_ns = 0;
    s.hold_begin_ns = t1;
  }
  trace(Ev::kAcquire, h.id);
}

/// A successful try_lock (no wait to time; still an acquisition).
inline void on_try_acquired(TelemetryHandle h) noexcept {
  if (h.id == 0) return;
  bump(my_slab().slots[h.id].acquires);
  trace(Ev::kAcquire, h.id);
}

/// A failed try_lock / try_lock_shared.
inline void on_try_failure(TelemetryHandle h) noexcept {
  if (h.id == 0) return;
  bump(my_slab().slots[h.id].try_failures);
}

/// A shared-mode (reader) admission. Reader holds are not timed: the
/// single per-slot hold timer cannot represent concurrent readers.
inline void on_shared_acquired(TelemetryHandle h) noexcept {
  if (h.id == 0) return;
  TmSlot& s = my_slab().slots[h.id];
  t_attr = 0;
  bump(s.shared_acquires);
}

/// Before a shared acquire: attribution only (see on_shared_acquired).
inline void on_shared_begin(TelemetryHandle h) noexcept {
  if (h.id == 0) return;
  t_attr = h.id;
}

/// Unlock entry: close a sampled hold interval and re-publish the
/// attribution so hand-off slow paths (drain waits, gated wakes)
/// attribute to the lock being released.
inline void on_unlock_begin(TelemetryHandle h) noexcept {
  if (h.id == 0) return;
  TmSlot& s = my_slab().slots[h.id];
  t_attr = h.id;
  if (s.hold_begin_ns != 0) {
    bump(s.hold_hist[log2_bucket(
        static_cast<std::uint64_t>(now_ns() - s.hold_begin_ns))]);
    s.hold_begin_ns = 0;
  }
}

/// Unlock exit: clear the attribution.
inline void on_unlock_end(TelemetryHandle h) noexcept {
  if (h.id == 0) return;
  t_attr = 0;
}

// ---------------------------------------------------------------------
// Waiting-layer hooks (out-of-line: they only run on contended slow
// paths, so a call is free next to the spin/yield/futex they sit by).
// They attribute to t_attr — slot 0 when no attribution is current.
// A park or retry also records the parked census it registered into
// (`parked` threads on the bucket of `addr`) as a high-water.
// ---------------------------------------------------------------------

void wl_contended() noexcept;  ///< a waiter queued behind a predecessor
/// A waiter is entering futex_wait.
void wl_park(const void* addr, std::uint32_t parked) noexcept;
void wl_unpark() noexcept;     ///< a waiter is back from futex_wait
/// A park round's re-check found the wait over: no sleep.
void wl_retry(const void* addr, std::uint32_t parked) noexcept;
void wl_wake() noexcept;       ///< a publisher issued a wake syscall
void wl_gate_skip() noexcept;  ///< a publisher skipped it: none parked
void wl_escalate() noexcept;   ///< an escalating wait changed tier

// ---------------------------------------------------------------------
// Handle registry (cold paths; allocation-free, spinlock-guarded so
// the shim may register its family handles from inside an interposed
// pthread operation).
// ---------------------------------------------------------------------

/// Register (or re-reference) the named handle. Handles are
/// refcounted by name: two AnyLocks sharing a telemetry name share a
/// handle (how a sharded structure reports as one logical lock).
/// Returns {0} when the table is full or the name is empty; names
/// longer than the fixed entry buffer are truncated.
TelemetryHandle register_handle(std::string_view name) noexcept;

/// Drop one reference; the last release zeroes every thread's slot
/// and the retired accumulator for the id, so a later register_handle
/// reusing the slot starts from scratch.
void release_handle(TelemetryHandle h) noexcept;

/// The registered name for a live handle ("" for id 0 / free slots).
std::string_view handle_name(TelemetryHandle h) noexcept;

/// Fold an exiting thread's slab into the retired accumulator and
/// invalidate its t_slab cache. Called by ThreadRegistry::
/// deregister_rec on the exiting thread, under the registry lock.
void on_thread_exit(Slab& slab) noexcept;

// ---------------------------------------------------------------------
// Snapshot / export API (cold; may allocate — never called from lock
// paths).
// ---------------------------------------------------------------------

/// One lock's counter-table values, folded over every slab.
struct Counters {
#define HEMLOCK_TM_VALUE_FIELD(field, fold, heading) std::uint64_t field = 0;
  HEMLOCK_TM_COUNTERS(HEMLOCK_TM_VALUE_FIELD)
#undef HEMLOCK_TM_VALUE_FIELD

  /// Fold `o` in, each counter by its Fold.
  void add(const Counters& o) noexcept;
  /// True when any counter is nonzero.
  bool any() const noexcept;
};

/// One lock's folded duration histogram: bucket b counts the samples
/// in [2^b, 2^(b+1)) ns (bucket 0 also holds 0, the top bucket
/// everything past 2^39). Allocation-free, so the SIGUSR1 report reads
/// its quantiles through the same code the JSON export does.
struct Log2Histogram {
  std::uint64_t buckets[kHistBuckets] = {};

  /// Samples recorded.
  std::uint64_t count() const noexcept;
  /// The nearest-rank q-quantile, q in [0, 1], as the upper edge of the
  /// bucket holding the ceil(q·count)-th smallest sample (0 if empty).
  std::uint64_t quantile(double q) const noexcept;
  /// The upper edge of the highest non-empty bucket (0 if empty).
  std::uint64_t max() const noexcept { return quantile(1.0); }
};

/// One per-lock row of a snapshot: counters and histograms folded over
/// live threads plus the retired fold.
struct LockTelemetry : Counters {
  std::string name;
  Log2Histogram wait_ns;
  Log2Histogram hold_ns;

  /// True when every counter and both histograms are zero (rows like
  /// this are omitted from reports).
  bool empty() const noexcept {
    return !any() && wait_ns.count() == 0 && hold_ns.count() == 0;
  }
};

/// The waiting-tier governor's block: its census, read live, and the
/// parking protocol's totals over the per-lock rows.
struct GovernorTelemetry {
  std::uint32_t cpus = 0;
  std::uint32_t waiters = 0;
  std::uint32_t parked_total = 0;
  std::uint64_t wake_syscalls = 0;     ///< sum of `wakes`
  std::uint64_t wake_gate_skips = 0;   ///< sum of `gate_skips`
  std::uint64_t park_sleeps = 0;       ///< sum of `parks`
  std::uint64_t park_wakeups = 0;      ///< sum of `park_returns`
  std::uint64_t baseline_retries = 0;  ///< sum of `baseline_retries`
  std::uint64_t escalations = 0;       ///< sum of `escalations`
  std::uint32_t census_high_water_max = 0;  ///< max over the rows
  std::uint32_t census_high_water_bucket = 0;
};

/// The paper's §5.4 characterization over the per-lock rows: "we found
/// 24 instances of calls to lock where a thread already held at least
/// one other lock ... The maximum number of locks held simultaneously
/// by any thread was 2. The maximum number of threads waiting
/// simultaneously on any Grant field was 1, thus the application
/// enjoyed purely local spinning." Counted only while LockProfiler
/// (runtime/thread_rec.hpp) is on.
struct LockUsageProfile {
  std::uint64_t nested_acquires = 0;   ///< sum of `nested_acquires`
  std::uint32_t max_locks_held = 0;    ///< max of `max_held`
  std::uint32_t max_grant_waiters = 0; ///< max of `max_grant_waiters`

  /// True when the profile implies purely local spinning (§5.4).
  bool purely_local() const noexcept { return max_grant_waiters <= 1; }

  /// Paper-style report block.
  std::string describe() const;
};

/// Epoch-domain stats for the process-global domain (limbo depth,
/// retire/drain counts, blocked advances).
struct EpochTelemetry {
  std::uint64_t epoch = 0;
  std::uint64_t pending = 0;
  std::uint64_t freed = 0;
  std::uint64_t advances = 0;
  std::uint64_t advance_blocked = 0;
};

/// Condvar-overlay lifecycle counters (plain values; the interpose
/// layer materializes these from ShimCond's CondStats and registers a
/// source below — the stats layer never depends on interpose).
struct CondCounters {
  std::uint64_t adopted = 0;
  std::uint64_t waits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t signals = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t requeued = 0;
  std::uint64_t chain_wakes = 0;
};

/// A full telemetry snapshot.
struct Snapshot {
  std::vector<LockTelemetry> locks;  ///< non-empty rows, handle order
  GovernorTelemetry governor;        ///< totals derived from `locks`
  LockUsageProfile profile;          ///< §5.4, derived from `locks`
  EpochTelemetry epoch;
  CondCounters cond;
  bool cond_present = false;  ///< a cond source was registered
};

/// Collect a snapshot: retired fold first, then a registry walk over
/// live slabs (racy-consistent — exact once the measured threads have
/// quiesced).
Snapshot collect();

/// Zero every live slab's counters and the retired accumulator, and
/// with them every total derived from the rows (the epoch domain's
/// counters are owned by the domain and are not reset here; neither is
/// the §5.4 held gauge, which tracks live holds).
void reset();

/// Register the condvar-counter source (interpose layer start-up).
void set_cond_source(CondCounters (*source)());

/// Render a snapshot as the hemlock-telemetry-v1 JSON document.
std::string to_json(const Snapshot& snap);

/// Human-readable per-lock table + governor/epoch/cond summaries,
/// written with snprintf+write only (no allocation, no stdio locks) so
/// the SIGUSR1 handler can share it. Not strictly async-signal-safe —
/// see docs/OBSERVABILITY.md for the caveat.
void report_to_fd(int fd);

/// Process the HEMLOCK_STATS / HEMLOCK_TRACE environment (install
/// atexit exporters, the SIGUSR1 handler, and the flight recorder).
/// Runs automatically at library load; idempotent and exposed for
/// tests.
void init_from_env();

}  // namespace hemlock::telemetry
