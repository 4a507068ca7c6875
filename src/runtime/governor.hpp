// governor.hpp — the runtime contention governor for the waiting-tier
// subsystem.
//
// The paper's CTR waiting policy (§2.1) assumes a dedicated core per
// contender: "back-off in the busy-waiting loop is not useful". That
// assumption fails on oversubscribed hosts — through the LD_PRELOAD
// shim, a FIFO queue lock whose next owner has been preempted convoys
// at scheduler speed (one timeslice per hand-off). The governor is the
// process-wide sensor that decides *how* waiters should wait when the
// paper's regime does not hold: it compares the machine's CPU budget
// (nproc) against the number of threads currently inside an escalated
// waiting loop and recommends one of three tiers:
//
//   kSpin  — contenders fit the CPUs: busy-wait, paper-faithful.
//   kYield — mild oversubscription: interleave sched_yield so the
//            owner (or the next owner) can run.
//   kPark  — heavy oversubscription: sleep in the kernel via futex
//            and let the hand-off store wake the successor.
//
// The GovernedWaiting policy (core/waiting.hpp) consults tier() each
// escalation round; the fixed-tier policies use the governor only for
// the per-lock (address-bucketed) parked census that gates hand-off
// wakeups on the published word. The thresholds
// live in classify(), a pure function, so they are unit-testable
// without actually oversubscribing the test host (tests/test_governor).
#pragma once

#include <atomic>
#include <cstdint>

namespace hemlock {

/// Waiting tiers, in escalation order.
enum class WaitTier : std::uint8_t { kSpin = 0, kYield = 1, kPark = 2 };

/// Canonical tier names — the HEMLOCK_WAIT vocabulary and the factory
/// variant suffixes ("mcs-park" hosts the kPark tier).
constexpr const char* wait_tier_name(WaitTier t) noexcept {
  switch (t) {
    case WaitTier::kSpin: return "spin";
    case WaitTier::kYield: return "yield";
    case WaitTier::kPark: return "park";
  }
  return "?";
}

/// Parse a tier name ("spin" | "yield" | "park"). Returns false —
/// leaving *out untouched — for anything else (including nullptr).
bool parse_wait_tier(const char* s, WaitTier* out) noexcept;

/// Process-wide waiting-tier sensor. All counters are relaxed atomics:
/// they are advisory statistics that pick a waiting strategy, never
/// synchronization. Safe to consult from inside any lock's wait loop
/// (no allocation, no internal locking — this code runs inside the
/// interposition shim where a malloc could deadlock).
class ContentionGovernor {
 public:
  /// The process-wide governor. Reads HEMLOCK_WAIT once at first use:
  /// a valid tier name pins tier() for the whole process (the same
  /// override the shim applies by re-selecting the lock variant).
  static ContentionGovernor& instance() noexcept;

  /// The escalation rule, as a pure function of (CPU budget, live
  /// escalated waiters). `waiters + 1` approximates the runnable
  /// contenders (the waiters plus the owner they wait for):
  ///   runnable <= cpus      -> kSpin   (the paper's dedicated-core regime)
  ///   runnable <= 2 * cpus  -> kYield  (mild oversubscription)
  ///   otherwise             -> kPark   (spinning would starve the owner)
  static WaitTier classify(std::uint32_t cpus,
                           std::uint32_t waiters) noexcept {
    if (cpus == 0) cpus = 1;
    const std::uint32_t runnable = waiters + 1;
    if (runnable <= cpus) return WaitTier::kSpin;
    if (runnable <= 2 * cpus) return WaitTier::kYield;
    return WaitTier::kPark;
  }

  /// The currently recommended tier: the forced tier if one is pinned,
  /// else classify(nproc, live escalated waiters). Two relaxed loads —
  /// cheap enough to call every escalation round.
  WaitTier tier() noexcept {
    // mo: relaxed — advisory census reads; the tier choice is a
    // strategy hint, never synchronization (class comment).
    const std::uint8_t f = forced_.load(std::memory_order_relaxed);
    if (f != kAuto) return static_cast<WaitTier>(f);
    // mo: relaxed — advisory census read, as above.
    return classify(cpus_, waiters_.load(std::memory_order_relaxed));
  }

  /// Waiter census: a thread entering/leaving an escalated waiting
  /// loop (past the doorstep spin phase). Feeds classify().
  void begin_wait() noexcept {
    // mo: relaxed — advisory census; see tier().
    waiters_.fetch_add(1, std::memory_order_relaxed);
  }
  void end_wait() noexcept {
    // mo: relaxed — advisory census; see tier().
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
  /// Live escalated waiters right now.
  std::uint32_t waiters() const noexcept {
    // mo: relaxed — advisory census; see tier().
    return waiters_.load(std::memory_order_relaxed);
  }

  /// Number of per-address parked-census buckets (power of two). The
  /// census used to be one process-global counter, which made every
  /// parking lock inflate every *other* lock's publish path: one lock
  /// with a sleeper forced the wake syscall onto all unrelated locks'
  /// hand-off stores (ROADMAP follow-up). Hashing the waited word's
  /// address into a small bucket array bounds that cross-talk to hash
  /// collisions; collisions only ever cause extra (harmless) wakes,
  /// never missed ones, because a parker and its publisher always
  /// agree on the bucket — they hash the same address.
  static constexpr std::size_t kParkBuckets = 64;

  /// The census bucket for a waited word, exposed for tests. Drops the
  /// word-alignment bits, then folds higher bits in so arrays of locks
  /// (stride = one cache line or one pthread_mutex_t) spread out.
  static std::size_t park_bucket(const void* addr) noexcept {
    auto p = reinterpret_cast<std::uintptr_t>(addr) >> 3;
    return static_cast<std::size_t>(p ^ (p >> 6) ^ (p >> 12)) &
           (kParkBuckets - 1);
  }

  /// The parking protocol's totals since the last telemetry::reset(),
  /// read off the telemetry snapshot's governor block. The counts
  /// themselves live in the telemetry slabs; the governor keeps only
  /// its census. The fields keep the atomic `.load(order)` interface
  /// benchmark code reads.
  struct ParkTotals {
    std::atomic<std::uint64_t> escalations;
    std::atomic<std::uint64_t> park_sleeps;
  };
  ParkTotals diag() const;

  /// Parked census: a thread about to sleep in futex_wait on `addr` /
  /// back from it. Publishers of the same word read parked(addr)
  /// (after a seq_cst fence) to skip the wake syscall when nobody can
  /// possibly be sleeping on it. Returns the bucket's census including
  /// the caller.
  std::uint32_t begin_park(const void* addr) noexcept {
    auto& census = parked_[park_bucket(addr)];
    // mo: relaxed — the parker's seq_cst fence before sleeping (and
    // the publisher's before reading) order the census; see
    // waiting.hpp's park_on/wake_parked Dekker pair.
    return census.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void end_park(const void* addr) noexcept {
    // mo: relaxed — census decrement; an extra wake is harmless.
    parked_[park_bucket(addr)].fetch_sub(1, std::memory_order_relaxed);
  }
  /// Threads parked (or committing to park) on addr's bucket right now.
  std::uint32_t parked(const void* addr) const noexcept {
    // mo: relaxed — the caller's seq_cst fence (publish_and_wake)
    // supplies the store->load ordering this gate needs.
    return parked_[park_bucket(addr)].load(std::memory_order_relaxed);
  }
  /// Process-wide parked total (diagnostics and census-balance tests).
  std::uint32_t parked_total() const noexcept {
    std::uint32_t sum = 0;
    // mo: relaxed — diagnostic sum; no ordering implied.
    for (const auto& b : parked_) sum += b.load(std::memory_order_relaxed);
    return sum;
  }

  /// Pin tier() to `t` regardless of the census (tests, embedders).
  void force(WaitTier t) noexcept {
    // mo: relaxed — advisory pin; waiters pick it up on their next
    // escalation round.
    forced_.store(static_cast<std::uint8_t>(t), std::memory_order_relaxed);
  }
  /// Return tier() to automatic classification.
  void clear_force() noexcept {
    forced_.store(kAuto, std::memory_order_relaxed);  // mo: as force()
  }
  /// True when a tier is pinned.
  bool forced() const noexcept {
    return forced_.load(std::memory_order_relaxed) != kAuto;  // mo: advisory
  }

  /// The CPU budget classify() runs against (sampled once, at
  /// construction, via sysconf — no allocation, no locking).
  std::uint32_t cpus() const noexcept { return cpus_; }

 private:
  ContentionGovernor() noexcept;  // samples nproc, applies HEMLOCK_WAIT

  static constexpr std::uint8_t kAuto = 0xFF;

  std::uint32_t cpus_ = 1;
  std::atomic<std::uint32_t> waiters_{0};
  /// Per-address-bucket parked censuses (see park_bucket). Packed, not
  /// cache-padded: these words are touched only on park/unpark and on
  /// contended publishes — paths already paying a syscall.
  std::atomic<std::uint32_t> parked_[kParkBuckets]{};
  std::atomic<std::uint8_t> forced_{kAuto};
};

}  // namespace hemlock
