#include "interpose/shim_cond.hpp"

#include <errno.h>
#include <sched.h>
#include <time.h>

#include <cstdio>
#include <cstring>

#include "interpose/overlay.hpp"
#include "interpose/shim_mutex.hpp"
#include "runtime/futex.hpp"

namespace hemlock::interpose {

std::vector<std::string_view> supported_cond_lock_names() {
  return hostable_names(&shim_cond_capable);
}

CondStats& cond_stats() noexcept {
  static CondStats stats;
  return stats;
}

namespace {

/// Construction of a claimed pthread_cond_t: the all-zero state
/// (PTHREAD_COND_INITIALIZER) is already a valid fresh condvar, so
/// only the lifecycle accounting and the condattr clock remain.
void construct(ShimCond& sc, const pthread_condattr_t* attr) {
  // mo: relaxed — monotonic stats counter, no ordering needed.
  cond_stats().adopted.fetch_add(1, std::memory_order_relaxed);
  // Registered here, not at static init, so the telemetry snapshot
  // carries a cond block exactly when the condvar overlay was
  // exercised (re-registration by later adoptions is idempotent).
  telemetry::set_cond_source(+[] {
    const CondStats& s = cond_stats();
    return telemetry::CondCounters{
        // mo: relaxed — monotonic diagnostics; a snapshot tolerates
        // counters read mid-update.
        s.adopted.load(std::memory_order_relaxed),
        s.waits.load(std::memory_order_relaxed),
        s.timeouts.load(std::memory_order_relaxed),
        s.signals.load(std::memory_order_relaxed),
        s.broadcasts.load(std::memory_order_relaxed),
        s.requeued.load(std::memory_order_relaxed),
        s.chain_wakes.load(std::memory_order_relaxed)};
  });
  clockid_t ck = CLOCK_REALTIME;
  if (attr != nullptr && pthread_condattr_getclock(attr, &ck) == 0) {
    // mo: relaxed — adoption's kReady release publishes it.
    sc.clock.store(static_cast<std::int32_t>(ck), std::memory_order_relaxed);
  }
}

/// Destroy drain: threads still inside wait (POSIX allows destroy as
/// soon as they have all been *signaled*) may not have deregistered
/// yet. Keep bumping seq — so a waiter between unlock and sleep refuses
/// the sleep — and waking both words until every waiter has made its
/// final touch of this storage. Waiters deregister before re-acquiring
/// the mutex, so this loop terminates even when the destroyer still
/// holds the associated mutex.
void drain(ShimCond& sc) {
  // mo: acquire drain — pairs with waiters' release deregistration,
  // so zero means every waiter's last touch of this storage is
  // visible before destroy's scrub.
  while (sc.waiters.load(std::memory_order_acquire) != 0) {
    // mo: seq_cst bump — same total order as the waiters' snapshot,
    // so a waiter between unlock and sleep refuses the stale sleep.
    sc.seq.fetch_add(1, std::memory_order_seq_cst);
    futex_wake_all(&sc.seq);
    futex_wake_all(&sc.chain);
    sched_yield();
  }
}

constexpr OverlaySurface<ShimCond, pthread_cond_t, pthread_condattr_t>
    kSurface{"pthread_cond",          &pthread_condattr_getpshared,
             &RealPthread::cond_init, &RealPthread::cond_destroy,
             &construct,              &drain};

/// Nanoseconds until `abstime` on `clock`; <= 0 when the deadline has
/// passed. Large deadlines are clamped (no int64 overflow from
/// TIME_MAX-style sentinels applications like to pass).
std::int64_t nanos_until(clockid_t clock, const struct timespec* abstime) {
  struct timespec now;
  if (clock_gettime(clock, &now) != 0) return 0;
  const std::int64_t sec = static_cast<std::int64_t>(abstime->tv_sec) -
                           static_cast<std::int64_t>(now.tv_sec);
  if (sec > 1000000000LL) return 1000000000000000000LL;  // ~31 years
  if (sec < -1000000000LL) return -1;
  return sec * 1000000000LL +
         (static_cast<std::int64_t>(abstime->tv_nsec) - now.tv_nsec);
}

/// Hand one chained sleeper over: wake a single waiter that broadcast
/// requeued onto the chain word. Runs on every path out of a wait
/// (normal, spurious, timed out), so a sleeper leaving without
/// consuming a wake still propagates the chain — the unraveling
/// survives timeouts.
///
/// The wake is normally paid for with a credit (skipping the syscall
/// when none remain — the signal-only common case). While a broadcast
/// window is open, though, credits lag reality: the requeue may have
/// parked sleepers whose credits are not posted yet, and a credit
/// claimed *now* could spend its wake on the still-empty chain an
/// instant before they arrive — stranding one of them forever. So an
/// open window forces the unconditional wake and leaves the credits
/// alone; a wasted wake on an empty chain is one no-op syscall.
void hand_over_chain(ShimCond* sc) {
  // mo: seq_cst window check and credit claim — totally ordered
  // against broadcast's window open / requeue / credit post sequence,
  // so a credit can never be claimed inside a window it cannot see.
  if (sc->windows.load(std::memory_order_seq_cst) == 0) {
    std::int32_t credits = sc->chained.load(std::memory_order_seq_cst);
    while (credits > 0 &&
           // mo: seq_cst claim — same total order as above.
           !sc->chained.compare_exchange_weak(credits, credits - 1,
                                              std::memory_order_seq_cst)) {
    }
    if (credits <= 0) return;
  }
  futex_wake(&sc->chain, 1);
  // mo: relaxed — monotonic stats counter, no ordering needed.
  cond_stats().chain_wakes.fetch_add(1, std::memory_order_relaxed);
}

int wait_common(pthread_cond_t* c, pthread_mutex_t* m, clockid_t clock,
                const struct timespec* abstime) {
  if (c == nullptr || m == nullptr) return EINVAL;
  if (abstime != nullptr &&
      (abstime->tv_nsec < 0 || abstime->tv_nsec >= 1000000000L)) {
    return EINVAL;  // checked before any state change: the mutex stays held
  }
  ShimCond* sc = kSurface.adopt(c);
  // mo: relaxed — monotonic stats counter, no ordering needed.
  cond_stats().waits.fetch_add(1, std::memory_order_relaxed);

  // POSIX requires every concurrent waiter to use the same mutex;
  // glibc makes the mismatch undefined, we make it EINVAL.
  // mo: relaxed mutex association — a best-effort diagnostic, not a
  // synchronization edge (the seq_cst census guards the real check);
  // callers holding m serialize the store.
  pthread_mutex_t* prev = sc->mutex.load(std::memory_order_relaxed);
  if (prev != m) {
    // mo: seq_cst census read — ordered against waiters' seq_cst
    // registration so a zero here proves no concurrent waiter.
    if (prev != nullptr && sc->waiters.load(std::memory_order_seq_cst) != 0) {
      return EINVAL;
    }
    sc->mutex.store(m, std::memory_order_relaxed);  // mo: see above
  }

  // Register before snapshotting: signal's skip-the-syscall gate loads
  // the census after its seq bump, so a registered waiter either gets
  // the wake syscall or observes the bumped sequence at sleep time.
  // mo: seq_cst register-then-snapshot — Dekker with signal's seq_cst
  // bump-then-census-read; both orders in the single total order.
  sc->waiters.fetch_add(1, std::memory_order_seq_cst);
  const std::uint32_t snap = sc->seq.load(std::memory_order_seq_cst);

  ShimMutex::shim_unlock(m);

  // One sleep, no re-check loop: whatever ends the sleep — a signal's
  // wake, a requeued chain hand-over, a timeout, EINTR, or the kernel
  // refusing because seq already moved — surfaces to the caller as a
  // (POSIX-sanctioned) possibly-spurious wakeup. The lost-wakeup race
  // between unlock and sleep is closed by futex's atomic compare of
  // seq against the pre-unlock snapshot.
  bool timed_out = false;
  if (abstime == nullptr) {
    futex_wait(&sc->seq, snap);
  } else {
    const std::int64_t rel = nanos_until(clock, abstime);
    if (rel <= 0) {
      timed_out = true;
    } else {
      // ETIMEDOUT comes from the kernel's clock, not a userspace
      // re-read racing the wakeup; every other reason reads as a wake.
      timed_out = futex_wait_for(&sc->seq, snap, rel) == ETIMEDOUT;
    }
  }

  // Both remaining touches of the condvar happen *before* the mutex
  // re-acquisition: a broadcaster may destroy the condvar as soon as
  // the drain below sees zero waiters, even while holding the mutex.
  hand_over_chain(sc);
  // mo: release deregistration — our final touch of the condvar
  // storage happens-before destroy's acquire drain observing zero.
  sc->waiters.fetch_sub(1, std::memory_order_release);

  ShimMutex::shim_lock(m);
  if (timed_out) {
    // mo: relaxed — monotonic stats counter, no ordering needed.
    cond_stats().timeouts.fetch_add(1, std::memory_order_relaxed);
    return ETIMEDOUT;
  }
  return 0;
}

}  // namespace

int ShimCond::shim_init(pthread_cond_t* c, const pthread_condattr_t* attr) {
  return kSurface.init(c, attr);
}

int ShimCond::shim_destroy(pthread_cond_t* c) { return kSurface.destroy(c); }

namespace {

/// A glibc-routed (pshared) condvar may only wait on a glibc-routed
/// mutex: handing glibc's cond_wait a hemlock-hosted mutex would let
/// glibc manipulate the overlay bytes as its own mutex state. POSIX
/// already makes a pshared condvar with a non-pshared mutex
/// undefined; the shim makes it a loud EINVAL.
bool foreign_wait_mutex_ok(pthread_mutex_t* m) {
  if (m != nullptr && ForeignRegistry::contains(m)) return true;
  static std::atomic<bool> warned{false};
  // mo: relaxed — once-only warning gate; no data is published.
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "[hemlock-interpose] PROCESS_SHARED condvar waited on a "
                 "process-local (hemlock-hosted) mutex: refusing with "
                 "EINVAL — a pshared condvar needs a pshared mutex\n");
  }
  return false;
}

}  // namespace

int ShimCond::shim_wait(pthread_cond_t* c, pthread_mutex_t* m) {
  if (c != nullptr && ForeignRegistry::contains(c)) {
    if (!foreign_wait_mutex_ok(m)) return EINVAL;
    return real_pthread().cond_wait(c, m);
  }
  return wait_common(c, m, CLOCK_REALTIME, nullptr);
}

int ShimCond::shim_timedwait(pthread_cond_t* c, pthread_mutex_t* m,
                             const struct timespec* abstime) {
  if (abstime == nullptr) return EINVAL;
  if (c != nullptr && ForeignRegistry::contains(c)) {
    if (!foreign_wait_mutex_ok(m)) return EINVAL;
    return real_pthread().cond_timedwait(c, m, abstime);
  }
  if (c == nullptr) return EINVAL;
  // The deadline is measured on the condvar's configured clock
  // (condattr; CLOCK_REALTIME when defaulted or statically
  // initialized) — previously hard-coded to CLOCK_REALTIME, which
  // turned CLOCK_MONOTONIC deadlines into immediate timeouts.
  // mo: relaxed — clock is fixed at init time, before sharing.
  const auto clock = static_cast<clockid_t>(
      kSurface.adopt(c)->clock.load(std::memory_order_relaxed));
  return wait_common(c, m, clock, abstime);
}

int ShimCond::shim_clockwait(pthread_cond_t* c, pthread_mutex_t* m,
                             clockid_t clock,
                             const struct timespec* abstime) {
  if (abstime == nullptr) return EINVAL;
  if (c != nullptr && ForeignRegistry::contains(c)) {
    if (!foreign_wait_mutex_ok(m)) return EINVAL;
    const RealPthread& real = real_pthread();
    if (real.cond_clockwait != nullptr) {
      return real.cond_clockwait(c, m, clock, abstime);
    }
    return EINVAL;
  }
  if (clock != CLOCK_REALTIME && clock != CLOCK_MONOTONIC) return EINVAL;
  return wait_common(c, m, clock, abstime);
}

int ShimCond::shim_signal(pthread_cond_t* c) {
  if (c == nullptr) return EINVAL;
  if (ForeignRegistry::contains(c)) return real_pthread().cond_signal(c);
  ShimCond* sc = kSurface.adopt(c);
  // mo: relaxed — monotonic stats counter, no ordering needed.
  cond_stats().signals.fetch_add(1, std::memory_order_relaxed);
  // mo: seq_cst bump-then-census-read — Dekker with wait_common's
  // register-then-snapshot (see the census gate comment below).
  sc->seq.fetch_add(1, std::memory_order_seq_cst);
  // Census gate: a waiter registers (seq_cst) before snapshotting, so
  // reading zero here proves any not-yet-registered waiter will
  // snapshot the bumped sequence and refuse the stale sleep — the
  // syscall can be skipped. Signal wakes the seq word only: chained
  // sleepers were already awarded their broadcast and have dedicated
  // hand-over credits.
  // mo: seq_cst census read — the other half of the Dekker pair.
  if (sc->waiters.load(std::memory_order_seq_cst) != 0) {
    futex_wake(&sc->seq, 1);
  }
  return 0;
}

int ShimCond::shim_broadcast(pthread_cond_t* c) {
  if (c == nullptr) return EINVAL;
  if (ForeignRegistry::contains(c)) return real_pthread().cond_broadcast(c);
  ShimCond* sc = kSurface.adopt(c);
  // mo: relaxed — monotonic stats counter, no ordering needed.
  cond_stats().broadcasts.fetch_add(1, std::memory_order_relaxed);
  // mo: seq_cst bump-then-census-read — same Dekker gate as signal.
  const std::uint32_t newseq =
      sc->seq.fetch_add(1, std::memory_order_seq_cst) + 1;
  const std::uint32_t est = sc->waiters.load(std::memory_order_seq_cst);
  if (est == 0) return 0;  // same census gate as signal

  // Open the broadcast window: between the requeue (which creates
  // chain sleepers) and the credit add (which covers them), the
  // credit pool undercounts — hand_over_chain wakes unconditionally
  // while it observes the window, so a waiter departing mid-window
  // cannot burn a credit on the still-empty chain and strand a
  // sleeper. Credits are then posted with the syscall's exact count.
  // The requeue cap of est - 1 means est (a census of every
  // pre-broadcast waiter) always covers the herd; only *post*-
  // broadcast sleepers (FIFO: they queue behind it) can be left on
  // seq, for their own future signal.
  // mo: seq_cst window open — totally ordered against
  // hand_over_chain's window check and credit claim.
  sc->windows.fetch_add(1, std::memory_order_seq_cst);
  const long moved = futex_cmp_requeue(&sc->seq, newseq, /*wake=*/1,
                                       /*requeue_cap=*/est - 1, &sc->chain);
  if (moved < 0) {
    // A concurrent signal/broadcast bumped seq between our add and the
    // syscall's compare (EAGAIN): nothing was woken or requeued.
    // Correctness over herd-avoidance: wake everyone on seq.
    futex_wake_all(&sc->seq);
  } else if (moved > 1) {
    const long requeued = moved - 1;
    // mo: seq_cst credit post — must order before the window close
    // below in the same total order hand_over_chain reads.
    sc->chained.fetch_add(static_cast<std::int32_t>(requeued),
                          std::memory_order_seq_cst);
    // mo: relaxed — monotonic stats counter, no ordering needed.
    cond_stats().requeued.fetch_add(static_cast<std::uint64_t>(requeued),
                                    std::memory_order_relaxed);
  }
  // mo: seq_cst window close — after the credit post above.
  sc->windows.fetch_sub(1, std::memory_order_seq_cst);
  return 0;
}

}  // namespace hemlock::interpose
