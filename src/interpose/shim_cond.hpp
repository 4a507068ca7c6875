// shim_cond.hpp — pthread_cond_t overlay: wait/notify over any
// AnyLock-backed interposed mutex.
//
// The mutex shim (shim_mutex.hpp) replaces a pthread_mutex_t's
// internals wholesale, which is exactly why glibc's own condvar can
// no longer wait on it: pthread_cond_wait manipulates raw glibc mutex
// state that the overlay destroyed. Until this layer existed, the
// interposition library simply refused condvar-using applications —
// a scope cut that excluded most real-world preload targets. ShimCond
// closes that gap with a self-contained, sequence-counted futex
// condvar whose only contact with the mutex is through the shim's own
// lock/unlock surface, so it composes with every hosted algorithm
// (hemlock, MCS, CLH, ticket, TAS, ... × every waiting tier).
//
// Adoption, pshared routing and the init/destroy prologues are the
// overlay core's (interpose/overlay.hpp), shared with the mutex and
// rwlock overlays; this file adds the condvar protocol itself.
//
// Protocol (the classic futex-sequence condvar, plus a requeue valve):
//
//  * wait: register in the waiter census, snapshot the sequence word,
//    release the mutex, sleep in futex_wait(seq, snapshot), then
//    re-acquire the mutex. A signal between the snapshot and the
//    sleep bumps `seq`, so the kernel's atomic compare refuses the
//    sleep — the lost-wakeup window is closed by futex itself. Any
//    kernel return surfaces as a (POSIX-permitted) spurious wakeup;
//    the caller's predicate loop absorbs it.
//  * signal: bump `seq`, wake one sleeper — syscall skipped when the
//    census says nobody can be sleeping.
//  * broadcast: bump `seq`, then FUTEX_CMP_REQUEUE — wake exactly one
//    waiter and *requeue* the rest onto the overlay's `chain` word
//    without running them. Each waiter that leaves the condvar wakes
//    at most one chained sleeper, so a broadcast releases at most one
//    new mutex contender per departing waiter instead of stampeding
//    the scheduler with N runnable threads that all immediately block
//    (glibc's pre-2.25 condvar used the same valve, requeueing onto
//    the mutex word; our hosted mutexes have no single futex word —
//    each algorithm parks on its own state — so the chain word plays
//    that role and hand-over happens at condvar exit).
//
// Where semantics diverge from glibc (documented in the README):
//  * timedwait measures its absolute deadline on the condvar's
//    configured clock (pthread_condattr_setclock; default
//    CLOCK_REALTIME) but converts it to a *relative* kernel timeout,
//    so a realtime clock jump during a CLOCK_REALTIME wait shifts
//    the effective deadline. clockwait accepts CLOCK_REALTIME or
//    CLOCK_MONOTONIC explicitly.
//  * wakeup-ordering fairness is the kernel futex queue's (FIFO per
//    word), not glibc's group machinery; a waiter that arrives after
//    a broadcast can be requeued with the herd and wake spuriously.
//  * destroy drains: it wakes and waits for every thread still inside
//    pthread_cond_wait to leave the condvar's memory before the
//    storage is scrubbed. Waiters touch the condvar only *before*
//    re-acquiring the mutex, so destroy-after-broadcast is safe even
//    while the caller still holds the associated mutex.
#pragma once

#include <pthread.h>
#include <time.h>

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "api/any_lock.hpp"
#include "interpose/shim_mutex.hpp"

namespace hemlock::interpose {

/// True iff the algorithm may back a condvar wait through the shim:
/// hostable in the mutex overlay and not opted out by its traits.
constexpr bool shim_cond_capable(const LockInfo& info) noexcept {
  return shim_hostable(info) && info.condvar_capable;
}

/// Factory names whose hosted mutexes support the condvar overlay
/// (the coverage the shim reports; currently every hostable name).
std::vector<std::string_view> supported_cond_lock_names();

/// Process-wide lifecycle counters for the condvar overlay, mirroring
/// the mutex shim's adoption discipline: monotonically increasing,
/// relaxed (diagnostics, never synchronization). Read via cond_stats().
struct CondStats {
  std::atomic<std::uint64_t> adopted{0};     ///< conds adopted (lazy or init)
  std::atomic<std::uint64_t> waits{0};       ///< wait + timedwait entries
  std::atomic<std::uint64_t> timeouts{0};    ///< timedwaits that timed out
  std::atomic<std::uint64_t> signals{0};     ///< pthread_cond_signal calls
  std::atomic<std::uint64_t> broadcasts{0};  ///< pthread_cond_broadcast calls
  std::atomic<std::uint64_t> requeued{0};    ///< waiters moved onto the chain
  std::atomic<std::uint64_t> chain_wakes{0}; ///< hand-over wakes of the chain
};

/// The process-wide condvar lifecycle counters.
CondStats& cond_stats() noexcept;

/// The overlay. POSIX storage is adopted in place by the overlay core
/// (interpose/overlay.hpp); all-zero bytes (PTHREAD_COND_INITIALIZER,
/// or fresh pthread_cond_init) are already a valid fresh state, so
/// adoption only counts the condvar and records the condattr clock.
struct ShimCond {
  static constexpr std::uint32_t kReady = 0x48434E44;    // "HCND"
  static constexpr std::uint32_t kIniting = 0x43494E49;  // "CINI"

  std::atomic<std::uint32_t> magic;
  /// Wakeup sequence: bumped by signal/broadcast; waiters sleep on it.
  std::atomic<std::uint32_t> seq;
  /// Requeue target: broadcast parks all-but-one waiter here; each
  /// waiter leaving the condvar hands over one chained sleeper.
  std::atomic<std::uint32_t> chain;
  /// Threads inside wait/timedwait that may still touch this storage
  /// (they deregister before re-acquiring the mutex — the destroy
  /// drain keys on this).
  std::atomic<std::uint32_t> waiters;
  /// Chain-wake credits: outside any broadcast window (below), an
  /// upper bound on the sleepers parked on `chain` — each departing
  /// waiter claims one credit and spends it on one chain wake, so the
  /// syscall is skipped whenever nobody can be chained. Credits are
  /// added with the *exact* requeued count, after the requeue syscall.
  std::atomic<std::int32_t> chained;
  /// Open broadcast windows: nonzero while some broadcast sits between
  /// its requeue (which creates chain sleepers) and its credit add
  /// (which covers them). Departing waiters that observe an open
  /// window wake the chain *unconditionally* instead of claiming a
  /// credit — a claimed credit whose wake lands on the still-empty
  /// chain would be spent without waking anyone, and the sleeper it
  /// was meant for would be stranded forever.
  std::atomic<std::uint32_t> windows;
  /// The clock pthread_cond_timedwait deadlines are measured on:
  /// pthread_condattr_setclock's choice, recorded at init. Zero —
  /// the lazy-adoption (PTHREAD_COND_INITIALIZER) state — is
  /// CLOCK_REALTIME, the POSIX default, so statically initialized
  /// condvars need no special case.
  std::atomic<std::int32_t> clock;
  /// The associated mutex, recorded at wait time. POSIX requires all
  /// concurrent waiters to use the same mutex; a mismatch while
  /// waiters are present is reported as EINVAL instead of UB.
  std::atomic<pthread_mutex_t*> mutex;

  // ---- the pthread_cond_* surface --------------------------------------
  /// pthread_cond_init. The condattr clock is honored (stored in
  /// `clock`, measured by timedwait); a PTHREAD_PROCESS_SHARED attr
  /// routes the condvar to glibc like the mutex shim does.
  static int shim_init(pthread_cond_t* c,
                       const pthread_condattr_t* attr = nullptr);
  /// pthread_cond_destroy: drain in-flight waiters, scrub storage.
  static int shim_destroy(pthread_cond_t* c);
  /// pthread_cond_wait.
  static int shim_wait(pthread_cond_t* c, pthread_mutex_t* m);
  /// pthread_cond_timedwait: absolute deadline on the condvar's
  /// configured clock (condattr clock; default CLOCK_REALTIME).
  static int shim_timedwait(pthread_cond_t* c, pthread_mutex_t* m,
                            const struct timespec* abstime);
  /// pthread_cond_clockwait (CLOCK_REALTIME or CLOCK_MONOTONIC).
  static int shim_clockwait(pthread_cond_t* c, pthread_mutex_t* m,
                            clockid_t clock, const struct timespec* abstime);
  /// pthread_cond_signal.
  static int shim_signal(pthread_cond_t* c);
  /// pthread_cond_broadcast (wake one, requeue the rest).
  static int shim_broadcast(pthread_cond_t* c);
};

static_assert(sizeof(ShimCond) <= sizeof(pthread_cond_t),
              "overlay must fit inside pthread_cond_t");
static_assert(alignof(ShimCond) <= alignof(pthread_cond_t),
              "overlay must not over-align pthread_cond_t storage");

}  // namespace hemlock::interpose
