// shim_mutex.hpp — pthread_mutex_t overlay hosting any library lock.
//
// The paper's evaluation (§5): "We implemented all user-mode locks
// within LD_PRELOAD interposition libraries that expose the standard
// POSIX pthread_mutex_t programming interface ... This allows us to
// change lock implementations by varying the LD_PRELOAD environment
// variable and without modifying the application code that uses
// locks."
//
// ShimMutex is that mechanism's core: the selected lock algorithm's
// state is embedded *inside* the application's pthread_mutex_t
// storage (40 bytes on glibc/x86-64). The algorithm is chosen once
// per process from the HEMLOCK_LOCK environment variable, resolved
// through the LockFactory — the same roster and the same
// name→algorithm dispatch as every other consumer; the shim keeps no
// table of its own. An algorithm is eligible ("hostable") iff its
// LockInfo says it fits the overlay budget and is
// pthread_overlay_safe. Statically initialized mutexes
// (PTHREAD_MUTEX_INITIALIZER — all-zero storage on glibc) are
// adopted lazily and race-safely on first use.
//
// This overlay is data over the shared overlay core
// (interpose/overlay.hpp): the core owns adoption, pshared routing,
// the selection rule and the telemetry row; shim_mutex.cpp supplies
// the hostability predicate, the default family (hemlock) and the
// construct step, and runs each operation through the same attributed
// erased ops as AnyLock (api/any_lock.hpp).
//
// Limitations (documented, matching the technique's scope):
//  * pthread_cond_* on an interposed mutex goes through the condvar
//    overlay (shim_cond.hpp) — glibc's own condvar would manipulate
//    raw mutex internals that no longer exist, so the preload library
//    interposes the full pthread_cond_* family alongside the mutexes.
//  * hemlock-ah is NOT hostable: Appendix B shows its speculative
//    unlock store is unsafe when a pthread mutex's memory can be
//    freed by its last user (the linux-kernel / glibc bug-13690
//    pathology the paper cites).
//  * hemlock-cv is NOT hostable: its parking path uses the very
//    pthread primitives being interposed.
#pragma once

#include <pthread.h>
#include <time.h>

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "api/any_lock.hpp"

namespace hemlock::interpose {

/// Overlay budget for the hosted lock's state: what remains of
/// glibc's pthread_mutex_t after the adoption header.
inline constexpr std::size_t kShimStorageBytes = 24;
inline constexpr std::size_t kShimStorageAlign = 8;

/// True iff the algorithm may be hosted inside an interposed
/// pthread_mutex_t: fits the overlay budget and carries no lifecycle
/// hazard (info.pthread_overlay_safe).
constexpr bool shim_hostable(const LockInfo& info) noexcept {
  return info.size_bytes <= kShimStorageBytes &&
         info.align_bytes <= kShimStorageAlign && info.pthread_overlay_safe;
}

/// Factory names the shim accepts from HEMLOCK_LOCK (the hostable
/// subset of LockFactory::names(), registry order).
std::vector<std::string_view> supported_lock_names();

/// The pure selection rule behind selected_lock(), exposed for tests:
/// resolve (HEMLOCK_LOCK, HEMLOCK_WAIT) to a hostable factory entry —
/// the overlay core's resolve_hosted() (interpose/overlay.hpp) with
/// the mutex overlay's data. Unknown or non-hostable names fall back
/// to kDefaultLockName (reported on stderr); HEMLOCK_WAIT re-selects
/// the waiting tier within the chosen family, and unset/"auto" hosts a
/// pure-spin algorithm as its governed "-adaptive" variant.
/// Allocation-free (this runs inside the application's first
/// pthread_mutex operation).
const LockVTable& resolve_shim_lock(const char* lock_env,
                                    const char* wait_env) noexcept;

/// Process-wide selection: resolve_shim_lock($HEMLOCK_LOCK,
/// $HEMLOCK_WAIT), computed once on first use.
const LockVTable& selected_lock();

/// The overlay. POSIX storage is adopted in place; all-zero bytes
/// (PTHREAD_MUTEX_INITIALIZER or fresh pthread_mutex_init) read as
/// "not yet adopted".
struct ShimMutex {
  static constexpr std::uint32_t kReady = 0x48454D4C;    // "HEML"
  static constexpr std::uint32_t kIniting = 0x494E4954;  // "INIT"

  std::atomic<std::uint32_t> magic;
  /// Dispatch table of the hosted algorithm (a static factory entry;
  /// set during adoption, constant thereafter).
  const LockVTable* vt;
  alignas(kShimStorageAlign) unsigned char storage[kShimStorageBytes];

  // ---- the pthread_mutex_* surface -----------------------------------
  /// pthread_mutex_init: adopt eagerly with the process-wide choice.
  /// A PTHREAD_PROCESS_SHARED attr routes the mutex to glibc instead
  /// (our overlay is process-local; hosting a pshared mutex would
  /// corrupt its cross-process users) — see interpose/foreign.hpp.
  /// Other attributes (recursive/errorcheck/robust) are not modelled.
  static int shim_init(pthread_mutex_t* m,
                       const pthread_mutexattr_t* attr = nullptr);
  /// pthread_mutex_destroy.
  static int shim_destroy(pthread_mutex_t* m);
  /// pthread_mutex_lock.
  static int shim_lock(pthread_mutex_t* m);
  /// pthread_mutex_trylock (EBUSY when held; algorithms without a
  /// native try_lock — CLH — conservatively report EBUSY, which
  /// callers must treat as "retry or lock()" anyway).
  static int shim_trylock(pthread_mutex_t* m);
  /// pthread_mutex_timedlock (CLOCK_REALTIME) and
  /// pthread_mutex_clocklock: the overlay core's deadline-polled
  /// acquire, ETIMEDOUT once `abstime` passes. Without a native
  /// try_lock (CLH) there is nothing to poll, so these take the
  /// blocking lock() and always acquire — the waiting counterpart of
  /// trylock's conservative EBUSY.
  static int shim_timedlock(pthread_mutex_t* m,
                            const struct timespec* abstime);
  static int shim_clocklock(pthread_mutex_t* m, clockid_t clock,
                            const struct timespec* abstime);
  /// pthread_mutex_unlock.
  static int shim_unlock(pthread_mutex_t* m);
};

static_assert(sizeof(ShimMutex) <= sizeof(pthread_mutex_t),
              "overlay must fit inside pthread_mutex_t");

}  // namespace hemlock::interpose
