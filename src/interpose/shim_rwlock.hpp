// shim_rwlock.hpp — pthread_rwlock_t overlay hosting the compact
// reader-writer family.
//
// The final piece of the preload story: with mutexes and condvars
// interposed, read-mostly applications — exactly the workloads where
// a compact scalable lock pays — still ran glibc's rwlock. This
// overlay embeds a library rwlock (locks/rwlock.hpp, the "-compact"
// instantiation: Hemlock writer path + packed reader ingress, 16
// bytes) inside the application's pthread_rwlock_t storage (56 bytes
// on glibc/x86-64), selected once per process from HEMLOCK_RWLOCK and
// re-tiered by HEMLOCK_WAIT exactly like the mutex shim's
// HEMLOCK_LOCK.
//
// Statically initialized rwlocks (PTHREAD_RWLOCK_INITIALIZER —
// all-zero storage on glibc) are adopted lazily and race-safely on
// first use, like the mutex overlay: adoption, pshared routing, the
// selection rule and the telemetry row are the shared overlay core's
// (interpose/overlay.hpp). This overlay's data for it: rwlock
// hostability, the compact family as default, and a too-big rwlock
// (the sharded family) hosted as its compact sibling in the same tier.
//
// Divergences from glibc, all documented in the README:
//  * POSIX's pthread_rwlock_unlock releases whichever mode the caller
//    holds; the overlay dispatches on a writer-hold marker set by
//    wrlock (readers never observe it set while they hold).
//  * the timed and clock entry points share one deadline-polled
//    acquire (bounded try + sleep) rather than queueing with a
//    deadline; the deadline itself is honored on the requested clock
//    (CLOCK_REALTIME for the timed ones, per POSIX).
//  * rwlockattr kind (reader/writer preference) is not modelled: the
//    hosted family is writer-preferring, matching glibc's
//    PREFER_WRITER_NONRECURSIVE_NP — recursive read acquisition can
//    deadlock behind a queued writer.
//  * PTHREAD_PROCESS_SHARED rwlocks are routed to glibc
//    (interpose/foreign.hpp), like pshared mutexes and condvars.
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

/// Overlay budget for the hosted rwlock's state: what remains of
/// glibc's pthread_rwlock_t after the adoption header.
inline constexpr std::size_t kShimRwStorageBytes =
    sizeof(pthread_rwlock_t) - 16;
inline constexpr std::size_t kShimRwStorageAlign = 8;

/// True iff the algorithm may be hosted inside an interposed
/// pthread_rwlock_t: a native shared mode, the overlay budget, and no
/// lifecycle hazard.
constexpr bool shim_rwlock_hostable(const LockInfo& info) noexcept {
  return info.rwlock_capable && info.size_bytes <= kShimRwStorageBytes &&
         info.align_bytes <= kShimRwStorageAlign &&
         info.pthread_overlay_safe;
}

/// Factory names the shim accepts from HEMLOCK_RWLOCK (the
/// rwlock-hostable subset of the roster, registry order).
std::vector<std::string_view> supported_rwlock_names();

/// The pure selection rule behind selected_rwlock(), exposed for
/// tests: resolve (HEMLOCK_RWLOCK, HEMLOCK_WAIT) to a hostable
/// factory entry. Unknown/non-hostable names fall back to the compact
/// rwlock family (reported on stderr); HEMLOCK_WAIT re-tiers within
/// the chosen family exactly as the mutex shim does, and auto mode
/// hosts busy-waiting selections as their governed variant.
const LockVTable& resolve_shim_rwlock(const char* rwlock_env,
                                      const char* wait_env) noexcept;

/// Process-wide selection: resolve_shim_rwlock($HEMLOCK_RWLOCK,
/// $HEMLOCK_WAIT), computed once on first use.
const LockVTable& selected_rwlock();

/// The overlay. POSIX storage is adopted in place; all-zero bytes
/// (PTHREAD_RWLOCK_INITIALIZER or fresh pthread_rwlock_init) read as
/// "not yet adopted".
struct ShimRwLock {
  static constexpr std::uint32_t kReady = 0x4852574C;    // "HRWL"
  static constexpr std::uint32_t kIniting = 0x52574930;  // "RWI0"

  std::atomic<std::uint32_t> magic;
  /// Nonzero while a writer holds: pthread_rwlock_unlock's mode
  /// dispatch (set after a write acquire, cleared before the write
  /// release; readers only run while no writer holds, so they always
  /// observe it clear).
  std::atomic<std::uint32_t> wheld;
  /// Dispatch table of the hosted algorithm (a static factory entry).
  const LockVTable* vt;
  alignas(kShimRwStorageAlign) unsigned char storage[kShimRwStorageBytes];

  // ---- the pthread_rwlock_* surface ----------------------------------
  static int shim_init(pthread_rwlock_t* rw,
                       const pthread_rwlockattr_t* attr = nullptr);
  static int shim_destroy(pthread_rwlock_t* rw);
  static int shim_rdlock(pthread_rwlock_t* rw);
  static int shim_tryrdlock(pthread_rwlock_t* rw);
  static int shim_timedrdlock(pthread_rwlock_t* rw,
                              const struct timespec* abstime);
  static int shim_clockrdlock(pthread_rwlock_t* rw, clockid_t clock,
                              const struct timespec* abstime);
  static int shim_wrlock(pthread_rwlock_t* rw);
  static int shim_trywrlock(pthread_rwlock_t* rw);
  static int shim_timedwrlock(pthread_rwlock_t* rw,
                              const struct timespec* abstime);
  static int shim_clockwrlock(pthread_rwlock_t* rw, clockid_t clock,
                              const struct timespec* abstime);
  static int shim_unlock(pthread_rwlock_t* rw);
};

static_assert(sizeof(ShimRwLock) <= sizeof(pthread_rwlock_t),
              "overlay must fit inside pthread_rwlock_t");
static_assert(alignof(ShimRwLock) <= alignof(pthread_rwlock_t),
              "overlay must not over-align pthread_rwlock_t storage");

}  // namespace hemlock::interpose
