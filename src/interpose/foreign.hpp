// foreign.hpp — routing PROCESS_SHARED pthread objects back to glibc.
//
// The interposition shim hosts lock state inside the application's
// pthread_mutex_t / pthread_cond_t / pthread_rwlock_t storage — state
// that is meaningful only inside this process (factory vtable
// pointers, ThreadRec addresses, private-futex words). An object
// initialized with PTHREAD_PROCESS_SHARED lives in shared memory and
// is operated on by *other* processes, which would read our
// process-local overlay as garbage: silently accepting such objects
// into the shim corrupts every cross-process user.
//
// The fix: pthread_*_init (OverlaySurface::init, interpose/overlay.hpp)
// detects the pshared attribute and routes the object to the real glibc
// implementation (resolved once via dlsym(RTLD_NEXT)), recording its
// address in a small fixed-size registry so every later operation on
// it is forwarded too. The
// registry is allocation-free (the shim runs inside arbitrary
// application callsites where a malloc could re-enter the interposed
// surface) and its lookup is one relaxed load when no pshared object
// exists — the overwhelmingly common case.
//
// Known limitation, documented in the README: detection happens at
// *init* time in this process. A pshared object initialized by a
// different (un-preloaded) process and used here without a local init
// is indistinguishable from adoptable storage.
#pragma once

#include <pthread.h>
#include <time.h>

#include <cstddef>

namespace hemlock::interpose {

/// Fixed-capacity, allocation-free set of pthread objects that must be
/// forwarded to glibc (pshared). contains() is wait-free and costs one
/// relaxed load while the set is empty.
class ForeignRegistry {
 public:
  static constexpr std::size_t kCapacity = 128;

  /// Record `obj` as glibc-owned. False (with a stderr report) when
  /// the table is full — the caller should fail its init loudly
  /// rather than silently mis-host the object.
  static bool insert(const void* obj) noexcept;
  /// Forget `obj` (its destroy was forwarded).
  static void erase(const void* obj) noexcept;
  /// True iff `obj` was routed to glibc by a local pthread_*_init.
  static bool contains(const void* obj) noexcept;
  /// Live routed-object count (tests).
  static std::size_t size() noexcept;
};

/// The real glibc entry points, resolved once via dlsym(RTLD_NEXT)
/// from whichever object interposed them. Null only on resolution
/// failure (non-glibc dynamic linking); callers must check `resolved`.
struct RealPthread {
  bool resolved = false;

  int (*mutex_init)(pthread_mutex_t*, const pthread_mutexattr_t*) = nullptr;
  int (*mutex_destroy)(pthread_mutex_t*) = nullptr;
  int (*mutex_lock)(pthread_mutex_t*) = nullptr;
  int (*mutex_trylock)(pthread_mutex_t*) = nullptr;
  int (*mutex_unlock)(pthread_mutex_t*) = nullptr;

  int (*cond_init)(pthread_cond_t*, const pthread_condattr_t*) = nullptr;
  int (*cond_destroy)(pthread_cond_t*) = nullptr;
  int (*cond_wait)(pthread_cond_t*, pthread_mutex_t*) = nullptr;
  int (*cond_timedwait)(pthread_cond_t*, pthread_mutex_t*,
                        const struct timespec*) = nullptr;
  int (*cond_signal)(pthread_cond_t*) = nullptr;
  int (*cond_broadcast)(pthread_cond_t*) = nullptr;
  /// glibc >= 2.30; may be null on older libcs.
  int (*cond_clockwait)(pthread_cond_t*, pthread_mutex_t*, clockid_t,
                        const struct timespec*) = nullptr;

  int (*rwlock_init)(pthread_rwlock_t*, const pthread_rwlockattr_t*) =
      nullptr;
  int (*rwlock_destroy)(pthread_rwlock_t*) = nullptr;
  int (*rwlock_rdlock)(pthread_rwlock_t*) = nullptr;
  int (*rwlock_tryrdlock)(pthread_rwlock_t*) = nullptr;
  int (*rwlock_timedrdlock)(pthread_rwlock_t*,
                            const struct timespec*) = nullptr;
  int (*rwlock_wrlock)(pthread_rwlock_t*) = nullptr;
  int (*rwlock_trywrlock)(pthread_rwlock_t*) = nullptr;
  int (*rwlock_timedwrlock)(pthread_rwlock_t*,
                            const struct timespec*) = nullptr;
  int (*rwlock_unlock)(pthread_rwlock_t*) = nullptr;
  /// glibc >= 2.30; may be null on older libcs.
  int (*rwlock_clockrdlock)(pthread_rwlock_t*, clockid_t,
                            const struct timespec*) = nullptr;
  int (*rwlock_clockwrlock)(pthread_rwlock_t*, clockid_t,
                            const struct timespec*) = nullptr;
};

/// The process-wide resolved table (dlsym'd on first use).
const RealPthread& real_pthread() noexcept;

/// Emit the once-per-process pshared routing notice.
void warn_pshared_once(const char* what) noexcept;

/// Emit the real-symbols-unresolved fallback notice for a pshared
/// `what` that will be hosted process-locally instead.
void warn_pshared_unroutable(const char* what) noexcept;

}  // namespace hemlock::interpose
