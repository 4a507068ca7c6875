// pthread_interpose.cpp — the LD_PRELOAD surface.
//
// Compiled only into libhemlock_preload.so. Defines the strong
// pthread_mutex_*, pthread_cond_* and pthread_rwlock_* symbols so a
// preloaded application's mutexes are transparently replaced by the
// HEMLOCK_LOCK-selected algorithm, its condition variables by the
// futex overlay that knows how to wait on those mutexes, and its
// reader-writer locks by the HEMLOCK_RWLOCK-selected compact rwlock —
// the paper's §5 evaluation mechanism, widened from mutex-only
// programs to the full wait/notify and read-mostly workloads real
// preload targets run:
//
//   LD_PRELOAD=libhemlock_preload.so HEMLOCK_LOCK=hemlock ./app
//
// Symbol versioning: glibc exports these functions under versioned
// names (x86-64: pthread_cond_* at the default GLIBC_2.3.2 plus the
// GLIBC_2.2.5 compat set; other architectures use their own baseline
// tags, e.g. GLIBC_2.17 on aarch64). We deliberately define the
// symbols UNVERSIONED: the dynamic linker's versioned lookup matches
// an unversioned definition in an interposing object against *any*
// requested version, so one definition here covers both glibc symbol
// versions on every architecture — whereas baking version tags in
// (.symver + a version script) would hardwire per-arch glibc history
// for zero additional coverage.
//
// Internal library synchronization is interposition-safe by
// construction: the thread registry uses a private raw spinlock, the
// node pools use only atomics, and the condvar overlay allocates
// nothing — no call path below re-enters the interposed surface
// except the overlay's own deliberate mutex re-acquisition.
#include <pthread.h>
#include <time.h>

#include "interpose/shim_cond.hpp"
#include "interpose/shim_mutex.hpp"
#include "interpose/shim_rwlock.hpp"

using hemlock::interpose::ShimCond;
using hemlock::interpose::ShimMutex;
using hemlock::interpose::ShimRwLock;

extern "C" {

// ---- pthread_mutex_* -------------------------------------------------

int pthread_mutex_init(pthread_mutex_t* m, const pthread_mutexattr_t* attr) {
  // PTHREAD_PROCESS_SHARED routes to glibc (the overlay is
  // process-local); other attributes (recursive/errorcheck/robust)
  // are not modelled — the paper's framework likewise exposes plain
  // mutex semantics.
  return ShimMutex::shim_init(m, attr);
}

int pthread_mutex_destroy(pthread_mutex_t* m) {
  return ShimMutex::shim_destroy(m);
}

int pthread_mutex_lock(pthread_mutex_t* m) { return ShimMutex::shim_lock(m); }

int pthread_mutex_trylock(pthread_mutex_t* m) {
  return ShimMutex::shim_trylock(m);
}

int pthread_mutex_timedlock(pthread_mutex_t* m,
                            const struct timespec* abstime) {
  return ShimMutex::shim_timedlock(m, abstime);
}

int pthread_mutex_clocklock(pthread_mutex_t* m, clockid_t clock,
                            const struct timespec* abstime) {
  return ShimMutex::shim_clocklock(m, clock, abstime);
}

int pthread_mutex_unlock(pthread_mutex_t* m) {
  return ShimMutex::shim_unlock(m);
}

// ---- pthread_cond_* --------------------------------------------------

int pthread_cond_init(pthread_cond_t* c, const pthread_condattr_t* attr) {
  // The condattr clock is honored (timedwait measures deadlines on
  // it); PTHREAD_PROCESS_SHARED routes to glibc.
  return ShimCond::shim_init(c, attr);
}

int pthread_cond_destroy(pthread_cond_t* c) {
  return ShimCond::shim_destroy(c);
}

int pthread_cond_wait(pthread_cond_t* c, pthread_mutex_t* m) {
  return ShimCond::shim_wait(c, m);
}

int pthread_cond_timedwait(pthread_cond_t* c, pthread_mutex_t* m,
                           const struct timespec* abstime) {
  return ShimCond::shim_timedwait(c, m, abstime);
}

int pthread_cond_clockwait(pthread_cond_t* c, pthread_mutex_t* m,
                           clockid_t clock, const struct timespec* abstime) {
  return ShimCond::shim_clockwait(c, m, clock, abstime);
}

int pthread_cond_signal(pthread_cond_t* c) { return ShimCond::shim_signal(c); }

int pthread_cond_broadcast(pthread_cond_t* c) {
  return ShimCond::shim_broadcast(c);
}

// ---- pthread_rwlock_* ------------------------------------------------

int pthread_rwlock_init(pthread_rwlock_t* rw,
                        const pthread_rwlockattr_t* attr) {
  return ShimRwLock::shim_init(rw, attr);
}

int pthread_rwlock_destroy(pthread_rwlock_t* rw) {
  return ShimRwLock::shim_destroy(rw);
}

int pthread_rwlock_rdlock(pthread_rwlock_t* rw) {
  return ShimRwLock::shim_rdlock(rw);
}

int pthread_rwlock_tryrdlock(pthread_rwlock_t* rw) {
  return ShimRwLock::shim_tryrdlock(rw);
}

int pthread_rwlock_timedrdlock(pthread_rwlock_t* rw,
                               const struct timespec* abstime) {
  return ShimRwLock::shim_timedrdlock(rw, abstime);
}

int pthread_rwlock_clockrdlock(pthread_rwlock_t* rw, clockid_t clock,
                               const struct timespec* abstime) {
  return ShimRwLock::shim_clockrdlock(rw, clock, abstime);
}

int pthread_rwlock_wrlock(pthread_rwlock_t* rw) {
  return ShimRwLock::shim_wrlock(rw);
}

int pthread_rwlock_trywrlock(pthread_rwlock_t* rw) {
  return ShimRwLock::shim_trywrlock(rw);
}

int pthread_rwlock_timedwrlock(pthread_rwlock_t* rw,
                               const struct timespec* abstime) {
  return ShimRwLock::shim_timedwrlock(rw, abstime);
}

int pthread_rwlock_clockwrlock(pthread_rwlock_t* rw, clockid_t clock,
                               const struct timespec* abstime) {
  return ShimRwLock::shim_clockwrlock(rw, clock, abstime);
}

int pthread_rwlock_unlock(pthread_rwlock_t* rw) {
  return ShimRwLock::shim_unlock(rw);
}

}  // extern "C"
