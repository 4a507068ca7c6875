#include "interpose/shim_rwlock.hpp"

#include <errno.h>

#include <cstdlib>

#include "interpose/overlay.hpp"

namespace hemlock::interpose {

namespace {

// The default hosted family is the compact one: the sharded "rwlock"
// names cannot fit the overlay, and their compact siblings are the same
// protocol with a packed ingress word.
constexpr HostRule kRule{"rwlock", "HEMLOCK_RWLOCK", "rwlock-compact",
                         &shim_rwlock_hostable, /*rwlock_siblings=*/true};

constexpr OverlaySurface<ShimRwLock, pthread_rwlock_t, pthread_rwlockattr_t>
    kSurface{"pthread_rwlock",
             &pthread_rwlockattr_getpshared,
             &RealPthread::rwlock_init,
             &RealPthread::rwlock_destroy,
             [](ShimRwLock& srw, const pthread_rwlockattr_t*) {
               srw.vt = &selected_rwlock();
               srw.vt->construct(srw.storage);
               // mo: relaxed — adoption's kReady release publishes it.
               srw.wheld.store(0, std::memory_order_relaxed);
             },
             [](ShimRwLock& srw) { srw.vt->destroy(srw.storage); }};

telemetry::TelemetryHandle family_row() {
  static const telemetry::TelemetryHandle h =
      register_family_row(kRule.kind, selected_rwlock());
  return h;
}

/// The one timed acquire behind pthread_rwlock_{timed,clock}{rd,wr}lock:
/// a reader (`shared`) or writer acquire, polled (bounded try + sleep)
/// until `abstime` on `clock`. Not a queued wait — the hosted
/// algorithms have no cancellable queue entry — but POSIX only promises
/// the deadline, which this honors on the kernel's clock. Telemetry
/// counts the whole wait as one attempt, however many probes it took.
/// `forward` runs a routed (pshared) rwlock's glibc entry point.
template <typename Forward>
int timed_lock(pthread_rwlock_t* rw, clockid_t clock,
               const struct timespec* abstime, bool shared,
               const Forward& forward) {
  if (rw == nullptr) return EINVAL;
  if (clock != CLOCK_REALTIME && clock != CLOCK_MONOTONIC) return EINVAL;
  if (ForeignRegistry::contains(rw)) return forward();
  if (abstime == nullptr || abstime->tv_nsec < 0 ||
      abstime->tv_nsec >= 1000000000L) {
    return EINVAL;
  }
  ShimRwLock* srw = kSurface.adopt(rw);
  const LockVTable& vt = *srw->vt;
  constexpr long kPollNanos = 500 * 1000;  // 0.5 ms between attempts
  int rc = 0;
  for (std::uint32_t spin = 0; !(shared ? vt.try_lock_shared(srw->storage)
                                        : vt.try_lock(srw->storage));
       ++spin) {
    struct timespec now;
    if (clock_gettime(clock, &now) != 0) return EINVAL;
    if (now.tv_sec > abstime->tv_sec ||
        (now.tv_sec == abstime->tv_sec && now.tv_nsec >= abstime->tv_nsec)) {
      rc = ETIMEDOUT;
      break;
    }
    if (spin < 64) {
      cpu_relax();
    } else {
      struct timespec nap{0, kPollNanos};
      nanosleep(&nap, nullptr);
    }
  }
  // mo: relaxed — holder-only flag; the lock orders it (shim_unlock).
  if (rc == 0 && !shared) srw->wheld.store(1, std::memory_order_relaxed);
  hosted::count_attempt(rc == 0, shared, family_row());
  return rc;
}

/// A clock-taking glibc entry point (glibc >= 2.30), or EINVAL where
/// the running libc lacks it.
template <typename Fn>
int forward_clocked(Fn* fn, pthread_rwlock_t* rw, clockid_t clock,
                    const struct timespec* abstime) {
  return fn != nullptr ? fn(rw, clock, abstime) : EINVAL;
}

}  // namespace

std::vector<std::string_view> supported_rwlock_names() {
  return hostable_names(&shim_rwlock_hostable);
}

const LockVTable& resolve_shim_rwlock(const char* rwlock_env,
                                      const char* wait_env) noexcept {
  return resolve_hosted(kRule, rwlock_env, wait_env);
}

const LockVTable& selected_rwlock() {
  static const LockVTable& vt = resolve_shim_rwlock(
      std::getenv(kRule.env), std::getenv("HEMLOCK_WAIT"));
  return vt;
}

int ShimRwLock::shim_init(pthread_rwlock_t* rw,
                          const pthread_rwlockattr_t* attr) {
  return kSurface.init(rw, attr);
}

int ShimRwLock::shim_destroy(pthread_rwlock_t* rw) {
  return kSurface.destroy(rw);
}

int ShimRwLock::shim_rdlock(pthread_rwlock_t* rw) {
  if (rw == nullptr) return EINVAL;
  if (ForeignRegistry::contains(rw)) return real_pthread().rwlock_rdlock(rw);
  ShimRwLock* srw = kSurface.adopt(rw);
  hosted::lock_shared(*srw->vt, srw->storage, family_row());
  return 0;
}

int ShimRwLock::shim_tryrdlock(pthread_rwlock_t* rw) {
  if (rw == nullptr) return EINVAL;
  if (ForeignRegistry::contains(rw)) {
    return real_pthread().rwlock_tryrdlock(rw);
  }
  ShimRwLock* srw = kSurface.adopt(rw);
  return hosted::try_lock_shared(*srw->vt, srw->storage, family_row())
             ? 0
             : EBUSY;
}

int ShimRwLock::shim_timedrdlock(pthread_rwlock_t* rw,
                                 const struct timespec* abstime) {
  return timed_lock(rw, CLOCK_REALTIME, abstime, /*shared=*/true, [&] {
    return real_pthread().rwlock_timedrdlock(rw, abstime);
  });
}

int ShimRwLock::shim_clockrdlock(pthread_rwlock_t* rw, clockid_t clock,
                                 const struct timespec* abstime) {
  return timed_lock(rw, clock, abstime, /*shared=*/true, [&] {
    return forward_clocked(real_pthread().rwlock_clockrdlock, rw, clock,
                           abstime);
  });
}

int ShimRwLock::shim_wrlock(pthread_rwlock_t* rw) {
  if (rw == nullptr) return EINVAL;
  if (ForeignRegistry::contains(rw)) return real_pthread().rwlock_wrlock(rw);
  ShimRwLock* srw = kSurface.adopt(rw);
  hosted::lock(*srw->vt, srw->storage, family_row());
  // mo: relaxed — wheld is only read by lock holders (see shim_unlock's
  // mode-dispatch comment); the lock itself orders it.
  srw->wheld.store(1, std::memory_order_relaxed);
  return 0;
}

int ShimRwLock::shim_trywrlock(pthread_rwlock_t* rw) {
  if (rw == nullptr) return EINVAL;
  if (ForeignRegistry::contains(rw)) {
    return real_pthread().rwlock_trywrlock(rw);
  }
  ShimRwLock* srw = kSurface.adopt(rw);
  if (!hosted::try_lock(*srw->vt, srw->storage, family_row())) return EBUSY;
  // mo: relaxed — holder-only flag; the lock orders it (shim_unlock).
  srw->wheld.store(1, std::memory_order_relaxed);
  return 0;
}

int ShimRwLock::shim_timedwrlock(pthread_rwlock_t* rw,
                                 const struct timespec* abstime) {
  return timed_lock(rw, CLOCK_REALTIME, abstime, /*shared=*/false, [&] {
    return real_pthread().rwlock_timedwrlock(rw, abstime);
  });
}

int ShimRwLock::shim_clockwrlock(pthread_rwlock_t* rw, clockid_t clock,
                                 const struct timespec* abstime) {
  return timed_lock(rw, clock, abstime, /*shared=*/false, [&] {
    return forward_clocked(real_pthread().rwlock_clockwrlock, rw, clock,
                           abstime);
  });
}

int ShimRwLock::shim_unlock(pthread_rwlock_t* rw) {
  if (rw == nullptr) return EINVAL;
  if (ForeignRegistry::contains(rw)) return real_pthread().rwlock_unlock(rw);
  ShimRwLock* srw = kSurface.adopt(rw);
  // Mode dispatch: wheld is set only between a write acquire and its
  // release, and readers run only while no writer holds — so a reader
  // unlocking always reads it clear, and the writer (the sole holder)
  // always reads its own store.
  // mo: relaxed — holder-only flag; the comment above is the
  // ordering argument (the rwlock itself is the synchronizer).
  if (srw->wheld.load(std::memory_order_relaxed) != 0) {
    srw->wheld.store(0, std::memory_order_relaxed);
    hosted::unlock(*srw->vt, srw->storage, family_row());
  } else {
    hosted::unlock_shared(*srw->vt, srw->storage, family_row());
  }
  return 0;
}

}  // namespace hemlock::interpose
