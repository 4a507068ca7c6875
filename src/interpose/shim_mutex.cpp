#include "interpose/shim_mutex.hpp"

#include <errno.h>

#include <cstdlib>

#include "interpose/overlay.hpp"

namespace hemlock::interpose {

namespace {

constexpr HostRule kRule{"mutex", "HEMLOCK_LOCK", kDefaultLockName,
                         &shim_hostable, /*rwlock_siblings=*/false};

constexpr OverlaySurface<ShimMutex, pthread_mutex_t, pthread_mutexattr_t>
    kSurface{"pthread_mutex",
             &pthread_mutexattr_getpshared,
             &RealPthread::mutex_init,
             &RealPthread::mutex_destroy,
             [](ShimMutex& sm, const pthread_mutexattr_t*) {
               sm.vt = &selected_lock();
               sm.vt->construct(sm.storage);
             },
             [](ShimMutex& sm) { sm.vt->destroy(sm.storage); }};

telemetry::TelemetryHandle family_row() {
  static const telemetry::TelemetryHandle h =
      register_family_row(kRule.kind, selected_lock());
  return h;
}

}  // namespace

std::vector<std::string_view> supported_lock_names() {
  return hostable_names(&shim_hostable);
}

const LockVTable& resolve_shim_lock(const char* lock_env,
                                    const char* wait_env) noexcept {
  return resolve_hosted(kRule, lock_env, wait_env);
}

const LockVTable& selected_lock() {
  static const LockVTable& vt =
      resolve_shim_lock(std::getenv(kRule.env), std::getenv("HEMLOCK_WAIT"));
  return vt;
}

int ShimMutex::shim_init(pthread_mutex_t* m, const pthread_mutexattr_t* attr) {
  return kSurface.init(m, attr);
}

int ShimMutex::shim_destroy(pthread_mutex_t* m) { return kSurface.destroy(m); }

int ShimMutex::shim_lock(pthread_mutex_t* m) {
  if (ForeignRegistry::contains(m)) return real_pthread().mutex_lock(m);
  ShimMutex* sm = kSurface.adopt(m);
  hosted::lock(*sm->vt, sm->storage, family_row());
  return 0;
}

int ShimMutex::shim_trylock(pthread_mutex_t* m) {
  if (ForeignRegistry::contains(m)) return real_pthread().mutex_trylock(m);
  ShimMutex* sm = kSurface.adopt(m);
  return hosted::try_lock(*sm->vt, sm->storage, family_row()) ? 0 : EBUSY;
}

int ShimMutex::shim_unlock(pthread_mutex_t* m) {
  if (ForeignRegistry::contains(m)) return real_pthread().mutex_unlock(m);
  ShimMutex* sm = kSurface.adopt(m);
  hosted::unlock(*sm->vt, sm->storage, family_row());
  return 0;
}

}  // namespace hemlock::interpose
