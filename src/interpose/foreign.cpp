#include "interpose/foreign.hpp"

#include <dlfcn.h>

#include <atomic>
#include <cstdio>

#include "runtime/raw_spinlock.hpp"

namespace hemlock::interpose {

namespace {

/// Slots hold routed object addresses; empty slots are null. The
/// library's raw spinlock guards mutations only — contains() scans
/// lock-free.
std::atomic<const void*> g_slots[ForeignRegistry::kCapacity];
std::atomic<std::size_t> g_count{0};
RawSpinLock g_mutate_lock;

}  // namespace

bool ForeignRegistry::insert(const void* obj) noexcept {
  RawSpinGuard g(g_mutate_lock);
  for (auto& slot : g_slots) {
    // mo: relaxed scan — the mutate lock is held; slots are stable.
    if (slot.load(std::memory_order_relaxed) == nullptr) {
      // mo: release — publishes the routed address to lock-free
      // contains() scans.
      slot.store(obj, std::memory_order_release);
      // Count is bumped after the slot is visible: a contains() that
      // reads the new count also sees the slot (release/acquire), and
      // the object's own init-before-use ordering covers the rest.
      // mo: release — see the comment above.
      g_count.fetch_add(1, std::memory_order_release);
      return true;
    }
  }
  std::fprintf(stderr,
               "[hemlock-interpose] pshared registry full (%zu objects); "
               "refusing to initialize another PROCESS_SHARED object\n",
               kCapacity);
  return false;
}

void ForeignRegistry::erase(const void* obj) noexcept {
  RawSpinGuard g(g_mutate_lock);
  for (auto& slot : g_slots) {
    // mo: relaxed scan — the mutate lock is held; slots are stable.
    if (slot.load(std::memory_order_relaxed) == obj) {
      // mo: release pair — unpublish the slot, then the count, so a
      // fast-path contains() that still sees count>0 rescans safely.
      slot.store(nullptr, std::memory_order_release);
      g_count.fetch_sub(1, std::memory_order_release);
      return;
    }
  }
}

bool ForeignRegistry::contains(const void* obj) noexcept {
  // mo: acquire fast path — pairs with insert's count release; a
  // nonzero count guarantees the slot stores below are visible.
  if (g_count.load(std::memory_order_acquire) == 0) return false;
  for (const auto& slot : g_slots) {
    // mo: acquire — pairs with insert's slot release store.
    if (slot.load(std::memory_order_acquire) == obj) return true;
  }
  return false;
}

std::size_t ForeignRegistry::size() noexcept {
  // mo: acquire — diagnostic read, ordered after the latest insert.
  return g_count.load(std::memory_order_acquire);
}

namespace {

template <typename Fn>
void resolve(Fn*& out, const char* name) noexcept {
  // RTLD_NEXT: the definition after the object containing this call —
  // glibc's, whether this code sits in the preload .so or in a test
  // binary linking hemlock_core directly. dlsym performs no
  // allocation on this path, so it is safe inside the shim.
  out = reinterpret_cast<Fn*>(dlsym(RTLD_NEXT, name));
}

RealPthread resolve_real() noexcept {
  RealPthread r;
  resolve(r.mutex_init, "pthread_mutex_init");
  resolve(r.mutex_destroy, "pthread_mutex_destroy");
  resolve(r.mutex_lock, "pthread_mutex_lock");
  resolve(r.mutex_trylock, "pthread_mutex_trylock");
  resolve(r.mutex_unlock, "pthread_mutex_unlock");
  resolve(r.mutex_timedlock, "pthread_mutex_timedlock");
  resolve(r.mutex_clocklock, "pthread_mutex_clocklock");
  resolve(r.cond_init, "pthread_cond_init");
  resolve(r.cond_destroy, "pthread_cond_destroy");
  resolve(r.cond_wait, "pthread_cond_wait");
  resolve(r.cond_timedwait, "pthread_cond_timedwait");
  resolve(r.cond_signal, "pthread_cond_signal");
  resolve(r.cond_broadcast, "pthread_cond_broadcast");
  resolve(r.cond_clockwait, "pthread_cond_clockwait");
  resolve(r.rwlock_init, "pthread_rwlock_init");
  resolve(r.rwlock_destroy, "pthread_rwlock_destroy");
  resolve(r.rwlock_rdlock, "pthread_rwlock_rdlock");
  resolve(r.rwlock_tryrdlock, "pthread_rwlock_tryrdlock");
  resolve(r.rwlock_timedrdlock, "pthread_rwlock_timedrdlock");
  resolve(r.rwlock_wrlock, "pthread_rwlock_wrlock");
  resolve(r.rwlock_trywrlock, "pthread_rwlock_trywrlock");
  resolve(r.rwlock_timedwrlock, "pthread_rwlock_timedwrlock");
  resolve(r.rwlock_unlock, "pthread_rwlock_unlock");
  resolve(r.rwlock_clockrdlock, "pthread_rwlock_clockrdlock");
  resolve(r.rwlock_clockwrlock, "pthread_rwlock_clockwrlock");
  // Every pointer the foreign-routing paths call unconditionally must
  // resolve before any object is routed; only the glibc>=2.30 clock
  // entry points (null-checked at their call sites) may be absent.
  r.resolved = r.mutex_init != nullptr && r.mutex_destroy != nullptr &&
               r.mutex_lock != nullptr && r.mutex_trylock != nullptr &&
               r.mutex_unlock != nullptr && r.mutex_timedlock != nullptr &&
               r.cond_init != nullptr &&
               r.cond_destroy != nullptr && r.cond_wait != nullptr &&
               r.cond_timedwait != nullptr && r.cond_signal != nullptr &&
               r.cond_broadcast != nullptr && r.rwlock_init != nullptr &&
               r.rwlock_destroy != nullptr && r.rwlock_rdlock != nullptr &&
               r.rwlock_tryrdlock != nullptr &&
               r.rwlock_timedrdlock != nullptr &&
               r.rwlock_wrlock != nullptr && r.rwlock_trywrlock != nullptr &&
               r.rwlock_timedwrlock != nullptr && r.rwlock_unlock != nullptr;
  return r;
}

}  // namespace

const RealPthread& real_pthread() noexcept {
  static const RealPthread real = resolve_real();
  return real;
}

void warn_pshared_once(const char* what) noexcept {
  static std::atomic<bool> warned{false};
  // mo: relaxed — print-once latch; no data is published.
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(
        stderr,
        "[hemlock-interpose] %s initialized with PTHREAD_PROCESS_SHARED: "
        "hemlock's overlay is process-local, so pshared objects are routed "
        "to glibc (this notice prints once; further pshared objects route "
        "silently)\n",
        what);
  }
}

void warn_pshared_unroutable(const char* what) noexcept {
  std::fprintf(stderr,
               "[hemlock-interpose] PTHREAD_PROCESS_SHARED %s but the real "
               "pthread symbols could not be resolved; hosting "
               "process-locally (cross-process use will NOT work)\n",
               what);
}

}  // namespace hemlock::interpose
