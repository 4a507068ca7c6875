// overlay.hpp — the one hosted-lock path of the pthread overlays.
//
// Each interposed pthread surface keeps its state inside the
// application's own pthread object: shim_mutex and shim_rwlock host a
// factory lock there, the way AnyLock hosts one in its inline buffer,
// and shim_cond keeps a futex condvar there. Every decision the
// overlays share is made here, once:
//
//  * adoption: one CAS on the magic word claims all-zero storage
//    (PTHREAD_*_INITIALIZER on glibc, or a fresh init) lazily and
//    race-safely;
//  * pshared routing: init sends a PTHREAD_PROCESS_SHARED object to
//    glibc (interpose/foreign.hpp), and destroy forwards it and
//    forgets the route;
//  * selection: one rule resolves (HEMLOCK_LOCK or HEMLOCK_RWLOCK,
//    HEMLOCK_WAIT) to a hostable factory entry, moving between a
//    family's waiting tiers by (LockInfo::family, LockInfo::tier);
//  * timed acquires: one deadline-polled body serves every timed and
//    clock entry point of the mutex and rwlock overlays;
//  * attribution: one "<kind>:<algorithm>" telemetry row per overlay.
//
// An overlay hands the core data only: an OverlaySurface (its glibc
// entry points, its construct and teardown steps, and what a timed
// exclusive acquire marks) and, if it hosts a lock, a HostRule
// (hostability predicate, default family, and whether a too-big
// reader-writer lock maps to that family). Operations on a hosted lock
// are the attributed erased ops of api/any_lock.hpp (hemlock::hosted),
// the same ones AnyLock runs.
//
// Everything an interposed call can reach here is allocation-free: it
// runs inside the application's pthread operations, where a malloc
// could re-enter the interposed surface.
#pragma once

#include <errno.h>
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "api/any_lock.hpp"
#include "api/factory.hpp"
#include "interpose/foreign.hpp"
#include "runtime/governor.hpp"
#include "runtime/pause.hpp"
#include "stats/telemetry.hpp"

namespace hemlock::interpose {

// ---- adoption and pshared routing -----------------------------------

/// One pthread surface's overlay, described by data: the glibc entry
/// points a routed (pshared) object goes to, and the overlay's own
/// construct and teardown steps. `Overlay` is the struct laid over the
/// `T` storage; it supplies the `magic` word and its kIniting/kReady
/// values (all-zero storage reads as "not yet adopted").
template <typename Overlay, typename T, typename Attr>
struct OverlaySurface {
  const char* what;  ///< "pthread_mutex": the pshared notices' noun
  int (*getpshared)(const Attr*, int*);
  int (*RealPthread::*real_init)(T*, const Attr*);
  int (*RealPthread::*real_destroy)(T*);
  /// Fills freshly claimed storage (all zero but the magic word).
  /// `attr` is the init's attributes, null on lazy adoption.
  void (*construct)(Overlay&, const Attr* attr);
  /// Runs at destroy on adopted storage, before the scrub.
  void (*teardown)(Overlay&);
  /// Runs on adopted storage after a timed exclusive acquire, or null:
  /// the rwlock overlay marks its writer hold there.
  void (*exclusive_acquired)(Overlay&);

  /// The overlay at `obj`: a fast path when already adopted, else a
  /// race-safe adoption keyed on the magic word, which statically
  /// initialized objects reach with magic == 0.
  Overlay* adopt(T* obj, const Attr* attr = nullptr) const {
    auto* o = reinterpret_cast<Overlay*>(obj);
    // mo: acquire peek — pairs with the kReady release below so an
    // adopted object's constructed state is visible.
    if (o->magic.load(std::memory_order_acquire) == Overlay::kReady) {
      return o;
    }
    std::uint32_t expected = 0;
    // mo: acq_rel claim — exactly one adopter wins; acquire on failure
    // orders the kReady poll below after the winner's stores.
    if (o->magic.compare_exchange_strong(expected, Overlay::kIniting,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      construct(*o, attr);
      // mo: release — publishes the constructed state to acquiring peeks.
      o->magic.store(Overlay::kReady, std::memory_order_release);
      return o;
    }
    // Another thread is adopting; wait for it.
    // mo: acquire poll — pairs with the winner's kReady release.
    while (o->magic.load(std::memory_order_acquire) != Overlay::kReady) {
      cpu_relax();
    }
    return o;
  }

  /// pthread_*_init. A PTHREAD_PROCESS_SHARED `attr` routes `obj` to
  /// glibc — the overlay is process-local state, and hosting a pshared
  /// object would corrupt its cross-process users — and every later
  /// operation on it forwards too. Any other object is hosted: its
  /// storage is adopted eagerly. Attributes the overlay does not model
  /// (mutex kinds, rwlock preference) are ignored.
  int init(T* obj, const Attr* attr) const {
    if (obj == nullptr) return EINVAL;
    int pshared = PTHREAD_PROCESS_PRIVATE;
    if (attr != nullptr && getpshared(attr, &pshared) == 0 &&
        pshared == PTHREAD_PROCESS_SHARED) {
      if (real_pthread().resolved) {
        warn_pshared_once(what);
        if (!ForeignRegistry::insert(obj)) return ENOMEM;
        const int rc = (real_pthread().*real_init)(obj, attr);
        if (rc != 0) ForeignRegistry::erase(obj);
        return rc;
      }
      // Real symbols unresolved: host it locally, loudly.
      warn_pshared_unroutable(what);
    }
    // A pshared object at this address may have been freed without its
    // destroy (the peer process owns the teardown); hosting here without
    // clearing the stale route would forward this fresh object's
    // operations to glibc over overlay bytes.
    if (ForeignRegistry::contains(obj)) ForeignRegistry::erase(obj);
    std::memset(static_cast<void*>(obj), 0, sizeof(*obj));
    adopt(obj, attr);
    return 0;
  }

  /// pthread_*_destroy: a routed object's destroy goes to glibc and its
  /// route is forgotten; a hosted one is torn down (if it was ever
  /// adopted) and its storage scrubbed back to the unadopted state.
  int destroy(T* obj) const {
    if (obj == nullptr) return EINVAL;
    if (ForeignRegistry::contains(obj)) {
      const int rc = (real_pthread().*real_destroy)(obj);
      ForeignRegistry::erase(obj);
      return rc;
    }
    auto* o = reinterpret_cast<Overlay*>(obj);
    // mo: acquire — pairs with adopt's kReady release before teardown.
    if (o->magic.load(std::memory_order_acquire) == Overlay::kReady) {
      teardown(*o);
    }
    std::memset(static_cast<void*>(obj), 0, sizeof(*obj));
    return 0;
  }

  /// The one body of every timed entry point of the lock-hosting
  /// overlays (pthread_mutex_{timed,clock}lock and
  /// pthread_rwlock_{timed,clock}{rd,wr}lock): an exclusive or `shared`
  /// acquire of the hosted lock, polled (bounded try + sleep) until
  /// `abstime` on `clock`. Not a queued wait — the hosted algorithms
  /// have no cancellable queue entry — but POSIX only promises the
  /// deadline, which this honors on the kernel's clock. An algorithm
  /// with no native try path (the CLH family; LockInfo::has_trylock)
  /// takes its blocking lock() instead, so its timed calls always
  /// acquire. Arguments are checked before any state changes; a routed
  /// (pshared) object runs `forward`, its glibc entry point. Telemetry
  /// counts the whole call as one attempt, however many probes it took.
  template <typename Forward>
  int timed_lock(T* obj, clockid_t clock, const struct timespec* abstime,
                 bool shared, telemetry::TelemetryHandle tm,
                 const Forward& forward) const {
    if (obj == nullptr) return EINVAL;
    if (clock != CLOCK_REALTIME && clock != CLOCK_MONOTONIC) return EINVAL;
    if (ForeignRegistry::contains(obj)) return forward();
    if (abstime == nullptr || abstime->tv_nsec < 0 ||
        abstime->tv_nsec >= 1000000000L) {
      return EINVAL;
    }
    Overlay* o = adopt(obj);
    const LockVTable& vt = *o->vt;
    int rc = 0;
    if (!vt.info.has_trylock) {
      shared ? hosted::lock_shared(vt, o->storage, tm)
             : hosted::lock(vt, o->storage, tm);
    } else {
      constexpr long kPollNanos = 500 * 1000;  // 0.5 ms between attempts
      for (std::uint32_t spin = 0; !(shared ? vt.try_lock_shared(o->storage)
                                            : vt.try_lock(o->storage));
           ++spin) {
        struct timespec now;
        if (clock_gettime(clock, &now) != 0) return EINVAL;
        if (now.tv_sec > abstime->tv_sec ||
            (now.tv_sec == abstime->tv_sec &&
             now.tv_nsec >= abstime->tv_nsec)) {
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
      hosted::count_attempt(rc == 0, shared, tm);
    }
    if (rc == 0 && !shared && exclusive_acquired != nullptr) {
      exclusive_acquired(*o);
    }
    return rc;
  }
};

/// A clock-taking glibc entry point (glibc >= 2.30) for a routed object,
/// or EINVAL where the running libc lacks it.
template <typename T, typename Fn>
int forward_clocked(Fn* fn, T* obj, clockid_t clock,
                    const struct timespec* abstime) {
  return fn != nullptr ? fn(obj, clock, abstime) : EINVAL;
}

// ---- selection --------------------------------------------------------

/// What an overlay that hosts a lock tells the selection rule.
struct HostRule {
  /// "mutex" | "rwlock": names the overlay in notices and in its
  /// telemetry row.
  std::string_view kind;
  const char* env;  ///< the variable that names the algorithm
  /// Hosted when `env` names nothing the overlay can host.
  std::string_view default_family;
  bool (*hostable)(const LockInfo&) noexcept;
  /// A reader-writer lock too big for the overlay (the sharded family)
  /// is hosted as `default_family` in its own tier, not rejected.
  bool rwlock_siblings;
};

/// The factory entries `hostable` accepts, in registry order: what an
/// overlay reports it can host.
inline std::vector<std::string_view> hostable_names(
    bool (*hostable)(const LockInfo&) noexcept) {
  std::vector<std::string_view> names;
  for (const LockVTable* vt : LockFactory::instance().entries()) {
    if (hostable(vt->info)) names.push_back(vt->info.name);
  }
  return names;
}

/// The entry of `family` that `rule` hosts in the first of `tiers` the
/// family has, or nullptr.
inline const LockVTable* hostable_tier(
    const HostRule& rule, std::string_view family,
    std::initializer_list<LockTier> tiers) noexcept {
  for (const LockTier tier : tiers) {
    const LockVTable* vt = find_tier(family, tier);
    if (vt != nullptr && rule.hostable(vt->info)) return vt;
  }
  return nullptr;
}

/// The one selection rule: resolve (`env_value`, `wait_env`) to a
/// factory entry `rule` hosts.
///
///  * env_value: a factory name. One the overlay cannot host falls back
///    to rule.default_family (reported on stderr) — except that under
///    rule.rwlock_siblings a reader-writer lock too big for the overlay
///    is hosted as default_family in its own tier.
///  * wait_env re-selects the entry within the chosen algorithm's
///    family (LockInfo::family), by tier:
///      "spin"  -> the spin tier (pure busy-wait, paper-faithful)
///      "yield" -> the yield tier, else the adaptive one (the Hemlock
///                 family has no fixed yield tier)
///      "park"  -> the park tier (hemlock-futex for the Hemlock family)
///      unset/"auto" -> a busy-waiting algorithm (!oversub_safe) is
///                 hosted in its family's adaptive (governed) tier,
///                 else its park tier, so oversubscription detected at
///                 run time escalates spin -> yield -> park instead of
///                 convoying; every other algorithm is hosted as named.
/// Allocation-free (this runs inside the application's first pthread
/// operation on the overlay).
inline const LockVTable& resolve_hosted(const HostRule& rule,
                                        const char* env_value,
                                        const char* wait_env) noexcept {
  const LockVTable* chosen = find_lock(rule.default_family);
  const bool named = env_value != nullptr && env_value[0] != '\0';
  // "mcs-spin" canonicalizes to the "mcs" vtable, but the alias is the
  // user's explicit request for the paper's pure busy-wait — auto mode
  // must honor it instead of rehosting onto the adaptive variant. The
  // alias is the one spelling that resolves to another entry's name.
  bool explicit_spin = false;
  if (named) {
    const LockVTable* vt = find_lock(env_value);
    const bool spin_alias = vt != nullptr && vt->info.name != env_value;
    if (vt != nullptr && rule.hostable(vt->info)) {
      chosen = vt;
      explicit_spin = spin_alias;
    } else if (vt != nullptr && rule.rwlock_siblings &&
               vt->info.rwlock_capable) {
      if (const LockVTable* sibling = hostable_tier(
              rule, rule.default_family, {vt->info.tier})) {
        std::fprintf(stderr,
                     "[hemlock-interpose] %s=%s does not fit the "
                     "pthread_%.*s_t overlay; hosting %.*s\n",
                     rule.env, env_value, static_cast<int>(rule.kind.size()),
                     rule.kind.data(),
                     static_cast<int>(sibling->info.name.size()),
                     sibling->info.name.data());
        chosen = sibling;
        explicit_spin = spin_alias;
      }
    } else {
      const char* reason =
          vt == nullptr ? "not a factory algorithm"
          : rule.rwlock_siblings ? "no shared (reader) mode"
          : !vt->info.pthread_overlay_safe
              ? "excluded by design: unsafe under POSIX mutex lifetimes "
                "(paper Appendix B) or re-enters the interposed pthread "
                "surface"
              : "lock state does not fit the overlay";
      std::fprintf(stderr,
                   "[hemlock-interpose] %s=%s rejected (%s); using %.*s\n",
                   rule.env, env_value, reason,
                   static_cast<int>(rule.default_family.size()),
                   rule.default_family.data());
    }
  }

  const std::string_view family = chosen->info.family;
  WaitTier wait;
  if (parse_wait_tier(wait_env, &wait)) {
    const LockVTable* variant =
        wait == WaitTier::kSpin ? hostable_tier(rule, family, {LockTier::kSpin})
        : wait == WaitTier::kYield
            ? hostable_tier(rule, family,
                            {LockTier::kYield, LockTier::kAdaptive})
            : hostable_tier(rule, family, {LockTier::kPark});
    if (variant != nullptr) {
      chosen = variant;
    } else {
      std::fprintf(stderr,
                   "[hemlock-interpose] HEMLOCK_WAIT=%s: no such waiting "
                   "tier for %.*s; keeping %.*s\n",
                   wait_env, static_cast<int>(family.size()), family.data(),
                   static_cast<int>(chosen->info.name.size()),
                   chosen->info.name.data());
    }
    return *chosen;
  }
  if (wait_env != nullptr && wait_env[0] != '\0' &&
      std::strcmp(wait_env, "auto") != 0) {
    std::fprintf(stderr,
                 "[hemlock-interpose] HEMLOCK_WAIT=%s unrecognized "
                 "(want spin|yield|park|auto); using auto\n",
                 wait_env);
  }
  // Auto: a pure busy-wait algorithm would convoy at scheduler speed if
  // this process oversubscribes the host (ROADMAP: minutes for 480k MCS
  // hand-offs on 1 CPU). That covers the default CTR hemlock as much as
  // the spin queue locks, so the gate is the oversub_safe descriptor,
  // not a tier. The governed variant spins identically while
  // contenders fit the CPUs. Announced only when the environment named
  // the algorithm: the defaults themselves land here on every run.
  if (!chosen->info.oversub_safe && !explicit_spin) {
    if (const LockVTable* safe = hostable_tier(
            rule, family, {LockTier::kAdaptive, LockTier::kPark})) {
      if (named) {
        std::fprintf(stderr,
                     "[hemlock-interpose] hosting %.*s as %.*s "
                     "(oversubscription-adaptive waiting; set "
                     "HEMLOCK_WAIT=spin for pure busy-waiting)\n",
                     static_cast<int>(family.size()), family.data(),
                     static_cast<int>(safe->info.name.size()),
                     safe->info.name.data());
      }
      chosen = safe;
    }
  }
  return *chosen;
}

// ---- attribution --------------------------------------------------------

/// Registers the telemetry row every object of one overlay reports
/// under: "<kind>:<algorithm>", one per family×tier. A 32-slot handle
/// table cannot carry one row per pthread object; per-object
/// distinctions live in the flight recorder's per-thread timelines
/// instead (docs/OBSERVABILITY.md).
inline telemetry::TelemetryHandle register_family_row(
    std::string_view kind, const LockVTable& vt) noexcept {
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%.*s:%.*s",
                              static_cast<int>(kind.size()), kind.data(),
                              static_cast<int>(vt.info.name.size()),
                              vt.info.name.data());
  return telemetry::register_handle(std::string_view(
      buf, std::min(static_cast<std::size_t>(n), sizeof(buf) - 1)));
}

}  // namespace hemlock::interpose
