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
//    HEMLOCK_WAIT) to a hostable factory entry;
//  * attribution: one "<kind>:<algorithm>" telemetry row per overlay.
//
// An overlay hands the core data only: an OverlaySurface (its glibc
// entry points, its construct and teardown steps) and, if it hosts a
// lock, a HostRule (hostability predicate, default family, and whether
// a too-big reader-writer lock maps to that family). Operations on a
// hosted lock are the attributed erased ops of api/any_lock.hpp
// (hemlock::hosted), the same ones AnyLock runs.
//
// Everything an interposed call can reach here is allocation-free: it
// runs inside the application's pthread operations, where a malloc
// could re-enter the interposed surface.
#pragma once

#include <errno.h>
#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
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
};

// ---- selection --------------------------------------------------------

/// The chosen algorithm's family name: the registered name minus its
/// waiting-tier suffix ("mcs-park" -> "mcs", "hemlock-futex" ->
/// "hemlock", "rwlock-compact-adaptive" -> "rwlock-compact"), so
/// HEMLOCK_WAIT can move *within* a family.
inline std::string_view waiting_family(std::string_view name) noexcept {
  for (const std::string_view suffix :
       {std::string_view{"-spin"}, std::string_view{"-yield"},
        std::string_view{"-park"}, std::string_view{"-adaptive"},
        std::string_view{"-futex"}}) {
    if (name.size() > suffix.size() && name.ends_with(suffix)) {
      return name.substr(0, name.size() - suffix.size());
    }
  }
  return name;
}

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

/// The factory entry named `family + suffix` that `rule` hosts, or
/// nullptr. Fixed-buffer concatenation: no allocation on this path.
inline const LockVTable* hostable_variant(const HostRule& rule,
                                          std::string_view family,
                                          std::string_view suffix) noexcept {
  char buf[96];
  if (family.size() + suffix.size() >= sizeof(buf)) return nullptr;
  std::memcpy(buf, family.data(), family.size());
  std::memcpy(buf + family.size(), suffix.data(), suffix.size());
  const LockVTable* vt =
      find_lock(std::string_view(buf, family.size() + suffix.size()));
  return (vt != nullptr && rule.hostable(vt->info)) ? vt : nullptr;
}

/// The one selection rule: resolve (`env_value`, `wait_env`) to a
/// factory entry `rule` hosts.
///
///  * env_value: a factory name. One the overlay cannot host falls back
///    to rule.default_family (reported on stderr) — except that under
///    rule.rwlock_siblings a reader-writer lock too big for the overlay
///    is hosted as default_family in its own tier.
///  * wait_env re-selects the variant within the chosen algorithm's
///    family (core/waiting.hpp tiers):
///      "spin"  -> the bare name (pure busy-wait, paper-faithful)
///      "yield" -> "<base>-yield" (or "<base>-adaptive" as fallback)
///      "park"  -> "<base>-park"  (or "<base>-futex", so
///                 HEMLOCK_LOCK=hemlock HEMLOCK_WAIT=park parks too)
///      unset/"auto" -> a busy-waiting algorithm (!oversub_safe) is
///                 hosted as its "-adaptive" (governed) variant, else
///                 its "-futex" one, so oversubscription detected at
///                 run time escalates spin -> yield -> park instead of
///                 convoying; every other algorithm is hosted as named.
/// Allocation-free (this runs inside the application's first pthread
/// operation on the overlay).
inline const LockVTable& resolve_hosted(const HostRule& rule,
                                        const char* env_value,
                                        const char* wait_env) noexcept {
  // Per HEMLOCK_WAIT tier (WaitTier order), the variants that serve it,
  // preferred first; then auto mode's.
  constexpr std::string_view kTierVariants[3][2] = {
      {"", ""}, {"-yield", "-adaptive"}, {"-park", "-futex"}};
  constexpr std::string_view kAutoVariants[2] = {"-adaptive", "-futex"};
  const auto variant_of = [&rule](std::string_view family,
                                  const std::string_view(&suffixes)[2]) {
    const LockVTable* vt = hostable_variant(rule, family, suffixes[0]);
    return vt != nullptr ? vt : hostable_variant(rule, family, suffixes[1]);
  };

  const LockVTable* chosen = find_lock(rule.default_family);
  const bool named = env_value != nullptr && env_value[0] != '\0';
  // "mcs-spin" canonicalizes to the "mcs" vtable, but the alias is the
  // user's explicit request for the paper's pure busy-wait — auto mode
  // must honor it instead of rehosting onto the adaptive variant.
  bool explicit_spin = false;
  if (named) {
    const bool spin_alias = std::string_view(env_value).ends_with("-spin");
    const LockVTable* vt = find_lock(env_value);
    if (vt != nullptr && rule.hostable(vt->info)) {
      chosen = vt;
      explicit_spin = spin_alias;
    } else if (vt != nullptr && rule.rwlock_siblings &&
               vt->info.rwlock_capable) {
      const std::string_view name = vt->info.name;
      const std::string_view tier = name.substr(waiting_family(name).size());
      if (const LockVTable* sibling =
              hostable_variant(rule, rule.default_family, tier)) {
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

  const std::string_view family = waiting_family(chosen->info.name);
  WaitTier tier;
  if (parse_wait_tier(wait_env, &tier)) {
    if (const LockVTable* variant =
            variant_of(family, kTierVariants[static_cast<int>(tier)])) {
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
  // not a tier name. The governed variant spins identically while
  // contenders fit the CPUs. Announced only when the environment named
  // the algorithm: the defaults themselves land here on every run.
  if (!chosen->info.oversub_safe && !explicit_spin) {
    if (const LockVTable* safe = variant_of(family, kAutoVariants)) {
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
