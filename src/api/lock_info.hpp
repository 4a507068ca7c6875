// lock_info.hpp — runtime descriptors for lock algorithms.
//
// lock_traits<> (locks/lock_traits.hpp) is compile-time metadata:
// it parameterizes templates and drives static accounting. LockInfo
// is the same metadata *materialized as a value* so that runtime
// consumers — the LockFactory, the interposition shim, benches
// resolving --lock=<name>, tooling printing rosters — can inspect an
// algorithm without naming its type. make_lock_info<L>() is the one
// bridge between the two worlds; nothing else re-states a trait.
#pragma once

#include <cstddef>
#include <string_view>

#include "locks/lock_traits.hpp"

namespace hemlock {

/// Human-readable spinning-class label ("global", "local",
/// "fere-local" — the §3 taxonomy).
constexpr std::string_view spinning_name(Spinning s) noexcept {
  switch (s) {
    case Spinning::kGlobal: return "global";
    case Spinning::kLocal: return "local";
    case Spinning::kFereLocal: return "fere-local";
  }
  return "?";
}

/// Value-form of lock_traits<L>, plus the runtime footprint facts a
/// type-erased holder needs (size/alignment) and two safety bounds
/// that gate where an algorithm may be deployed.
///
/// Semantics every roster member shares regardless of descriptor:
/// lock/unlock pair with acquire/release ordering (a release's
/// critical-section writes happen-before the next acquire's return),
/// acquisition is non-recursive, and unlock must come from the
/// holding thread. The descriptor fields capture where members
/// *differ*: admission order (is_fifo), native try paths
/// (has_trylock), contender bounds (max_threads), shim hostability,
/// and scheduling behavior under oversubscription (oversub_safe —
/// the field to check before deploying on hosts where runnable
/// threads may exceed cores).
struct LockInfo {
  std::string_view name;     ///< lock_traits<L>::name — the registry key
  /// The family the entry belongs to: one algorithm across its waiting
  /// tiers ("mcs" for mcs, mcs-yield, mcs-park and mcs-adaptive;
  /// "hemlock" for hemlock, hemlock-futex and hemlock-adaptive). An
  /// algorithm built in one tier only is its own family.
  std::string_view family;
  /// The waiting tier the entry occupies in its family. (family, tier)
  /// names one roster entry: how the shim moves between tiers.
  LockTier tier;
  std::size_t lock_words;    ///< Table 1: lock body size, 8-byte words
  std::size_t held_words;    ///< Table 1: extra space per held lock
  std::size_t wait_words;    ///< Table 1: extra space per waited-on lock
  std::size_t thread_words;  ///< Table 1: per-thread locking state
  bool nontrivial_init;      ///< Table 1: requires non-trivial ctor/dtor
  bool is_fifo;              ///< FIFO admission order
  bool has_trylock;          ///< native non-blocking acquisition
  Spinning spinning;         ///< busy-wait locality class (§3)
  std::size_t size_bytes;    ///< sizeof(L) — concrete storage footprint
  std::size_t align_bytes;   ///< alignof(L)
  /// Upper bound on concurrent contenders (0 = unbounded). Anderson's
  /// waiting array makes this finite; everything else is unbounded.
  /// Hard precondition, not a hint: a bounded algorithm's (max_threads
  /// + 1)-th simultaneous contender overruns the waiting structure
  /// (undefined behavior), so deployers sizing a thread pool off a
  /// roster name must check this field first.
  std::size_t max_threads;
  /// Safe to host inside an interposed pthread_mutex_t. False for
  /// hemlock-ah (Appendix B: speculative unlock store vs POSIX mutex
  /// lifetimes) and hemlock-cv (its parking path uses the very
  /// pthread primitives being interposed).
  bool pthread_overlay_safe;
  /// Safe to back a pthread_cond_* wait through the interposition
  /// shim's condvar overlay (shim_cond): the overlay unlocks the
  /// hosted mutex, sleeps on its own futex words, and re-acquires
  /// through the same vtable — so any overlay-safe algorithm
  /// qualifies unless its traits opt out. Follows pthread_overlay_safe
  /// when the trait does not declare condvar_capable.
  bool condvar_capable;
  /// Native shared (reader) mode: lock_shared / try_lock_shared /
  /// unlock_shared admit concurrent readers. When false, the erased
  /// shared-mode surface still exists but degrades to the exclusive
  /// operations (one "reader" at a time) — how an rwlock bench
  /// baselines against an exclusive lock, and how the descriptor
  /// gates what the pthread_rwlock_t shim may host.
  bool rwlock_capable;
  /// Waiting-policy name: how contenders wait. A tier name ("spin",
  /// "yield", "park", "adaptive") for the queue locks and for every
  /// Hemlock poll × tier composition above the spin tier; the Grant
  /// poll's paper name ("load", "ctr-cas", "ctr-faa") for Hemlock's
  /// spin-tier compositions. See core/waiting.hpp.
  std::string_view waiting;
  /// Oversubscription safety: true when waiters surrender the CPU
  /// (yield or park) instead of burning their timeslice, so the lock
  /// keeps making prompt progress with more runnable threads than
  /// cores. Pure busy-wait algorithms convoy at scheduler speed in
  /// that regime and carry false here.
  bool oversub_safe;
};

/// Materialize the LockInfo for lock type L from lock_traits<L>.
/// The family / tier / max_threads / pthread_overlay_safe fields come
/// from optional trait members; algorithms that don't declare them get
/// the defaults (their own family, the spin tier, unbounded,
/// overlay-safe).
template <typename L>
constexpr LockInfo make_lock_info() noexcept {
  using T = lock_traits<L>;
  LockInfo info{};
  info.name = T::name;
  if constexpr (requires { T::family; }) {
    info.family = T::family;
  } else {
    info.family = T::name;
  }
  if constexpr (requires { T::tier; }) {
    info.tier = T::tier;
  } else {
    info.tier = LockTier::kSpin;
  }
  info.lock_words = T::lock_words;
  info.held_words = T::held_words;
  info.wait_words = T::wait_words;
  info.thread_words = T::thread_words;
  info.nontrivial_init = T::nontrivial_init;
  info.is_fifo = T::is_fifo;
  info.has_trylock = T::has_trylock;
  info.spinning = T::spinning;
  info.size_bytes = sizeof(L);
  info.align_bytes = alignof(L);
  if constexpr (requires { T::max_threads; }) {
    info.max_threads = T::max_threads;
  } else {
    info.max_threads = 0;
  }
  if constexpr (requires { T::pthread_overlay_safe; }) {
    info.pthread_overlay_safe = T::pthread_overlay_safe;
  } else {
    info.pthread_overlay_safe = true;
  }
  if constexpr (requires { T::condvar_capable; }) {
    info.condvar_capable = T::condvar_capable;
  } else {
    info.condvar_capable = info.pthread_overlay_safe;
  }
  info.rwlock_capable = requires(L& l) {
    l.lock_shared();
    l.unlock_shared();
    l.try_lock_shared();
  };
  if constexpr (requires { T::waiting; }) {
    info.waiting = T::waiting;
  } else {
    info.waiting = "spin";  // busy-wait unless declared otherwise
  }
  if constexpr (requires { T::oversub_safe; }) {
    info.oversub_safe = T::oversub_safe;
  } else {
    info.oversub_safe = false;
  }
  return info;
}

}  // namespace hemlock
