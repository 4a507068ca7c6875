// any_lock.hpp — the type-erased lock: one public type for every
// algorithm in the roster.
//
// The paper's evaluation swaps lock algorithms at run time behind a
// fixed pthread_mutex_t surface (§5); AnyLock is the same idea as a
// first-class C++ object. It satisfies BasicLockable/TryLockable, so
// anything written against the lock concept — LockGuard,
// std::scoped_lock, MiniKV's DB<>, the MutexBench drivers — runs any
// roster algorithm chosen by a runtime string.
//
// Design constraints, in order:
//  * AnyLock itself never allocates: the selected lock is constructed
//    in-place in an inline buffer sized (at compile time) to the
//    largest algorithm in the roster. (A *hosted* lock may allocate in
//    its own constructor — the BoxedLock<> side-storage adapters do,
//    which is why their traits opt out of the interposition shim via
//    pthread_overlay_safe = false.)
//  * One indirect call of overhead: operations dispatch through a
//    static vtable (one per algorithm, function-pointer thunks; see
//    lock_vtable<L>). No RTTI, no virtual bases, no double
//    indirection — bench/bench_any_lock_overhead.cpp measures the
//    tax instead of assuming it.
//  * Descriptors travel with the dispatch table: info() exposes the
//    LockInfo materialized from lock_traits<> so callers can adapt
//    (FIFO-ness, try_lock availability, contender bounds) without
//    knowing the concrete type.
//
// Note on size: the inline-buffer guarantee makes sizeof(AnyLock)
// the roster *maximum*. Bulk-bodied algorithms (Anderson's ~4 KiB
// waiting array, the sharded-ingress rwlock) enter the roster through
// locks/boxed.hpp — erased footprint: one pointer — precisely so that
// maximum stays cacheline-scale and per-shard erased locks (the
// sharded serving layer holds one per shard) cost bytes, not
// kilobytes. Embedders that need Table-1-sized locks use the concrete
// templates directly; AnyLock is the flexibility end of that
// trade-off, matching progress64's stable-C-surface approach.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>

#include "api/lock_info.hpp"
#include "core/lock_registry.hpp"
#include "locks/lockable.hpp"
#include "runtime/annotations.hpp"
#include "stats/telemetry.hpp"

namespace hemlock {

/// Static dispatch table for one lock algorithm: the LockInfo
/// descriptor plus in-place lifecycle and operation thunks over raw
/// storage. The same table serves AnyLock's inline buffer and the
/// interposition shim's pthread_mutex_t overlay — both are "a lock
/// hosted in caller-owned bytes".
struct LockVTable {
  LockInfo info;
  void (*construct)(void* storage);  ///< placement-new a fresh lock
  void (*destroy)(void* storage);    ///< destroy (must be unheld)
  void (*lock)(void* storage);
  void (*unlock)(void* storage);
  /// Non-blocking attempt; algorithms without a native try_lock
  /// (CLH, Anderson — see info.has_trylock) conservatively fail.
  bool (*try_lock)(void* storage);
  /// Shared (reader) mode. Reader-writer algorithms
  /// (info.rwlock_capable) admit concurrent readers here; exclusive
  /// algorithms degrade to their exclusive operations, so the shared
  /// surface is total over the roster (a shared acquire is then just
  /// an exclusive one — the "erased exclusive baseline" rwlock
  /// benches compare against).
  void (*lock_shared)(void* storage);
  void (*unlock_shared)(void* storage);
  bool (*try_lock_shared)(void* storage);
};

/// The attributed erased operations: each runs one vtable thunk on a
/// lock hosted at `storage`, between the telemetry hooks that
/// attribute it to `tm` ({0}: unattributed, one branch per hook).
/// AnyLock and the pthread overlays (interpose/) both go through
/// these, so each operation's hook pairing is written here only.
namespace hosted {

/// Records a non-blocking attempt's outcome: an acquisition in the
/// attempted mode, or a try failure. A deadline-polled acquire counts
/// its whole wait as one attempt through this.
inline bool count_attempt(bool acquired, bool shared,
                          telemetry::TelemetryHandle tm) noexcept {
  if (!acquired) {
    telemetry::on_try_failure(tm);
  } else if (shared) {
    telemetry::on_shared_acquired(tm);
  } else {
    telemetry::on_try_acquired(tm);
  }
  return acquired;
}

inline void lock(const LockVTable& vt, void* storage,
                 telemetry::TelemetryHandle tm) {
  telemetry::on_lock_begin(tm);
  vt.lock(storage);
  telemetry::on_lock_acquired(tm);
}

inline void unlock(const LockVTable& vt, void* storage,
                   telemetry::TelemetryHandle tm) {
  telemetry::on_unlock_begin(tm);
  vt.unlock(storage);
  telemetry::on_unlock_end(tm);
}

inline bool try_lock(const LockVTable& vt, void* storage,
                     telemetry::TelemetryHandle tm) {
  return count_attempt(vt.try_lock(storage), false, tm);
}

inline void lock_shared(const LockVTable& vt, void* storage,
                        telemetry::TelemetryHandle tm) {
  telemetry::on_shared_begin(tm);
  vt.lock_shared(storage);
  telemetry::on_shared_acquired(tm);
}

inline void unlock_shared(const LockVTable& vt, void* storage,
                          telemetry::TelemetryHandle tm) {
  // Attribution only (reader holds are not timed — see
  // telemetry::on_shared_acquired): the drain hand-off a reader exit
  // can trigger should land on this lock's row.
  telemetry::on_shared_begin(tm);
  vt.unlock_shared(storage);
  telemetry::on_unlock_end(tm);
}

inline bool try_lock_shared(const LockVTable& vt, void* storage,
                            telemetry::TelemetryHandle tm) {
  return count_attempt(vt.try_lock_shared(storage), true, tm);
}

}  // namespace hosted

namespace detail {

/// Inline-storage geometry over a lock_tag tuple: the buffer must
/// hold the largest, most-aligned algorithm in the roster.
template <typename Tuple>
struct roster_storage;

template <typename... Ls>
struct roster_storage<std::tuple<lock_tag<Ls>...>> {
  static constexpr std::size_t size = std::max({sizeof(Ls)...});
  static constexpr std::size_t align = std::max({alignof(Ls)...});
};

}  // namespace detail

/// Runtime name lookup into the factory roster; nullptr for unknown
/// names. (Defined in factory.cpp — the single name→algorithm
/// dispatch point in the library.)
const LockVTable* find_lock(std::string_view name) noexcept;

/// The algorithm a default-constructed AnyLock (and the interposition
/// shim, absent HEMLOCK_LOCK) selects: the paper's headline lock.
inline constexpr std::string_view kDefaultLockName = "hemlock";

/// A mutual-exclusion lock whose algorithm is chosen at run time by
/// name. Satisfies BasicLockable and TryLockable; pinned to its
/// address like every lock (no copy, no move).
class HEMLOCK_CAPABILITY("mutex") AnyLock {
 public:
  /// Inline buffer geometry, fixed at compile time from the roster.
  static constexpr std::size_t kStorageBytes =
      detail::roster_storage<AllLockTags>::size;
  static constexpr std::size_t kStorageAlign =
      detail::roster_storage<AllLockTags>::align;

  /// The default algorithm ("hemlock").
  AnyLock() : AnyLock(*find_lock(kDefaultLockName)) {}

  /// The named algorithm; throws std::invalid_argument for names not
  /// in the factory roster (use find_lock()/LockFactory::info() for
  /// a non-throwing existence check).
  explicit AnyLock(std::string_view name) : AnyLock(checked(name)) {}

  /// The named algorithm, attributed to `telemetry_name` in the
  /// per-lock telemetry (stats/telemetry.hpp). Locks sharing a
  /// telemetry name share one metrics row — how a sharded structure
  /// reports as a single logical lock. Unnamed AnyLocks stay
  /// unattributed and pay only the hooks' id-zero branch.
  AnyLock(std::string_view name, std::string_view telemetry_name)
      : AnyLock(checked(name), telemetry_name) {}

  /// Direct construction from a factory entry (no lookup).
  explicit AnyLock(const LockVTable& vt) noexcept : vt_(&vt) {
    vt_->construct(storage_);
  }

  /// Factory-entry construction with telemetry attribution.
  AnyLock(const LockVTable& vt, std::string_view telemetry_name) noexcept
      : vt_(&vt), tm_(telemetry::register_handle(telemetry_name)) {
    vt_->construct(storage_);
  }

  /// Destroys the hosted lock. Like every lock in the library, the
  /// lock must be unheld and unawaited.
  ~AnyLock() {
    vt_->destroy(storage_);
    telemetry::release_handle(tm_);
  }

  AnyLock(const AnyLock&) = delete;
  AnyLock& operator=(const AnyLock&) = delete;

  /// Acquire (one indirect call, then the algorithm's own fast path).
  ///
  /// Contract (uniform across the roster):
  ///  * Non-recursive — re-acquiring while holding deadlocks (FIFO
  ///    algorithms self-deadlock behind their own queue entry).
  ///  * Acquire semantics: everything the previous holder wrote
  ///    before its unlock() happens-before this call's return.
  ///  * Blocking behavior is the algorithm's waiting tier. Pure
  ///    busy-wait selections (info().oversub_safe == false) convoy at
  ///    scheduler speed when runnable threads exceed cores — prefer
  ///    the "-adaptive" variant when oversubscription is possible.
  void lock() HEMLOCK_ACQUIRE() { hosted::lock(*vt_, storage_, tm_); }
  /// Release. Precondition: the calling thread holds the exclusive
  /// lock (POSIX would say EPERM; here it is undefined — queue locks
  /// would hand a grant nobody owns). Release semantics: writes made
  /// while holding are visible to the next acquirer.
  void unlock() HEMLOCK_RELEASE() { hosted::unlock(*vt_, storage_, tm_); }
  /// Non-blocking attempt; always false when !info().has_trylock
  /// (CLH and Anderson have no native try path — an attempt that
  /// never succeeds, not an error). On true, same ordering and
  /// ownership obligations as lock().
  bool try_lock() HEMLOCK_TRY_ACQUIRE(true) {
    return hosted::try_lock(*vt_, storage_, tm_);
  }

  /// Shared (reader) acquire. Concurrent readers are admitted only
  /// when info().rwlock_capable; exclusive algorithms serve this as a
  /// plain lock(), so code written against the shared surface runs
  /// any roster algorithm (and an rwlock-aware caller can check the
  /// descriptor to know which semantics it got).
  /// Caveats: recursive shared acquisition can deadlock under the
  /// writer-preferring rwlock family (a waiting writer gates the
  /// re-entry), and holding shared while parked/preempted stalls
  /// writers — epoch-protected reads (src/reclaim/) are the
  /// read-mostly alternative that bounds memory instead of progress.
  void lock_shared() HEMLOCK_ACQUIRE_SHARED() {
    hosted::lock_shared(*vt_, storage_, tm_);
  }
  /// Shared release. Precondition: pairs one-to-one with a successful
  /// lock_shared()/try_lock_shared() by this thread. Release
  /// semantics toward the writer that drains the reader out.
  void unlock_shared() HEMLOCK_RELEASE_SHARED() {
    hosted::unlock_shared(*vt_, storage_, tm_);
  }
  /// Non-blocking shared attempt; same pairing obligation on true.
  bool try_lock_shared() HEMLOCK_TRY_ACQUIRE_SHARED(true) {
    return hosted::try_lock_shared(*vt_, storage_, tm_);
  }

  /// The hosted algorithm's descriptor.
  const LockInfo& info() const noexcept { return vt_->info; }
  /// The hosted algorithm's registry name.
  std::string_view name() const noexcept { return vt_->info.name; }
  /// The telemetry attribution handle ({0} when unattributed).
  telemetry::TelemetryHandle telemetry_handle() const noexcept { return tm_; }

 private:
  static const LockVTable& checked(std::string_view name) {
    const LockVTable* vt = find_lock(name);
    if (vt == nullptr) {
      throw std::invalid_argument("hemlock: unknown lock algorithm \"" +
                                  std::string(name) + "\"");
    }
    return *vt;
  }

  const LockVTable* vt_;
  telemetry::TelemetryHandle tm_;  ///< {0} = unattributed
  alignas(kStorageAlign) unsigned char storage_[kStorageBytes];
};

static_assert(BasicLockable<AnyLock>);
static_assert(TryLockable<AnyLock>);
static_assert(SharedLockable<AnyLock>);

/// The erasure thunks for lock type L, and the one static vtable per
/// algorithm that AnyLock instances share.
template <typename L>
struct LockErasure {
  // The in-place guarantee: every algorithm handed to AnyLock must fit
  // the inline buffer. Trivially true for roster members (the buffer
  // is sized from the roster); this is the tripwire for future locks
  // registered without resizing the roster tuple — box oversized
  // bodies via locks/boxed.hpp instead of growing the buffer.
  static_assert(sizeof(L) <= AnyLock::kStorageBytes,
                "AnyLock's inline buffer must fit every registered lock "
                "— box it (locks/boxed.hpp) or add it to AllLockTags");
  static_assert(alignof(L) <= AnyLock::kStorageAlign,
                "AnyLock's inline buffer must satisfy every registered "
                "lock's alignment");
  static_assert(BasicLockable<L>);

  static void construct(void* p) { ::new (p) L(); }
  static void destroy(void* p) { std::destroy_at(static_cast<L*>(p)); }
  // The thunks acquire/release through an erased pointer whose hold
  // outlives the call — capability identity is invisible to the
  // analysis, so the bodies are exempt (the AnyLock surface above
  // carries the contract instead).
  static void do_lock(void* p) HEMLOCK_NO_THREAD_SAFETY_ANALYSIS {
    static_cast<L*>(p)->lock();
  }
  static void do_unlock(void* p) HEMLOCK_NO_THREAD_SAFETY_ANALYSIS {
    static_cast<L*>(p)->unlock();
  }
  static bool do_try_lock(void* p) HEMLOCK_NO_THREAD_SAFETY_ANALYSIS {
    if constexpr (TryLockable<L>) {
      return static_cast<L*>(p)->try_lock();
    } else {
      return false;  // conservative: an attempt that never succeeds
    }
  }
  static void do_lock_shared(void* p) HEMLOCK_NO_THREAD_SAFETY_ANALYSIS {
    if constexpr (SharedLockable<L>) {
      static_cast<L*>(p)->lock_shared();
    } else {
      static_cast<L*>(p)->lock();  // exclusive fallback (one "reader")
    }
  }
  static void do_unlock_shared(void* p) HEMLOCK_NO_THREAD_SAFETY_ANALYSIS {
    if constexpr (SharedLockable<L>) {
      static_cast<L*>(p)->unlock_shared();
    } else {
      static_cast<L*>(p)->unlock();
    }
  }
  static bool do_try_lock_shared(void* p) HEMLOCK_NO_THREAD_SAFETY_ANALYSIS {
    if constexpr (SharedLockable<L>) {
      return static_cast<L*>(p)->try_lock_shared();
    } else {
      return do_try_lock(p);
    }
  }
};

/// The static vtable for lock type L. One per algorithm per process;
/// AnyLock and the shim hold pointers into these.
template <typename L>
inline constexpr LockVTable lock_vtable = {
    make_lock_info<L>(),        &LockErasure<L>::construct,
    &LockErasure<L>::destroy,   &LockErasure<L>::do_lock,
    &LockErasure<L>::do_unlock, &LockErasure<L>::do_try_lock,
    &LockErasure<L>::do_lock_shared,
    &LockErasure<L>::do_unlock_shared,
    &LockErasure<L>::do_try_lock_shared,
};

}  // namespace hemlock
