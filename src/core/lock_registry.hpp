// lock_registry.hpp — compile-time roster of every lock algorithm.
//
// The paper's evaluation framework selects lock implementations at
// run time (via LD_PRELOAD + an environment variable, §5). This
// tuple is the library's single source of truth for *what exists*:
// the typed test/bench suites sweep it directly, and the runtime
// LockFactory (api/factory.hpp) self-populates from it. All
// name→algorithm dispatch happens in the factory; this header only
// enumerates types.
#pragma once

#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/hemlock.hpp"
#include "core/hemlock_chain.hpp"
#include "core/hemlock_cv.hpp"
#include "locks/anderson.hpp"
#include "locks/boxed.hpp"
#include "locks/clh.hpp"
#include "locks/lock_traits.hpp"
#include "locks/mcs.hpp"
#include "locks/mcs_k42.hpp"
#include "locks/rwlock.hpp"
#include "locks/system.hpp"
#include "locks/tas.hpp"
#include "locks/ticket.hpp"

namespace hemlock {

/// Value-carrier for a lock type (locks are not copyable; the
/// registry traffics in tags instead).
template <typename L>
struct lock_tag {
  using type = L;
};

/// Default Anderson capacity used by registry consumers: the waiting
/// array must cover every concurrent contender (lock() wraps the slot
/// ring past this bound — runtime consumers check
/// LockInfo::max_threads). 64 covers the thread counts the test
/// suites and typical hosts use; benches sweeping wider instantiate
/// AndersonLock<N> directly.
using AndersonDefault = AndersonLock<64>;
/// Waiting-tier variants of the default-capacity Anderson lock.
using AndersonYieldDefault = AndersonLockT<64, QueueYieldWaiting>;
using AndersonParkDefault = AndersonLockT<64, SpinThenParkWaiting>;
using AndersonGovernedDefault = AndersonLockT<64, GovernedWaiting>;

// Bulk-bodied algorithms enter the registry through the boxed
// side-storage path (locks/boxed.hpp): the erased footprint is one
// pointer, so AnyLock's inline buffer — sized to the roster MAXIMUM —
// stays cacheline-scale instead of inheriting Anderson's ~4 KiB
// waiting array or the sharded rwlock's per-shard ingress lines. The
// factory names are unchanged ("anderson", "rwlock", ...); only the
// erased storage strategy differs. Embedders that want the arrays
// inline use the concrete templates directly.
using AndersonBoxed = BoxedLock<AndersonDefault>;
using AndersonYieldBoxed = BoxedLock<AndersonYieldDefault>;
using AndersonParkBoxed = BoxedLock<AndersonParkDefault>;
using AndersonGovernedBoxed = BoxedLock<AndersonGovernedDefault>;
using RwBoxed = BoxedLock<RwLock>;
using RwYieldBoxed = BoxedLock<RwYieldLock>;
using RwParkBoxed = BoxedLock<RwParkLock>;
using RwGovernedBoxed = BoxedLock<RwGovernedLock>;

/// Every algorithm in the library, core contribution first, then the
/// paper's baselines, then the queue locks' oversubscription waiting
/// tiers (-yield / -park / -adaptive; see core/waiting.hpp), then the
/// reader-writer family (sharded-ingress and pthread_rwlock_t-sized
/// compact, each across the tiers), then the reference system mutexes.
using AllLockTags = std::tuple<
    lock_tag<Hemlock>, lock_tag<HemlockNaive>, lock_tag<HemlockFaa>,
    lock_tag<HemlockFutex>, lock_tag<HemlockAdaptive>,
    lock_tag<HemlockOverlap>, lock_tag<HemlockAh>,
    lock_tag<HemlockOhv1>, lock_tag<HemlockOhv2>, lock_tag<HemlockCv>,
    lock_tag<HemlockChain>, lock_tag<McsLock>, lock_tag<McsK42Lock>,
    lock_tag<ClhLock>, lock_tag<TicketLock>, lock_tag<TasLock>,
    lock_tag<TtasLock>, lock_tag<TtasBackoffLock>,
    lock_tag<AndersonBoxed>, lock_tag<McsYieldLock>,
    lock_tag<McsParkLock>, lock_tag<McsGovernedLock>,
    lock_tag<ClhYieldLock>, lock_tag<ClhParkLock>,
    lock_tag<ClhGovernedLock>, lock_tag<TicketYieldLock>,
    lock_tag<TicketParkLock>, lock_tag<TicketGovernedLock>,
    lock_tag<AndersonYieldBoxed>, lock_tag<AndersonParkBoxed>,
    lock_tag<AndersonGovernedBoxed>, lock_tag<RwBoxed>,
    lock_tag<RwYieldBoxed>, lock_tag<RwParkBoxed>,
    lock_tag<RwGovernedBoxed>, lock_tag<RwCompactLock>,
    lock_tag<RwCompactYieldLock>, lock_tag<RwCompactParkLock>,
    lock_tag<RwCompactGovernedLock>, lock_tag<PthreadMutex>>;

/// The five algorithms the paper's figures plot: MCS, CLH, Ticket,
/// Hemlock (CTR) and Hemlock- (naive).
using PaperFigureLockTags =
    std::tuple<lock_tag<McsLock>, lock_tag<ClhLock>, lock_tag<TicketLock>,
               lock_tag<Hemlock>, lock_tag<HemlockNaive>>;

/// Invoke fn(lock_tag<L>{}) for every lock type in Tags.
template <typename Tags = AllLockTags, typename Fn>
void for_each_lock_type(Fn&& fn) {
  std::apply([&](auto... tags) { (fn(tags), ...); }, Tags{});
}

/// Names of all registered algorithms, registry order.
template <typename Tags = AllLockTags>
std::vector<std::string> lock_names() {
  std::vector<std::string> names;
  for_each_lock_type<Tags>([&](auto tag) {
    using L = typename decltype(tag)::type;
    names.emplace_back(lock_traits<L>::name);
  });
  return names;
}

}  // namespace hemlock
