// lock_registry.hpp — compile-time roster of every lock algorithm.
//
// The paper's evaluation framework selects lock implementations at
// run time (via LD_PRELOAD + an environment variable, §5). This
// tuple is the library's single source of truth for *what exists*:
// the typed test/bench suites sweep it directly, and the runtime
// LockFactory (api/factory.hpp) reads its one name table from it. All
// name→algorithm dispatch happens in the factory; this header only
// enumerates types. A tiered family enters once, as each_tier<F>: its
// lock_traits (declared over the tier) name every variant.
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
template <typename W>
using AndersonDefaultT = AndersonLockT<64, W>;
using AndersonDefault = AndersonDefaultT<QueueSpinWaiting>;

// Bulk-bodied algorithms enter the registry through the boxed
// side-storage path (locks/boxed.hpp): the erased footprint is one
// pointer, so AnyLock's inline buffer — sized to the roster MAXIMUM —
// stays cacheline-scale instead of inheriting Anderson's ~4 KiB
// waiting array or the sharded rwlock's per-shard ingress lines. The
// factory names are unchanged ("anderson", "rwlock", ...); only the
// erased storage strategy differs. Embedders that want the arrays
// inline use the concrete templates directly.
template <typename W>
using AndersonBoxedT = BoxedLock<AndersonDefaultT<W>>;
template <typename W>
using RwBoxedT = BoxedLock<RwLockT<W>>;
template <typename W>
using RwCompactT = RwLockT<W, 1>;

/// A tiered family in each of its four waiting tiers (core/waiting.hpp),
/// spin first.
template <template <typename> class Family>
using each_tier =
    std::tuple<lock_tag<Family<QueueSpinWaiting>>,
               lock_tag<Family<QueueYieldWaiting>>,
               lock_tag<Family<SpinThenParkWaiting>>,
               lock_tag<Family<GovernedWaiting>>>;

/// Every algorithm in the library: the Hemlock family (the CTR rows in
/// their spin, park and adaptive tiers, then the paper's other
/// variants), the single-tier baselines, each tiered family × tier
/// (MCS, CLH, Ticket, Anderson, then the sharded and the
/// pthread_rwlock_t-sized compact reader-writer locks), and the
/// reference system mutex.
using AllLockTags = decltype(std::tuple_cat(
    std::tuple<lock_tag<Hemlock>, lock_tag<HemlockNaive>,
               lock_tag<HemlockFaa>, lock_tag<HemlockFutex>,
               lock_tag<HemlockAdaptive>, lock_tag<HemlockOverlap>,
               lock_tag<HemlockAh>, lock_tag<HemlockOhv1>,
               lock_tag<HemlockOhv2>, lock_tag<HemlockCv>,
               lock_tag<HemlockChain>, lock_tag<McsK42Lock>,
               lock_tag<TasLock>, lock_tag<TtasLock>,
               lock_tag<TtasBackoffLock>>{},
    each_tier<McsLockT>{}, each_tier<ClhLockT>{}, each_tier<TicketLockT>{},
    each_tier<AndersonBoxedT>{}, each_tier<RwBoxedT>{},
    each_tier<RwCompactT>{}, std::tuple<lock_tag<PthreadMutex>>{}));

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
