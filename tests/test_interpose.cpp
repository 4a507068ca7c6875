// test_interpose.cpp — the pthread_mutex_t shim: overlay geometry,
// lazy adoption of PTHREAD_MUTEX_INITIALIZER storage, factory-based
// algorithm selection (HEMLOCK_LOCK), per-algorithm mutual exclusion
// through the shim surface, the pthread_cond_t futex overlay
// (lost-wakeup stress, timedwait accuracy, broadcast-then-destroy,
// spurious-wakeup tolerance — each across the waiting tiers), and a
// full LD_PRELOAD integration run of the plain-pthreads demo binaries
// against every supported algorithm.
#include <gtest/gtest.h>

#include <errno.h>
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "api/factory.hpp"
#include "interpose/foreign.hpp"
#include "interpose/shim_cond.hpp"
#include "interpose/shim_mutex.hpp"
#include "interpose/shim_rwlock.hpp"
#include "runtime/governor.hpp"
#include "stats/telemetry.hpp"

namespace hemlock::interpose {
namespace {

TEST(ShimMutex, OverlayFitsPthreadStorage) {
  EXPECT_LE(sizeof(ShimMutex), sizeof(pthread_mutex_t));
}

// The shim keeps no name table of its own: HEMLOCK_LOCK values are
// factory names, filtered only by hostability. The classic
// interposition roster must all be present.
TEST(ShimMutex, SupportedNamesAreTheHostableFactorySubset) {
  const auto& factory = LockFactory::instance();
  const auto supported = supported_lock_names();
  ASSERT_FALSE(supported.empty());

  // Exactly the hostable subset, in registry order.
  std::vector<std::string_view> expected;
  for (const LockVTable* vt : factory.entries()) {
    if (shim_hostable(vt->info)) expected.push_back(vt->info.name);
  }
  EXPECT_EQ(supported, expected);

  for (const char* name :
       {"hemlock", "hemlock-", "hemlock-faa", "hemlock-ohv1", "hemlock-ohv2",
        "mcs", "clh", "ticket", "tas", "ttas"}) {
    EXPECT_NE(std::find(supported.begin(), supported.end(), name),
              supported.end())
        << name;
  }
}

TEST(ShimMutex, RefusesAggressiveHandOverAndCondvarParking) {
  // Appendix B: AH's speculative store is unsafe when the mutex's
  // memory may be freed by its last user — the shim must not offer
  // it. hemlock-cv would re-enter the interposed pthread surface.
  const auto& factory = LockFactory::instance();
  for (const char* name : {"hemlock-ah", "hemlock-cv"}) {
    const LockInfo* info = factory.info(name);
    ASSERT_NE(info, nullptr) << name;        // in the factory roster...
    EXPECT_FALSE(shim_hostable(*info)) << name;  // ...but not hostable
    EXPECT_FALSE(info->pthread_overlay_safe) << name;
  }
  // Size-excluded: bodies larger than the overlay budget.
  for (const char* name : {"mcs-k42", "pthread"}) {
    const LockInfo* info = factory.info(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_FALSE(shim_hostable(*info)) << name;
    EXPECT_GT(info->size_bytes, kShimStorageBytes) << name;
  }
  // Anderson rides the roster boxed (locks/boxed.hpp): its erased
  // body now FITS the overlay budget, but the boxing ctor mallocs —
  // hosting it could re-enter the shim through the allocator's own
  // lock, so the traits opt it out instead.
  {
    const LockInfo* info = factory.info("anderson");
    ASSERT_NE(info, nullptr);
    EXPECT_LE(info->size_bytes, kShimStorageBytes);
    EXPECT_FALSE(info->pthread_overlay_safe);
    EXPECT_FALSE(shim_hostable(*info));
  }
}

TEST(ShimMutex, SelectedLockIsHostable) {
  // Whatever the environment says, the process-wide selection must
  // resolve to a hostable factory entry (unknown names fall back).
  const LockVTable& vt = selected_lock();
  EXPECT_TRUE(shim_hostable(vt.info));
  EXPECT_NE(LockFactory::instance().find(vt.info.name), nullptr);
}

// The (HEMLOCK_LOCK, HEMLOCK_WAIT) selection rule, exercised directly
// through the pure resolver so every combination is testable without
// re-execing the process.
TEST(ShimMutex, WaitTierReselectsTheLockVariant) {
  const auto resolved = [](const char* lock_env, const char* wait_env) {
    return resolve_shim_lock(lock_env, wait_env).info.name;
  };
  // Explicit tiers move within the algorithm's family.
  EXPECT_EQ(resolved("mcs", "spin"), "mcs");
  EXPECT_EQ(resolved("mcs", "yield"), "mcs-yield");
  EXPECT_EQ(resolved("mcs", "park"), "mcs-park");
  EXPECT_EQ(resolved("clh", "park"), "clh-park");
  EXPECT_EQ(resolved("ticket", "park"), "ticket-park");
  // ...including back down from an explicit variant name.
  EXPECT_EQ(resolved("mcs-park", "spin"), "mcs");
  EXPECT_EQ(resolved("mcs-adaptive", "park"), "mcs-park");
  // The Hemlock family parks via its futex Grant policy; "yield" is
  // served by its governed policy (no fixed yield tier exists).
  EXPECT_EQ(resolved("hemlock", "park"), "hemlock-futex");
  EXPECT_EQ(resolved("hemlock", "yield"), "hemlock-adaptive");
  EXPECT_EQ(resolved("hemlock", "spin"), "hemlock");
  // Algorithms without the requested tier keep their selection.
  EXPECT_EQ(resolved("tas", "park"), "tas");
  EXPECT_EQ(resolved("hemlock-faa", "park"), "hemlock-faa");
}

TEST(ShimMutex, AutoTierHostsPureSpinQueueLocksAsGoverned) {
  const auto resolved = [](const char* lock_env, const char* wait_env) {
    return resolve_shim_lock(lock_env, wait_env).info.name;
  };
  // Unset/auto: pure busy-wait queue locks become oversubscription-
  // adaptive, so the MCS-through-the-shim convoy (ROADMAP) cannot
  // recur by default.
  EXPECT_EQ(resolved("mcs", nullptr), "mcs-adaptive");
  EXPECT_EQ(resolved("clh", ""), "clh-adaptive");
  EXPECT_EQ(resolved("ticket", "auto"), "ticket-adaptive");
  // The default selection (Hemlock CTR) busy-waits too, so auto hosts
  // it on the family's governed grant policy — the gate is the
  // oversub_safe descriptor, not a tier name.
  EXPECT_EQ(resolved(nullptr, nullptr), "hemlock-adaptive");
  EXPECT_EQ(resolved("hemlock", nullptr), "hemlock-adaptive");
  // Explicitly-chosen oversubscription-safe variants are honored.
  EXPECT_EQ(resolved("mcs-park", nullptr), "mcs-park");
  EXPECT_EQ(resolved("hemlock-futex", nullptr), "hemlock-futex");
  EXPECT_EQ(resolved("hemlock-adaptive", nullptr), "hemlock-adaptive");
  // The "-spin" alias is the explicit pure-spin request: honored.
  EXPECT_EQ(resolved("mcs-spin", nullptr), "mcs");
  EXPECT_EQ(resolved("hemlock-spin", nullptr), "hemlock");
  // Busy-waiting algorithms without an adaptive sibling stay put.
  EXPECT_EQ(resolved("tas", nullptr), "tas");
  EXPECT_EQ(resolved("ttas", nullptr), "ttas");
  EXPECT_EQ(resolved("hemlock-faa", nullptr), "hemlock-faa");
  // Unknown tier values degrade to auto (with a stderr note).
  EXPECT_EQ(resolved("mcs", "bogus"), "mcs-adaptive");
  // Unknown lock names still fall back to the default.
  EXPECT_EQ(resolved("nonsense", "park"), "hemlock-futex");
}

TEST(ShimMutex, InitLockUnlockDestroyRoundTrip) {
  pthread_mutex_t m;
  ASSERT_EQ(ShimMutex::shim_init(&m), 0);
  EXPECT_EQ(ShimMutex::shim_lock(&m), 0);
  EXPECT_EQ(ShimMutex::shim_unlock(&m), 0);
  EXPECT_EQ(ShimMutex::shim_trylock(&m), 0);
  EXPECT_EQ(ShimMutex::shim_unlock(&m), 0);
  EXPECT_EQ(ShimMutex::shim_destroy(&m), 0);
  // Re-init after destroy must work (POSIX lifecycle).
  ASSERT_EQ(ShimMutex::shim_init(&m), 0);
  EXPECT_EQ(ShimMutex::shim_lock(&m), 0);
  EXPECT_EQ(ShimMutex::shim_unlock(&m), 0);
  EXPECT_EQ(ShimMutex::shim_destroy(&m), 0);
}

TEST(ShimMutex, StaticInitializerAdoptedLazily) {
  pthread_mutex_t m = PTHREAD_MUTEX_INITIALIZER;  // never shim_init'ed
  EXPECT_EQ(ShimMutex::shim_lock(&m), 0);
  EXPECT_EQ(ShimMutex::shim_unlock(&m), 0);
  EXPECT_EQ(ShimMutex::shim_destroy(&m), 0);
}

// Eight threads race the first exclusive acquire of a statically
// initialized object, so they race its adoption: one adopter must
// construct the hosted lock, the rest wait for it, and the counter the
// lock guards comes out exact. Shared by the mutex and rwlock overlays.
template <typename T>
void race_first_use(T initializer, int (*lock)(T*), int (*unlock)(T*),
                    int (*destroy)(T*)) {
  for (int round = 0; round < 20; ++round) {
    T m = initializer;
    long counter = 0;
    std::atomic<int> go{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < 8; ++t) {
      ts.emplace_back([&] {
        go.fetch_add(1);
        while (go.load() < 8) {
        }
        for (int i = 0; i < 1000; ++i) {
          lock(&m);
          ++counter;
          unlock(&m);
        }
      });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(counter, 8000);
    destroy(&m);
  }
}

TEST(ShimMutex, ConcurrentFirstUseAdoptsExactlyOnce) {
  race_first_use<pthread_mutex_t>(PTHREAD_MUTEX_INITIALIZER,
                                  ShimMutex::shim_lock, ShimMutex::shim_unlock,
                                  ShimMutex::shim_destroy);
}

TEST(ShimMutex, TrylockContract) {
  pthread_mutex_t m = PTHREAD_MUTEX_INITIALIZER;
  ASSERT_EQ(ShimMutex::shim_trylock(&m), 0);
  std::thread([&] { EXPECT_EQ(ShimMutex::shim_trylock(&m), EBUSY); }).join();
  EXPECT_EQ(ShimMutex::shim_unlock(&m), 0);
  ShimMutex::shim_destroy(&m);
}

// ===================================================================
// The pthread_cond_t overlay (shim_cond).
// ===================================================================

TEST(ShimCond, OverlayFitsPthreadStorage) {
  EXPECT_LE(sizeof(ShimCond), sizeof(pthread_cond_t));
  EXPECT_LE(alignof(ShimCond), alignof(pthread_cond_t));
}

// Condvar coverage is a descriptor-driven subset of mutex coverage:
// every hostable algorithm currently qualifies, the excluded-by-design
// entries stay excluded, and the LockInfo bit is what decides.
TEST(ShimCond, CoverageIsTheCondvarCapableFactorySubset) {
  const auto& factory = LockFactory::instance();
  const auto supported = supported_cond_lock_names();
  ASSERT_FALSE(supported.empty());
  std::vector<std::string_view> expected;
  for (const LockVTable* vt : factory.entries()) {
    if (shim_cond_capable(vt->info)) expected.push_back(vt->info.name);
  }
  EXPECT_EQ(supported, expected);
  // The overlay re-acquires through the shim's vtable, so condvar
  // coverage currently equals mutex coverage.
  EXPECT_EQ(supported, supported_lock_names());
  for (const char* name : {"hemlock-ah", "hemlock-cv", "pthread"}) {
    const LockInfo* info = factory.info(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_FALSE(shim_cond_capable(*info)) << name;
  }
}

namespace {

/// Restores the governor's automatic tier classification on scope
/// exit, so a failing ASSERT cannot leak a forced tier into sibling
/// tests.
struct TierGuard {
  explicit TierGuard(WaitTier t) { ContentionGovernor::instance().force(t); }
  ~TierGuard() { ContentionGovernor::instance().clear_force(); }
};

constexpr WaitTier kAllTiers[] = {WaitTier::kSpin, WaitTier::kYield,
                                  WaitTier::kPark};

/// A bounded producer/consumer queue driven entirely through the shim
/// surface (ShimMutex + ShimCond static entry points — the same code
/// the LD_PRELOAD symbols call). Totals are exact iff no wakeup is
/// lost and exclusion holds.
struct BoundedQueue {
  static constexpr int kCapacity = 4;

  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t not_empty = PTHREAD_COND_INITIALIZER;
  pthread_cond_t not_full = PTHREAD_COND_INITIALIZER;
  long ring[kCapacity] = {};
  int head = 0;
  int size = 0;
  long produced = 0, produced_sum = 0;
  long consumed = 0, consumed_sum = 0;
  bool done = false;

  void push(long item) {
    ShimMutex::shim_lock(&mu);
    while (size == kCapacity) ShimCond::shim_wait(&not_full, &mu);
    ring[(head + size) % kCapacity] = item;
    ++size;
    ++produced;
    produced_sum += item;
    ShimMutex::shim_unlock(&mu);
    ShimCond::shim_signal(&not_empty);
  }

  /// One consume; false when production has finished and the ring is
  /// drained. Alternates untimed and timed waits so both paths run.
  bool pop() {
    ShimMutex::shim_lock(&mu);
    while (size == 0 && !done) {
      if ((consumed & 1) == 0) {
        ShimCond::shim_wait(&not_empty, &mu);
      } else {
        struct timespec deadline;
        clock_gettime(CLOCK_REALTIME, &deadline);
        deadline.tv_nsec += 20 * 1000 * 1000;  // 20 ms, then re-check
        if (deadline.tv_nsec >= 1000000000L) {
          deadline.tv_nsec -= 1000000000L;
          ++deadline.tv_sec;
        }
        ShimCond::shim_timedwait(&not_empty, &mu, &deadline);
      }
    }
    if (size == 0) {
      ShimMutex::shim_unlock(&mu);
      return false;
    }
    consumed_sum += ring[head];
    head = (head + 1) % kCapacity;
    --size;
    ++consumed;
    ShimMutex::shim_unlock(&mu);
    ShimCond::shim_signal(&not_full);
    return true;
  }

  void finish() {
    ShimMutex::shim_lock(&mu);
    done = true;
    ShimMutex::shim_unlock(&mu);
    ShimCond::shim_broadcast(&not_empty);
  }

  void destroy() {
    ShimCond::shim_destroy(&not_empty);
    ShimCond::shim_destroy(&not_full);
    ShimMutex::shim_destroy(&mu);
  }
};

}  // namespace

TEST(ShimCond, SignalWaitRoundTrip) {
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t cv = PTHREAD_COND_INITIALIZER;
  bool flag = false;
  std::thread waiter([&] {
    ShimMutex::shim_lock(&mu);
    while (!flag) EXPECT_EQ(ShimCond::shim_wait(&cv, &mu), 0);
    ShimMutex::shim_unlock(&mu);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ShimMutex::shim_lock(&mu);
  flag = true;
  ShimMutex::shim_unlock(&mu);
  EXPECT_EQ(ShimCond::shim_signal(&cv), 0);
  waiter.join();
  EXPECT_EQ(ShimCond::shim_destroy(&cv), 0);
  ShimMutex::shim_destroy(&mu);
}

// Lost-wakeup stress: N producers and M consumers over a tiny bounded
// ring, for each waiting tier. A single lost signal deadlocks the
// queue (the suite timeout catches it); exact totals prove exclusion.
TEST(ShimCond, LostWakeupStressAcrossTiers) {
  for (const WaitTier tier : kAllTiers) {
    TierGuard forced(tier);
    BoundedQueue q;
    constexpr int kProducers = 3, kConsumers = 2;
    constexpr long kItemsPerProducer = 800;
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&q, p] {
        for (long i = 0; i < kItemsPerProducer; ++i) {
          q.push(p * kItemsPerProducer + i + 1);
        }
      });
    }
    for (int c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&q] {
        while (q.pop()) {
        }
      });
    }
    for (int p = 0; p < kProducers; ++p) threads[static_cast<size_t>(p)].join();
    q.finish();
    for (int c = 0; c < kConsumers; ++c) {
      threads[static_cast<size_t>(kProducers + c)].join();
    }
    EXPECT_EQ(q.produced, kProducers * kItemsPerProducer)
        << wait_tier_name(tier);
    EXPECT_EQ(q.consumed, q.produced) << wait_tier_name(tier);
    EXPECT_EQ(q.consumed_sum, q.produced_sum) << wait_tier_name(tier);
    q.destroy();
  }
}

// timedwait with nobody signalling: ETIMEDOUT, not earlier than the
// deadline (modulo one scheduler tick), and certainly not a hang.
TEST(ShimCond, TimedwaitTimesOutAccurately) {
  for (const WaitTier tier : kAllTiers) {
    TierGuard forced(tier);
    pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
    pthread_cond_t cv = PTHREAD_COND_INITIALIZER;
    constexpr long kWaitMs = 80;
    struct timespec deadline;
    clock_gettime(CLOCK_REALTIME, &deadline);
    deadline.tv_nsec += kWaitMs * 1000 * 1000;
    if (deadline.tv_nsec >= 1000000000L) {
      deadline.tv_nsec -= 1000000000L;
      ++deadline.tv_sec;
    }
    ShimMutex::shim_lock(&mu);
    const auto start = std::chrono::steady_clock::now();
    const int rc = ShimCond::shim_timedwait(&cv, &mu, &deadline);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    ShimMutex::shim_unlock(&mu);
    EXPECT_EQ(rc, ETIMEDOUT) << wait_tier_name(tier);
    EXPECT_GE(elapsed.count(), kWaitMs - 20) << wait_tier_name(tier);
    ShimCond::shim_destroy(&cv);
    ShimMutex::shim_destroy(&mu);
  }
}

TEST(ShimCond, TimedwaitPastDeadlineReturnsImmediately) {
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t cv = PTHREAD_COND_INITIALIZER;
  struct timespec past;
  clock_gettime(CLOCK_REALTIME, &past);
  past.tv_sec -= 5;
  ShimMutex::shim_lock(&mu);
  EXPECT_EQ(ShimCond::shim_timedwait(&cv, &mu, &past), ETIMEDOUT);
  // The mutex was re-acquired on the way out: we can still unlock it.
  ShimMutex::shim_unlock(&mu);
  ShimCond::shim_destroy(&cv);
  ShimMutex::shim_destroy(&mu);
}

TEST(ShimCond, InvalidAbstimeIsEinvalBeforeAnyStateChange) {
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t cv = PTHREAD_COND_INITIALIZER;
  struct timespec bad{};
  bad.tv_nsec = 2000000000L;  // out of [0, 1e9)
  ShimMutex::shim_lock(&mu);
  EXPECT_EQ(ShimCond::shim_timedwait(&cv, &mu, &bad), EINVAL);
  ShimMutex::shim_unlock(&mu);  // still held: EINVAL left it untouched
  ShimCond::shim_destroy(&cv);
  ShimMutex::shim_destroy(&mu);
}

// POSIX allows destroying a condvar as soon as all blocked threads
// have been awakened — i.e. immediately after the broadcast, while
// waiters may still be inside pthread_cond_wait re-acquiring the
// mutex. The overlay's destroy drains those stragglers.
TEST(ShimCond, BroadcastThenImmediateDestroy) {
  for (const WaitTier tier : kAllTiers) {
    TierGuard forced(tier);
    for (int round = 0; round < 5; ++round) {
      pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
      auto* cv = new pthread_cond_t;
      ShimCond::shim_init(cv);
      bool flag = false;
      std::atomic<int> returned{0};
      std::vector<std::thread> waiters;
      for (int i = 0; i < 4; ++i) {
        waiters.emplace_back([&, cv] {
          ShimMutex::shim_lock(&mu);
          while (!flag) ShimCond::shim_wait(cv, &mu);
          ShimMutex::shim_unlock(&mu);
          returned.fetch_add(1);
        });
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ShimMutex::shim_lock(&mu);
      flag = true;
      ShimMutex::shim_unlock(&mu);
      ShimCond::shim_broadcast(cv);
      EXPECT_EQ(ShimCond::shim_destroy(cv), 0);
      delete cv;  // storage gone: any late overlay touch would be UAF
      for (auto& t : waiters) t.join();
      EXPECT_EQ(returned.load(), 4) << wait_tier_name(tier);
      ShimMutex::shim_destroy(&mu);
    }
  }
}

// A storm of signals and broadcasts that do NOT change the predicate
// must neither wedge the waiter nor let it through: every overlay
// return is at most a spurious wakeup, absorbed by the caller's
// predicate loop (the POSIX contract this condvar leans on).
TEST(ShimCond, SpuriousWakeupTolerance) {
  for (const WaitTier tier : kAllTiers) {
    TierGuard forced(tier);
    pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
    pthread_cond_t cv = PTHREAD_COND_INITIALIZER;
    bool flag = false;
    std::atomic<bool> escaped{false};
    std::thread waiter([&] {
      ShimMutex::shim_lock(&mu);
      while (!flag) ShimCond::shim_wait(&cv, &mu);
      ShimMutex::shim_unlock(&mu);
      escaped.store(true);
    });
    for (int i = 0; i < 200; ++i) {
      (i & 1) != 0 ? ShimCond::shim_signal(&cv) : ShimCond::shim_broadcast(&cv);
      if ((i & 15) == 0) std::this_thread::yield();
    }
    EXPECT_FALSE(escaped.load()) << wait_tier_name(tier);
    ShimMutex::shim_lock(&mu);
    flag = true;
    ShimMutex::shim_unlock(&mu);
    ShimCond::shim_signal(&cv);
    waiter.join();
    EXPECT_TRUE(escaped.load()) << wait_tier_name(tier);
    ShimCond::shim_destroy(&cv);
    ShimMutex::shim_destroy(&mu);
  }
}

// Concurrent waits must share one mutex (POSIX). glibc makes the
// mismatch undefined; the overlay reports EINVAL.
TEST(ShimCond, MismatchedMutexWhileWaitingIsEinval) {
  pthread_mutex_t m1 = PTHREAD_MUTEX_INITIALIZER;
  pthread_mutex_t m2 = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t cv = PTHREAD_COND_INITIALIZER;
  bool flag = false;
  std::thread waiter([&] {
    ShimMutex::shim_lock(&m1);
    while (!flag) ShimCond::shim_wait(&cv, &m1);
    ShimMutex::shim_unlock(&m1);
  });
  // Wait until the waiter has genuinely registered on (cv, m1) — a
  // fixed sleep would race a slow-starting thread into associating
  // the condvar with m2 instead.
  const auto* sc = reinterpret_cast<const ShimCond*>(&cv);
  while (sc->waiters.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  ShimMutex::shim_lock(&m2);
  EXPECT_EQ(ShimCond::shim_wait(&cv, &m2), EINVAL);
  ShimMutex::shim_unlock(&m2);
  ShimMutex::shim_lock(&m1);
  flag = true;
  ShimMutex::shim_unlock(&m1);
  ShimCond::shim_signal(&cv);
  waiter.join();
  ShimCond::shim_destroy(&cv);
  ShimMutex::shim_destroy(&m1);
  ShimMutex::shim_destroy(&m2);
}

// The lifecycle counters mirror the mutex registry's discipline:
// monotone, and moved by the operations that claim to move them.
TEST(ShimCond, LifecycleStatsMove) {
  auto& stats = cond_stats();
  const auto waits = stats.waits.load();
  const auto signals = stats.signals.load();
  const auto broadcasts = stats.broadcasts.load();
  const auto timeouts = stats.timeouts.load();
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t cv = PTHREAD_COND_INITIALIZER;
  struct timespec past;
  clock_gettime(CLOCK_REALTIME, &past);
  past.tv_sec -= 1;
  ShimMutex::shim_lock(&mu);
  EXPECT_EQ(ShimCond::shim_timedwait(&cv, &mu, &past), ETIMEDOUT);
  ShimMutex::shim_unlock(&mu);
  ShimCond::shim_signal(&cv);
  ShimCond::shim_broadcast(&cv);
  EXPECT_GT(stats.waits.load(), waits);
  EXPECT_GT(stats.signals.load(), signals);
  EXPECT_GT(stats.broadcasts.load(), broadcasts);
  EXPECT_GT(stats.timeouts.load(), timeouts);
  ShimCond::shim_destroy(&cv);
  ShimMutex::shim_destroy(&mu);
}

// ===================================================================
// The pthread_rwlock_t overlay (shim_rwlock).
// ===================================================================

TEST(ShimRwLock, OverlayFitsPthreadStorage) {
  EXPECT_LE(sizeof(ShimRwLock), sizeof(pthread_rwlock_t));
  EXPECT_LE(alignof(ShimRwLock), alignof(pthread_rwlock_t));
}

// The hostable subset: the compact rwlock family (16 bytes, native
// shared mode); the sharded family and every exclusive-only algorithm
// are excluded by the descriptor gate.
TEST(ShimRwLock, SupportedNamesAreTheRwlockHostableSubset) {
  const auto& factory = LockFactory::instance();
  const auto supported = supported_rwlock_names();
  ASSERT_FALSE(supported.empty());
  std::vector<std::string_view> expected;
  for (const LockVTable* vt : factory.entries()) {
    if (shim_rwlock_hostable(vt->info)) expected.push_back(vt->info.name);
  }
  EXPECT_EQ(supported, expected);
  for (const char* name :
       {"rwlock-compact", "rwlock-compact-yield", "rwlock-compact-park",
        "rwlock-compact-adaptive"}) {
    EXPECT_NE(std::find(supported.begin(), supported.end(), name),
              supported.end())
        << name;
  }
  // Exclusive algorithms and the sharded family are not rwlock-hostable.
  for (const char* name : {"hemlock", "mcs", "ticket", "rwlock"}) {
    const LockInfo* info = factory.info(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_FALSE(shim_rwlock_hostable(*info)) << name;
    EXPECT_EQ(std::find(supported.begin(), supported.end(), name),
              supported.end())
        << name;
  }
}

// The (HEMLOCK_RWLOCK, HEMLOCK_WAIT) selection rule through the pure
// resolver.
TEST(ShimRwLock, ResolverSelectsTiersWithinTheCompactFamily) {
  const auto resolved = [](const char* rwlock_env, const char* wait_env) {
    return resolve_shim_rwlock(rwlock_env, wait_env).info.name;
  };
  // Default (auto): the compact family's governed tier, so the rwlock
  // through the shim never convoys when the host oversubscribes.
  EXPECT_EQ(resolved(nullptr, nullptr), "rwlock-compact-adaptive");
  EXPECT_EQ(resolved("", ""), "rwlock-compact-adaptive");
  // Explicit tiers move within the family.
  EXPECT_EQ(resolved("rwlock-compact", "spin"), "rwlock-compact");
  EXPECT_EQ(resolved("rwlock-compact", "yield"), "rwlock-compact-yield");
  EXPECT_EQ(resolved("rwlock-compact", "park"), "rwlock-compact-park");
  EXPECT_EQ(resolved(nullptr, "park"), "rwlock-compact-park");
  // The "-spin" alias is the explicit pure-spin request: honored.
  EXPECT_EQ(resolved("rwlock-compact-spin", nullptr), "rwlock-compact");
  // The sharded names do not fit: their compact sibling in the same
  // tier is hosted instead (then auto-tiering applies as usual).
  EXPECT_EQ(resolved("rwlock", nullptr), "rwlock-compact-adaptive");
  EXPECT_EQ(resolved("rwlock-park", nullptr), "rwlock-compact-park");
  EXPECT_EQ(resolved("rwlock", "spin"), "rwlock-compact");
  // Non-rwlock and unknown names fall back (with a stderr note).
  EXPECT_EQ(resolved("mcs", nullptr), "rwlock-compact-adaptive");
  EXPECT_EQ(resolved("nonsense", "park"), "rwlock-compact-park");
}

TEST(ShimRwLock, InitLockUnlockDestroyRoundTrip) {
  pthread_rwlock_t rw;
  ASSERT_EQ(ShimRwLock::shim_init(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_rdlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_rdlock(&rw), 0);  // second reader
  EXPECT_EQ(ShimRwLock::shim_trywrlock(&rw), EBUSY);
  EXPECT_EQ(ShimRwLock::shim_unlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_unlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_wrlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_tryrdlock(&rw), EBUSY);
  EXPECT_EQ(ShimRwLock::shim_trywrlock(&rw), EBUSY);
  EXPECT_EQ(ShimRwLock::shim_unlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_tryrdlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_unlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_destroy(&rw), 0);
  // Re-init after destroy (POSIX lifecycle).
  ASSERT_EQ(ShimRwLock::shim_init(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_wrlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_unlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_destroy(&rw), 0);
}

TEST(ShimRwLock, StaticInitializerAdoptedLazily) {
  pthread_rwlock_t rw = PTHREAD_RWLOCK_INITIALIZER;  // never shim_init'ed
  EXPECT_EQ(ShimRwLock::shim_rdlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_unlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_destroy(&rw), 0);
}

TEST(ShimRwLock, ConcurrentFirstUseAdoptsExactlyOnce) {
  race_first_use<pthread_rwlock_t>(
      PTHREAD_RWLOCK_INITIALIZER, ShimRwLock::shim_wrlock,
      ShimRwLock::shim_unlock, ShimRwLock::shim_destroy);
}

// Readers and writers through the shim surface: exact write totals
// and no torn reads, i.e. the hosted rwlock's exclusion survives the
// overlay's unlock-mode dispatch.
TEST(ShimRwLock, MixedReadersWritersAreExact) {
  pthread_rwlock_t rw = PTHREAD_RWLOCK_INITIALIZER;
  long a = 0, b = 0;
  std::atomic<long> torn{0};
  constexpr int kWriters = 2, kReaders = 4, kWrites = 2000;
  std::vector<std::thread> ts;
  std::atomic<bool> stop{false};
  for (int r = 0; r < kReaders; ++r) {
    ts.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ShimRwLock::shim_rdlock(&rw);
        if (a != b) torn.fetch_add(1, std::memory_order_relaxed);
        ShimRwLock::shim_unlock(&rw);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    ts.emplace_back([&] {
      for (int i = 0; i < kWrites; ++i) {
        ShimRwLock::shim_wrlock(&rw);
        ++a;
        ++b;
        ShimRwLock::shim_unlock(&rw);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    ts[static_cast<size_t>(kReaders + w)].join();
  }
  stop.store(true, std::memory_order_relaxed);
  for (int r = 0; r < kReaders; ++r) ts[static_cast<size_t>(r)].join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(a, static_cast<long>(kWriters) * kWrites);
  EXPECT_EQ(b, a);
  ShimRwLock::shim_destroy(&rw);
}

// An overlay's telemetry row, folded over every thread: one
// "<kind>:<algorithm>" row serves every interposed object of its kind.
telemetry::Counters overlay_row(std::string_view kind, const LockVTable& vt) {
  const std::string name =
      std::string(kind) + ":" + std::string(vt.info.name);
  for (const telemetry::LockTelemetry& row : telemetry::collect().locks) {
    if (row.name == name) return row;
  }
  return {};
}
telemetry::Counters rwlock_row() {
  return overlay_row("rwlock", selected_rwlock());
}
telemetry::Counters mutex_row() {
  return overlay_row("mutex", selected_lock());
}

// `ms` milliseconds from now on `clock`.
struct timespec deadline_in(clockid_t clock, long ms) {
  struct timespec t;
  clock_gettime(clock, &t);
  t.tv_nsec += ms * 1000 * 1000;
  while (t.tv_nsec >= 1000000000L) {
    t.tv_nsec -= 1000000000L;
    ++t.tv_sec;
  }
  return t;
}

TEST(ShimRwLock, TimedLocksHonorDeadlinesAndEinval) {
  // A timed call is one attempt in the rwlock row, however many polls
  // it took: an acquire (or a reader admission) on success, one try
  // failure on timeout.
  const auto expect_counted = [](const telemetry::Counters& from,
                                 std::uint64_t acquires, std::uint64_t shared,
                                 std::uint64_t failures) {
    const telemetry::Counters now = rwlock_row();
    EXPECT_EQ(now.acquires - from.acquires, acquires);
    EXPECT_EQ(now.shared_acquires - from.shared_acquires, shared);
    EXPECT_EQ(now.try_failures - from.try_failures, failures);
  };
  pthread_rwlock_t rw = PTHREAD_RWLOCK_INITIALIZER;
  // Invalid abstime: EINVAL before any state change.
  struct timespec bad{};
  bad.tv_nsec = 2000000000L;
  EXPECT_EQ(ShimRwLock::shim_timedrdlock(&rw, &bad), EINVAL);
  EXPECT_EQ(ShimRwLock::shim_timedwrlock(&rw, &bad), EINVAL);
  EXPECT_EQ(ShimRwLock::shim_clockrdlock(&rw, CLOCK_TAI, &bad), EINVAL);
  EXPECT_EQ(ShimRwLock::shim_clockwrlock(&rw, CLOCK_TAI, &bad), EINVAL);
  EXPECT_EQ(ShimRwLock::shim_clockwrlock(&rw, CLOCK_MONOTONIC, &bad), EINVAL);
  // Uncontended timed acquires succeed immediately.
  struct timespec soon;
  clock_gettime(CLOCK_REALTIME, &soon);
  soon.tv_sec += 1;
  telemetry::Counters before = rwlock_row();
  EXPECT_EQ(ShimRwLock::shim_timedrdlock(&rw, &soon), 0);
  EXPECT_EQ(ShimRwLock::shim_unlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_timedwrlock(&rw, &soon), 0);
  expect_counted(before, 1, 1, 0);
  // Contended: a past deadline reports ETIMEDOUT promptly, and a
  // short future deadline expires rather than hanging.
  struct timespec past;
  clock_gettime(CLOCK_REALTIME, &past);
  past.tv_sec -= 1;
  before = rwlock_row();
  EXPECT_EQ(ShimRwLock::shim_timedrdlock(&rw, &past), ETIMEDOUT);
  struct timespec brief = deadline_in(CLOCK_MONOTONIC, 50);
  EXPECT_EQ(ShimRwLock::shim_clockrdlock(&rw, CLOCK_MONOTONIC, &brief),
            ETIMEDOUT);
  brief = deadline_in(CLOCK_MONOTONIC, 50);
  EXPECT_EQ(ShimRwLock::shim_clockwrlock(&rw, CLOCK_MONOTONIC, &brief),
            ETIMEDOUT);
  expect_counted(before, 0, 0, 3);
  EXPECT_EQ(ShimRwLock::shim_unlock(&rw), 0);

  // A writer times out behind a reader that holds the lock, and gets
  // it once the reader leaves.
  std::atomic<int> phase{0};
  std::thread reader([&] {
    EXPECT_EQ(ShimRwLock::shim_rdlock(&rw), 0);
    phase.store(1);
    while (phase.load() != 2) std::this_thread::yield();
    EXPECT_EQ(ShimRwLock::shim_unlock(&rw), 0);
  });
  while (phase.load() != 1) std::this_thread::yield();
  before = rwlock_row();
  brief = deadline_in(CLOCK_REALTIME, 50);
  EXPECT_EQ(ShimRwLock::shim_timedwrlock(&rw, &brief), ETIMEDOUT);
  expect_counted(before, 0, 0, 1);
  phase.store(2);
  reader.join();
  before = rwlock_row();
  const struct timespec later = deadline_in(CLOCK_MONOTONIC, 1000);
  EXPECT_EQ(ShimRwLock::shim_clockwrlock(&rw, CLOCK_MONOTONIC, &later), 0);
  expect_counted(before, 1, 0, 0);
  EXPECT_EQ(ShimRwLock::shim_unlock(&rw), 0);
  ShimRwLock::shim_destroy(&rw);
}

// ===================================================================
// Timed mutex acquires (pthread_mutex_timedlock / clocklock): the
// overlay core's deadline-polled body, as the rwlock's timed calls.
// ===================================================================

// Each call is one attempt in the mutex row: an acquire on success,
// one try failure on timeout, nothing on EINVAL.
void expect_mutex_counted(const telemetry::Counters& from,
                          std::uint64_t acquires, std::uint64_t failures) {
  const telemetry::Counters now = mutex_row();
  EXPECT_EQ(now.acquires - from.acquires, acquires);
  EXPECT_EQ(now.try_failures - from.try_failures, failures);
}

TEST(ShimMutex, TimedLocksTakeAFreeMutex) {
  pthread_mutex_t m = PTHREAD_MUTEX_INITIALIZER;
  const telemetry::Counters before = mutex_row();
  struct timespec soon = deadline_in(CLOCK_REALTIME, 1000);
  EXPECT_EQ(ShimMutex::shim_timedlock(&m, &soon), 0);
  EXPECT_EQ(ShimMutex::shim_unlock(&m), 0);
  soon = deadline_in(CLOCK_MONOTONIC, 1000);
  EXPECT_EQ(ShimMutex::shim_clocklock(&m, CLOCK_MONOTONIC, &soon), 0);
  EXPECT_EQ(ShimMutex::shim_unlock(&m), 0);
  // A free mutex is taken even past the deadline: POSIX never times
  // out a lock that can be had at once.
  struct timespec past;
  clock_gettime(CLOCK_REALTIME, &past);
  past.tv_sec -= 1;
  EXPECT_EQ(ShimMutex::shim_timedlock(&m, &past), 0);
  EXPECT_EQ(ShimMutex::shim_unlock(&m), 0);
  expect_mutex_counted(before, 3, 0);
  ShimMutex::shim_destroy(&m);
}

TEST(ShimMutex, TimedLocksTimeOutNoEarlierThanTheDeadline) {
  if (!selected_lock().info.has_trylock) {
    GTEST_SKIP() << selected_lock().info.name
                 << " has no native try path: its timed calls block";
  }
  pthread_mutex_t m = PTHREAD_MUTEX_INITIALIZER;
  std::atomic<int> phase{0};
  std::thread holder([&] {
    EXPECT_EQ(ShimMutex::shim_lock(&m), 0);
    phase.store(1);
    while (phase.load() != 2) std::this_thread::yield();
    EXPECT_EQ(ShimMutex::shim_unlock(&m), 0);
  });
  while (phase.load() != 1) std::this_thread::yield();
  const telemetry::Counters before = mutex_row();
  for (const clockid_t clock : {CLOCK_REALTIME, CLOCK_MONOTONIC}) {
    const struct timespec deadline = deadline_in(clock, 50);
    const int rc = clock == CLOCK_REALTIME
                       ? ShimMutex::shim_timedlock(&m, &deadline)
                       : ShimMutex::shim_clocklock(&m, clock, &deadline);
    struct timespec now;
    clock_gettime(clock, &now);
    EXPECT_EQ(rc, ETIMEDOUT);
    EXPECT_TRUE(now.tv_sec > deadline.tv_sec ||
                (now.tv_sec == deadline.tv_sec &&
                 now.tv_nsec >= deadline.tv_nsec))
        << "timed out before the deadline";
  }
  expect_mutex_counted(before, 0, 2);
  phase.store(2);
  holder.join();
  // Once the holder leaves, a timed call acquires.
  const struct timespec later = deadline_in(CLOCK_MONOTONIC, 1000);
  EXPECT_EQ(ShimMutex::shim_clocklock(&m, CLOCK_MONOTONIC, &later), 0);
  EXPECT_EQ(ShimMutex::shim_unlock(&m), 0);
  ShimMutex::shim_destroy(&m);
}

TEST(ShimMutex, TimedLocksRejectBadArgumentsBeforeAnyStateChange) {
  pthread_mutex_t m = PTHREAD_MUTEX_INITIALIZER;
  const telemetry::Counters before = mutex_row();
  struct timespec bad = deadline_in(CLOCK_REALTIME, 100);
  bad.tv_nsec = 1000000000L;
  EXPECT_EQ(ShimMutex::shim_timedlock(&m, &bad), EINVAL);
  bad.tv_nsec = -1;
  EXPECT_EQ(ShimMutex::shim_clocklock(&m, CLOCK_MONOTONIC, &bad), EINVAL);
  const struct timespec ok = deadline_in(CLOCK_REALTIME, 100);
  EXPECT_EQ(ShimMutex::shim_clocklock(&m, CLOCK_PROCESS_CPUTIME_ID, &ok),
            EINVAL);
  EXPECT_EQ(ShimMutex::shim_timedlock(&m, nullptr), EINVAL);
  EXPECT_EQ(ShimMutex::shim_timedlock(nullptr, &ok), EINVAL);
  expect_mutex_counted(before, 0, 0);
  // Still unadopted: no call got as far as the hosted lock.
  EXPECT_NE(reinterpret_cast<ShimMutex*>(&m)->magic.load(), ShimMutex::kReady);
  ShimMutex::shim_destroy(&m);
}

TEST(ShimRwLock, NullIsEinval) {
  EXPECT_EQ(ShimRwLock::shim_rdlock(nullptr), EINVAL);
  EXPECT_EQ(ShimRwLock::shim_wrlock(nullptr), EINVAL);
  EXPECT_EQ(ShimRwLock::shim_unlock(nullptr), EINVAL);
  EXPECT_EQ(ShimRwLock::shim_destroy(nullptr), EINVAL);
}

// ===================================================================
// PROCESS_SHARED routing (interpose/foreign).
// ===================================================================

// A pshared mutex must not be hosted in the process-local overlay: it
// is routed to glibc at init, every operation forwards, and destroy
// deregisters it.
TEST(ForeignRouting, PsharedMutexRoutesToGlibc) {
  if (!real_pthread().resolved) {
    GTEST_SKIP() << "real pthread symbols not resolvable";
  }
  pthread_mutexattr_t attr;
  ASSERT_EQ(pthread_mutexattr_init(&attr), 0);
  ASSERT_EQ(pthread_mutexattr_setpshared(&attr, PTHREAD_PROCESS_SHARED), 0);
  pthread_mutex_t m;
  ASSERT_EQ(ShimMutex::shim_init(&m, &attr), 0);
  EXPECT_TRUE(ForeignRegistry::contains(&m));
  // Operations forward to glibc and behave.
  EXPECT_EQ(ShimMutex::shim_lock(&m), 0);
  std::thread([&] { EXPECT_EQ(ShimMutex::shim_trylock(&m), EBUSY); }).join();
  EXPECT_EQ(ShimMutex::shim_unlock(&m), 0);
  long counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        ShimMutex::shim_lock(&m);
        ++counter;
        ShimMutex::shim_unlock(&m);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, 4000);
  EXPECT_EQ(ShimMutex::shim_destroy(&m), 0);
  EXPECT_FALSE(ForeignRegistry::contains(&m));
  pthread_mutexattr_destroy(&attr);
}

// A pshared mutex's timed calls go to glibc too: they acquire and time
// out there, and the hosted mutex row never sees them.
TEST(ForeignRouting, PsharedMutexTimedLocksForwardToGlibc) {
  if (!real_pthread().resolved) {
    GTEST_SKIP() << "real pthread symbols not resolvable";
  }
  pthread_mutexattr_t attr;
  ASSERT_EQ(pthread_mutexattr_init(&attr), 0);
  ASSERT_EQ(pthread_mutexattr_setpshared(&attr, PTHREAD_PROCESS_SHARED), 0);
  pthread_mutex_t m;
  ASSERT_EQ(ShimMutex::shim_init(&m, &attr), 0);
  ASSERT_TRUE(ForeignRegistry::contains(&m));
  const telemetry::Counters before = mutex_row();
  const struct timespec soon = deadline_in(CLOCK_REALTIME, 1000);
  EXPECT_EQ(ShimMutex::shim_timedlock(&m, &soon), 0);
  std::thread([&] {
    struct timespec brief = deadline_in(CLOCK_REALTIME, 20);
    EXPECT_EQ(ShimMutex::shim_timedlock(&m, &brief), ETIMEDOUT);
    if (real_pthread().mutex_clocklock != nullptr) {
      brief = deadline_in(CLOCK_MONOTONIC, 20);
      EXPECT_EQ(ShimMutex::shim_clocklock(&m, CLOCK_MONOTONIC, &brief),
                ETIMEDOUT);
    }
  }).join();
  EXPECT_EQ(ShimMutex::shim_unlock(&m), 0);
  expect_mutex_counted(before, 0, 0);
  EXPECT_EQ(ShimMutex::shim_destroy(&m), 0);
  EXPECT_FALSE(ForeignRegistry::contains(&m));
  pthread_mutexattr_destroy(&attr);
}

TEST(ForeignRouting, PsharedCondRoutesToGlibc) {
  if (!real_pthread().resolved) {
    GTEST_SKIP() << "real pthread symbols not resolvable";
  }
  pthread_mutexattr_t mattr;
  pthread_condattr_t cattr;
  ASSERT_EQ(pthread_mutexattr_init(&mattr), 0);
  ASSERT_EQ(pthread_mutexattr_setpshared(&mattr, PTHREAD_PROCESS_SHARED), 0);
  ASSERT_EQ(pthread_condattr_init(&cattr), 0);
  ASSERT_EQ(pthread_condattr_setpshared(&cattr, PTHREAD_PROCESS_SHARED), 0);
  pthread_mutex_t m;
  pthread_cond_t c;
  ASSERT_EQ(ShimMutex::shim_init(&m, &mattr), 0);
  ASSERT_EQ(ShimCond::shim_init(&c, &cattr), 0);
  EXPECT_TRUE(ForeignRegistry::contains(&c));
  // A real glibc signal/wait round trip through the forwarded surface.
  bool flag = false;
  std::thread waiter([&] {
    ShimMutex::shim_lock(&m);
    while (!flag) EXPECT_EQ(ShimCond::shim_wait(&c, &m), 0);
    ShimMutex::shim_unlock(&m);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ShimMutex::shim_lock(&m);
  flag = true;
  ShimMutex::shim_unlock(&m);
  EXPECT_EQ(ShimCond::shim_signal(&c), 0);
  waiter.join();
  EXPECT_EQ(ShimCond::shim_destroy(&c), 0);
  EXPECT_FALSE(ForeignRegistry::contains(&c));
  EXPECT_EQ(ShimMutex::shim_destroy(&m), 0);
  pthread_condattr_destroy(&cattr);
  pthread_mutexattr_destroy(&mattr);
}

TEST(ForeignRouting, PsharedRwlockRoutesToGlibc) {
  if (!real_pthread().resolved) {
    GTEST_SKIP() << "real pthread symbols not resolvable";
  }
  pthread_rwlockattr_t attr;
  ASSERT_EQ(pthread_rwlockattr_init(&attr), 0);
  ASSERT_EQ(pthread_rwlockattr_setpshared(&attr, PTHREAD_PROCESS_SHARED), 0);
  pthread_rwlock_t rw;
  ASSERT_EQ(ShimRwLock::shim_init(&rw, &attr), 0);
  EXPECT_TRUE(ForeignRegistry::contains(&rw));
  EXPECT_EQ(ShimRwLock::shim_rdlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_tryrdlock(&rw), 0);  // glibc: shared re-entry
  EXPECT_EQ(ShimRwLock::shim_unlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_unlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_wrlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_trywrlock(&rw), EBUSY);
  EXPECT_EQ(ShimRwLock::shim_unlock(&rw), 0);
  EXPECT_EQ(ShimRwLock::shim_destroy(&rw), 0);
  EXPECT_FALSE(ForeignRegistry::contains(&rw));
  pthread_rwlockattr_destroy(&attr);
}

// A pshared object freed without its destroy (its peer process owns
// the teardown) leaves a route behind. A private init at the same
// address must clear it and host the new object in the overlay, or
// every operation would reach glibc over overlay bytes.
TEST(ForeignRouting, PrivateReinitClearsAStaleRoute) {
  if (!real_pthread().resolved) {
    GTEST_SKIP() << "real pthread symbols not resolvable";
  }
  pthread_mutexattr_t mattr;
  pthread_condattr_t cattr;
  pthread_rwlockattr_t rwattr;
  ASSERT_EQ(pthread_mutexattr_init(&mattr), 0);
  ASSERT_EQ(pthread_mutexattr_setpshared(&mattr, PTHREAD_PROCESS_SHARED), 0);
  ASSERT_EQ(pthread_condattr_init(&cattr), 0);
  ASSERT_EQ(pthread_condattr_setpshared(&cattr, PTHREAD_PROCESS_SHARED), 0);
  ASSERT_EQ(pthread_rwlockattr_init(&rwattr), 0);
  ASSERT_EQ(pthread_rwlockattr_setpshared(&rwattr, PTHREAD_PROCESS_SHARED),
            0);

  pthread_mutex_t m;
  ASSERT_EQ(ShimMutex::shim_init(&m, &mattr), 0);
  ASSERT_TRUE(ForeignRegistry::contains(&m));
  ASSERT_EQ(ShimMutex::shim_init(&m, nullptr), 0);  // no destroy between
  // A stale route would send the calls below to glibc, which reads
  // the overlay's magic word as a held lock and blocks.
  ASSERT_FALSE(ForeignRegistry::contains(&m));
  EXPECT_EQ(ShimMutex::shim_lock(&m), 0);
  EXPECT_EQ(reinterpret_cast<ShimMutex*>(&m)->magic.load(), ShimMutex::kReady);
  EXPECT_EQ(reinterpret_cast<ShimMutex*>(&m)->vt, &selected_lock());
  EXPECT_EQ(ShimMutex::shim_unlock(&m), 0);

  pthread_cond_t c;
  ASSERT_EQ(ShimCond::shim_init(&c, &cattr), 0);
  ASSERT_TRUE(ForeignRegistry::contains(&c));
  ASSERT_EQ(ShimCond::shim_init(&c, nullptr), 0);
  ASSERT_FALSE(ForeignRegistry::contains(&c));
  EXPECT_EQ(ShimCond::shim_signal(&c), 0);
  EXPECT_EQ(reinterpret_cast<ShimCond*>(&c)->magic.load(), ShimCond::kReady);
  // The hosted condvar waits on the hosted mutex (a routed condvar
  // would refuse it with EINVAL).
  struct timespec past;
  clock_gettime(CLOCK_REALTIME, &past);
  past.tv_sec -= 1;
  EXPECT_EQ(ShimMutex::shim_lock(&m), 0);
  EXPECT_EQ(ShimCond::shim_timedwait(&c, &m, &past), ETIMEDOUT);
  EXPECT_EQ(ShimMutex::shim_unlock(&m), 0);

  pthread_rwlock_t rw;
  ASSERT_EQ(ShimRwLock::shim_init(&rw, &rwattr), 0);
  ASSERT_TRUE(ForeignRegistry::contains(&rw));
  ASSERT_EQ(ShimRwLock::shim_init(&rw, nullptr), 0);
  ASSERT_FALSE(ForeignRegistry::contains(&rw));
  EXPECT_EQ(ShimRwLock::shim_rdlock(&rw), 0);
  EXPECT_EQ(reinterpret_cast<ShimRwLock*>(&rw)->magic.load(),
            ShimRwLock::kReady);
  EXPECT_EQ(reinterpret_cast<ShimRwLock*>(&rw)->vt, &selected_rwlock());
  EXPECT_EQ(ShimRwLock::shim_unlock(&rw), 0);

  EXPECT_EQ(ShimRwLock::shim_destroy(&rw), 0);
  EXPECT_EQ(ShimCond::shim_destroy(&c), 0);
  EXPECT_EQ(ShimMutex::shim_destroy(&m), 0);
  pthread_rwlockattr_destroy(&rwattr);
  pthread_condattr_destroy(&cattr);
  pthread_mutexattr_destroy(&mattr);
}

// Process-private attrs stay in the overlay (no foreign routing).
TEST(ForeignRouting, PrivateAttrObjectsStayHosted) {
  pthread_mutexattr_t attr;
  ASSERT_EQ(pthread_mutexattr_init(&attr), 0);
  pthread_mutex_t m;
  ASSERT_EQ(ShimMutex::shim_init(&m, &attr), 0);
  EXPECT_FALSE(ForeignRegistry::contains(&m));
  EXPECT_EQ(ShimMutex::shim_lock(&m), 0);
  EXPECT_EQ(ShimMutex::shim_unlock(&m), 0);
  EXPECT_EQ(ShimMutex::shim_destroy(&m), 0);
  pthread_mutexattr_destroy(&attr);
}

// ===================================================================
// Condattr clocks (ShimCond::clock).
// ===================================================================

// A condvar configured for CLOCK_MONOTONIC must measure timedwait
// deadlines on CLOCK_MONOTONIC. The old hard-coded CLOCK_REALTIME
// turned any monotonic deadline (epoch: boot) into the distant past
// and returned ETIMEDOUT immediately — so the elapsed-time assertion
// is the regression discriminator.
TEST(ShimCondClock, TimedwaitMeasuresTheConfiguredClock) {
  pthread_condattr_t attr;
  ASSERT_EQ(pthread_condattr_init(&attr), 0);
  ASSERT_EQ(pthread_condattr_setclock(&attr, CLOCK_MONOTONIC), 0);
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t cv;
  ASSERT_EQ(ShimCond::shim_init(&cv, &attr), 0);
  const auto* sc = reinterpret_cast<const ShimCond*>(&cv);
  EXPECT_EQ(sc->clock.load(), CLOCK_MONOTONIC);

  constexpr long kWaitMs = 60;
  struct timespec deadline;
  clock_gettime(CLOCK_MONOTONIC, &deadline);
  deadline.tv_nsec += kWaitMs * 1000 * 1000;
  if (deadline.tv_nsec >= 1000000000L) {
    deadline.tv_nsec -= 1000000000L;
    ++deadline.tv_sec;
  }
  ShimMutex::shim_lock(&mu);
  const auto start = std::chrono::steady_clock::now();
  const int rc = ShimCond::shim_timedwait(&cv, &mu, &deadline);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ShimMutex::shim_unlock(&mu);
  EXPECT_EQ(rc, ETIMEDOUT);
  EXPECT_GE(elapsed.count(), kWaitMs - 20)
      << "monotonic deadline was measured on the wrong clock";
  ShimCond::shim_destroy(&cv);
  ShimMutex::shim_destroy(&mu);
  pthread_condattr_destroy(&attr);
}

// Defaulted attrs and static initializers keep the POSIX default.
TEST(ShimCondClock, DefaultIsRealtime) {
  pthread_cond_t lazy = PTHREAD_COND_INITIALIZER;
  ShimCond::shim_signal(&lazy);  // adopt
  EXPECT_EQ(reinterpret_cast<const ShimCond*>(&lazy)->clock.load(),
            CLOCK_REALTIME);
  ShimCond::shim_destroy(&lazy);

  pthread_condattr_t attr;
  ASSERT_EQ(pthread_condattr_init(&attr), 0);
  pthread_cond_t cv;
  ASSERT_EQ(ShimCond::shim_init(&cv, &attr), 0);
  EXPECT_EQ(reinterpret_cast<const ShimCond*>(&cv)->clock.load(),
            CLOCK_REALTIME);
  ShimCond::shim_destroy(&cv);
  pthread_condattr_destroy(&attr);
}

// The three integration tests below exec the plain-pthreads demo
// binaries with LD_PRELOAD=libhemlock_preload.so. Under ASan that
// preload slot is already spoken for: the sanitizer runtime must come
// first in the initial library list, and the dynamic linker refuses
// the stack (`ASan runtime does not come first`). The in-process shim
// suites above retain full coverage in sanitizer legs; the dynamic-
// linker path is exercised by the plain CI legs' smoke steps.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HEMLOCK_TEST_UNDER_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define HEMLOCK_TEST_UNDER_ASAN 1
#endif
inline bool preload_blocked_by_sanitizer() {
#if defined(HEMLOCK_TEST_UNDER_ASAN)
  return true;
#else
  return false;
#endif
}

// Full integration: run the plain-pthreads demo binary under
// LD_PRELOAD for every supported algorithm. The demo exits non-zero
// if its counters are wrong, so one EXPECT per algorithm covers
// adoption, exclusion, trylock and destroy through the real dynamic
// linker path.
TEST(PreloadIntegration, DemoRunsCorrectlyUnderEveryAlgorithm) {
#if !defined(HEMLOCK_PRELOAD_SO) || !defined(HEMLOCK_PRELOAD_DEMO)
  GTEST_SKIP() << "preload paths not configured";
#else
  if (preload_blocked_by_sanitizer()) {
    GTEST_SKIP() << "LD_PRELOAD slot owned by the sanitizer runtime";
  }
  const std::string preload = HEMLOCK_PRELOAD_SO;
  const std::string demo = HEMLOCK_PRELOAD_DEMO;
  // Bounded per-thread iterations: queue-lock handoffs run at
  // scheduler speed when the host has fewer cores than demo threads,
  // and this sweep covers every supported algorithm.
  const std::string env = "HEMLOCK_DEMO_ITERS=2000 LD_PRELOAD=" + preload;
  for (const std::string_view algo : supported_lock_names()) {
    const std::string cmd = env + " HEMLOCK_LOCK=" + std::string(algo) + " " +
                            demo + " > /dev/null";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << "HEMLOCK_LOCK=" << algo;
  }
  // Unknown algorithm falls back to the default but still works.
  const std::string fallback =
      env + " HEMLOCK_LOCK=nonsense " + demo + " > /dev/null 2>&1";
  EXPECT_EQ(std::system(fallback.c_str()), 0);
#endif
}

// The condvar demo (producer/consumer through real pthread_cond_*)
// under LD_PRELOAD for every condvar-capable algorithm: the overlay's
// wait/signal/broadcast/timedwait paths through the actual dynamic
// linker, on top of each hosted mutex.
TEST(PreloadIntegration, CondDemoRunsCorrectlyUnderEveryAlgorithm) {
#if !defined(HEMLOCK_PRELOAD_SO) || !defined(HEMLOCK_PRELOAD_COND_DEMO)
  GTEST_SKIP() << "preload paths not configured";
#else
  if (preload_blocked_by_sanitizer()) {
    GTEST_SKIP() << "LD_PRELOAD slot owned by the sanitizer runtime";
  }
  const std::string preload = HEMLOCK_PRELOAD_SO;
  const std::string demo = HEMLOCK_PRELOAD_COND_DEMO;
  const std::string env = "HEMLOCK_DEMO_ITERS=1000 LD_PRELOAD=" + preload;
  for (const std::string_view algo : supported_cond_lock_names()) {
    const std::string cmd = env + " HEMLOCK_LOCK=" + std::string(algo) + " " +
                            demo + " > /dev/null";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << "HEMLOCK_LOCK=" << algo;
  }
#endif
}

// An export path longer than the library keeps (255 bytes) is refused,
// not truncated: a truncated path names another file. The stats then
// go to stderr and the trace stays off. Each path has two components
// within NAME_MAX, and the first exists, so a truncating library would
// create a file at the truncated prefix.
TEST(PreloadIntegration, OverlongExportPathsAreRefused) {
#if !defined(HEMLOCK_PRELOAD_SO) || !defined(HEMLOCK_PRELOAD_DEMO)
  GTEST_SKIP() << "preload paths not configured";
#else
  if (preload_blocked_by_sanitizer()) {
    GTEST_SKIP() << "LD_PRELOAD slot owned by the sanitizer runtime";
  }
  std::string root =
      (std::filesystem::temp_directory_path() / "hemlock-paths-XXXXXX")
          .string();
  ASSERT_NE(mkdtemp(root.data()), nullptr);
  const std::string dir = root + "/" + std::string(200, 'd');
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  const std::string stats = dir + "/" + std::string(200, 's') + ".json";
  const std::string trace = dir + "/" + std::string(200, 't') + ".json";
  const std::string err = root + "/stderr.txt";
  const std::string cmd =
      std::string("HEMLOCK_DEMO_ITERS=200 LD_PRELOAD=") + HEMLOCK_PRELOAD_SO +
      " HEMLOCK_STATS=json:" + stats + " HEMLOCK_TRACE=" + trace + " " +
      HEMLOCK_PRELOAD_DEMO + " > /dev/null 2> " + err;
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  for (const std::string& path : {stats, trace}) {
    EXPECT_FALSE(std::filesystem::exists(path.substr(0, 255)));
    EXPECT_FALSE(std::filesystem::exists(path));
  }
  std::ifstream in(err);
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  EXPECT_NE(text.find("HEMLOCK_STATS path is"), std::string::npos) << text;
  EXPECT_NE(text.find("HEMLOCK_TRACE path is"), std::string::npos) << text;
  EXPECT_NE(text.find("\"schema\":\"hemlock-telemetry-v1\""),
            std::string::npos)
      << text;
  std::filesystem::remove_all(root);
#endif
}

// The rwlock demo (readers/writers through real pthread_rwlock_*)
// under LD_PRELOAD for every rwlock-hostable algorithm: the overlay's
// rdlock/wrlock/timedrdlock/trywrlock/unlock dispatch through the
// actual dynamic linker. The demo exits non-zero on any torn read or
// lost write generation.
TEST(PreloadIntegration, RwlockDemoRunsCorrectlyUnderEveryAlgorithm) {
#if !defined(HEMLOCK_PRELOAD_SO) || !defined(HEMLOCK_PRELOAD_RWLOCK_DEMO)
  GTEST_SKIP() << "preload paths not configured";
#else
  if (preload_blocked_by_sanitizer()) {
    GTEST_SKIP() << "LD_PRELOAD slot owned by the sanitizer runtime";
  }
  const std::string preload = HEMLOCK_PRELOAD_SO;
  const std::string demo = HEMLOCK_PRELOAD_RWLOCK_DEMO;
  const std::string env = "HEMLOCK_DEMO_ITERS=500 LD_PRELOAD=" + preload;
  for (const std::string_view algo : supported_rwlock_names()) {
    const std::string cmd = env +
                            " HEMLOCK_RWLOCK=" + std::string(algo) + " " +
                            demo + " > /dev/null";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << "HEMLOCK_RWLOCK=" << algo;
  }
  // Unknown selection falls back to the default family but still works.
  const std::string fallback =
      env + " HEMLOCK_RWLOCK=nonsense " + demo + " > /dev/null 2>&1";
  EXPECT_EQ(std::system(fallback.c_str()), 0);
#endif
}

}  // namespace
}  // namespace hemlock::interpose
