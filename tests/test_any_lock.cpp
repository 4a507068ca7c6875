// test_any_lock.cpp — the type-erased public API: factory roster
// integrity, LockInfo consistency with lock_traits<>, unknown-name
// rejection, the inline-buffer guarantee (with the boxed-storage
// demotion of bulk-bodied algorithms), runtime lock registration,
// shim/factory name-set agreement, and a parameterized
// mutual-exclusion stress sweep that runs EVERY factory algorithm
// through AnyLock.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/hemlock_api.hpp"
#include "interpose/shim_mutex.hpp"
#include "runtime/barrier.hpp"

namespace hemlock {
namespace {

// --------------------------------------------------------- factory --
TEST(LockFactory, RosterMatchesRegistry) {
  const auto& factory = LockFactory::instance();
  const auto factory_names = factory.names();
  const auto registry_names = lock_names<AllLockTags>();
  ASSERT_EQ(factory_names.size(), registry_names.size());
  for (std::size_t i = 0; i < factory_names.size(); ++i) {
    EXPECT_EQ(factory_names[i], registry_names[i]) << "index " << i;
  }
  // Names are unique — the factory key space is well-defined.
  std::set<std::string_view> uniq(factory_names.begin(), factory_names.end());
  EXPECT_EQ(uniq.size(), factory_names.size());
}

TEST(LockFactory, UnknownNamesAreRejectedEverywhere) {
  const auto& factory = LockFactory::instance();
  EXPECT_EQ(factory.find("no-such-lock"), nullptr);
  EXPECT_EQ(factory.info("no-such-lock"), nullptr);
  EXPECT_EQ(find_lock("no-such-lock"), nullptr);
  EXPECT_THROW(factory.make("no-such-lock"), std::invalid_argument);
  EXPECT_THROW(AnyLock{"no-such-lock"}, std::invalid_argument);
  // Near-misses don't fuzzy-match.
  EXPECT_EQ(factory.find("Hemlock"), nullptr);
  EXPECT_EQ(factory.find("hemlock "), nullptr);
  EXPECT_EQ(factory.find(""), nullptr);
}

// info() must agree field-for-field with the compile-time traits it
// is materialized from, for the whole roster.
TEST(LockFactory, InfoMatchesLockTraits) {
  const auto& factory = LockFactory::instance();
  for_each_lock_type<AllLockTags>([&](auto tag) {
    using L = typename decltype(tag)::type;
    constexpr LockInfo expected = make_lock_info<L>();
    const LockInfo* info = factory.info(lock_traits<L>::name);
    ASSERT_NE(info, nullptr) << lock_traits<L>::name;
    EXPECT_EQ(info->name, expected.name);
    EXPECT_EQ(info->lock_words, expected.lock_words);
    EXPECT_EQ(info->held_words, expected.held_words);
    EXPECT_EQ(info->wait_words, expected.wait_words);
    EXPECT_EQ(info->thread_words, expected.thread_words);
    EXPECT_EQ(info->nontrivial_init, expected.nontrivial_init);
    EXPECT_EQ(info->is_fifo, expected.is_fifo);
    EXPECT_EQ(info->has_trylock, expected.has_trylock);
    EXPECT_EQ(info->spinning, expected.spinning);
    EXPECT_EQ(info->size_bytes, sizeof(L));
    EXPECT_EQ(info->align_bytes, alignof(L));
  });
}

TEST(LockFactory, SafetyBoundsAreRecorded) {
  const auto& factory = LockFactory::instance();
  // Anderson's waiting array bounds contenders (in every waiting
  // tier); everyone else is unbounded.
  for (const LockVTable* vt : factory.entries()) {
    if (vt->info.name.starts_with("anderson")) {
      EXPECT_EQ(vt->info.max_threads, AndersonDefault::capacity())
          << vt->info.name;
    } else {
      EXPECT_EQ(vt->info.max_threads, 0u) << vt->info.name;
    }
  }
  // The two overlay-unsafe algorithms carry their flag.
  EXPECT_FALSE(factory.info("hemlock-ah")->pthread_overlay_safe);
  EXPECT_FALSE(factory.info("hemlock-cv")->pthread_overlay_safe);
  EXPECT_TRUE(factory.info("hemlock")->pthread_overlay_safe);
}

// The waiting-tier vocabulary: descriptors carry the policy name and
// the oversubscription-safety bit the shim's auto-selection keys on.
TEST(LockFactory, WaitingTiersAreRecorded) {
  const auto& factory = LockFactory::instance();
  for (const auto& [name, waiting, safe] :
       {std::tuple{"mcs", "spin", false}, {"mcs-yield", "yield", true},
        {"mcs-park", "park", true}, {"mcs-adaptive", "adaptive", true},
        {"clh", "spin", false}, {"clh-park", "park", true},
        {"ticket", "spin", false}, {"ticket-park", "park", true},
        {"anderson", "spin", false}, {"anderson-park", "park", true},
        {"hemlock", "ctr-cas", false}, {"hemlock-", "load", false},
        {"hemlock-faa", "ctr-faa", false}, {"rwlock-yield", "yield", true},
        {"hemlock-futex", "park", true}, {"hemlock-adaptive", "adaptive", true},
        {"hemlock-cv", "condvar", true}, {"hemlock-chain", "park", true},
        {"pthread", "park", true}}) {
    const LockInfo* info = factory.info(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_EQ(info->waiting, waiting) << name;
    EXPECT_EQ(info->oversub_safe, safe) << name;
  }
  // Every registered algorithm declares *some* waiting policy.
  for (const LockVTable* vt : factory.entries()) {
    EXPECT_FALSE(vt->info.waiting.empty()) << vt->info.name;
  }
}

// "-spin" is the explicit name of the default pure-spin tier: it
// canonicalizes to the base entry (one vtable, not a duplicate).
TEST(LockFactory, SpinSuffixCanonicalizesToTheBaseEntry) {
  const auto& factory = LockFactory::instance();
  for (const char* base : {"mcs", "clh", "ticket", "anderson"}) {
    const std::string alias = std::string(base) + "-spin";
    EXPECT_EQ(factory.find(alias), factory.find(base)) << alias;
    EXPECT_EQ(find_lock(alias), find_lock(base)) << alias;
  }
  AnyLock lk("mcs-spin");
  EXPECT_EQ(lk.name(), "mcs");  // canonical name, not the alias
  // The alias never resurrects unknown bases or chains suffixes.
  EXPECT_EQ(factory.find("nope-spin"), nullptr);
  EXPECT_EQ(factory.find("-spin"), nullptr);
  EXPECT_EQ(factory.find("mcs-spin-spin"), nullptr);
  EXPECT_EQ(find_lock("mcs-spin-spin"), nullptr);
}

// ------------------------------------------ runtime registration --
// A lock family OUTSIDE AllLockTags, registered with the factory at
// run time — how an embedder brings its own shard lock to the sharded
// serving layer without recompiling the registry.
class RuntimeTestLock {
 public:
  void lock() {
    while (held_.exchange(true, std::memory_order_acquire)) {
    }
  }
  void unlock() { held_.store(false, std::memory_order_release); }
  bool try_lock() { return !held_.exchange(true, std::memory_order_acquire); }

 private:
  std::atomic<bool> held_{false};
};

}  // namespace

template <>
struct lock_traits<RuntimeTestLock> {
  static constexpr const char* name = "runtime-test-tas";
  static constexpr std::size_t lock_words = 1;
  static constexpr std::size_t held_words = 0;
  static constexpr std::size_t wait_words = 0;
  static constexpr std::size_t thread_words = 0;
  static constexpr bool nontrivial_init = false;
  static constexpr bool is_fifo = false;
  static constexpr bool has_trylock = true;
  static constexpr Spinning spinning = Spinning::kGlobal;
};

namespace {

TEST(LockFactoryRuntime, RegistrationRoundTrip) {
  ASSERT_TRUE(LockFactory::register_lock_type<RuntimeTestLock>());
  // Resolves everywhere a compile-time roster name does.
  const auto& factory = LockFactory::instance();
  const LockVTable* vt = factory.find("runtime-test-tas");
  ASSERT_NE(vt, nullptr);
  EXPECT_EQ(vt, find_lock("runtime-test-tas"));
  ASSERT_NE(factory.info("runtime-test-tas"), nullptr);
  EXPECT_EQ(factory.info("runtime-test-tas")->size_bytes,
            sizeof(RuntimeTestLock));

  // ...including the erased construction paths, with real mutual
  // exclusion through the registered thunks.
  AnyLock lk = factory.make("runtime-test-tas");
  EXPECT_EQ(lk.name(), "runtime-test-tas");
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::uint64_t counter = 0;
  SpinBarrier start(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        LockGuard<AnyLock> g(lk);
        ++counter;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);

  // Listed by runtime_entries(), invisible to the compile-time roster
  // views (names()/entries() stay the static registry, so the roster
  // sweeps above remain exact).
  const auto runtime = LockFactory::runtime_entries();
  EXPECT_NE(std::find(runtime.begin(), runtime.end(), vt), runtime.end());
  for (const auto name : factory.names()) {
    EXPECT_NE(name, "runtime-test-tas");
  }

  // Re-registering the same name is refused.
  EXPECT_FALSE(LockFactory::register_lock_type<RuntimeTestLock>());
}

TEST(LockFactoryRuntime, InvalidRegistrationsAreRejected) {
  // Colliding with a roster name — directly or through the "-spin"
  // alias — is refused, so registration can never shadow an existing
  // spelling.
  static LockVTable collides = lock_vtable<RuntimeTestLock>;
  collides.info.name = "mcs";
  EXPECT_FALSE(LockFactory::register_lock(collides));
  static LockVTable alias_collides = lock_vtable<RuntimeTestLock>;
  alias_collides.info.name = "mcs-spin";
  EXPECT_FALSE(LockFactory::register_lock(alias_collides));

  static LockVTable unnamed = lock_vtable<RuntimeTestLock>;
  unnamed.info.name = "";
  EXPECT_FALSE(LockFactory::register_lock(unnamed));

  // An entry AnyLock's inline buffer could not host is refused (the
  // typed path rejects this at compile time; the raw path must too).
  static LockVTable oversized = lock_vtable<RuntimeTestLock>;
  oversized.info.name = "runtime-oversized";
  oversized.info.size_bytes = AnyLock::kStorageBytes + 1;
  EXPECT_FALSE(LockFactory::register_lock(oversized));

  static LockVTable thunkless = lock_vtable<RuntimeTestLock>;
  thunkless.info.name = "runtime-thunkless";
  thunkless.lock = nullptr;
  EXPECT_FALSE(LockFactory::register_lock(thunkless));

  // None of the rejects leaked into the lookup paths.
  EXPECT_EQ(find_lock("runtime-oversized"), nullptr);
  EXPECT_EQ(find_lock("runtime-thunkless"), nullptr);
}

// ----------------------------------------------- shim/factory sets --
// The interposition shim keeps no name table: its supported set must
// be exactly the hostable subset of the factory roster.
TEST(LockFactory, ShimSupportsExactlyTheHostableSubset) {
  const auto& factory = LockFactory::instance();
  const auto supported = interpose::supported_lock_names();
  std::set<std::string_view> supported_set(supported.begin(),
                                           supported.end());
  EXPECT_EQ(supported_set.size(), supported.size());  // no duplicates
  for (const LockVTable* vt : factory.entries()) {
    EXPECT_EQ(supported_set.count(vt->info.name) == 1,
              interpose::shim_hostable(vt->info))
        << vt->info.name;
  }
  // Every supported name is a factory name.
  for (const auto name : supported) {
    EXPECT_NE(factory.find(name), nullptr) << name;
  }
}

// --------------------------------------------------------- AnyLock --
TEST(AnyLock, InlineBufferFitsEveryRosterLock) {
  // Compile-time guarantee (the static_asserts in LockErasure<> are
  // the real enforcement); restated at run time over the live roster
  // so a reader can see the buffer accounting.
  for (const LockVTable* vt : LockFactory::instance().entries()) {
    EXPECT_LE(vt->info.size_bytes, AnyLock::kStorageBytes) << vt->info.name;
    EXPECT_LE(vt->info.align_bytes, AnyLock::kStorageAlign) << vt->info.name;
  }
  static_assert(sizeof(AnyLock) >= AnyLock::kStorageBytes);
  // The boxed-storage demotion (locks/boxed.hpp): Anderson's waiting
  // array and the sharded-ingress rwlock no longer size the buffer —
  // every AnyLock is cacheline-scale, not kilobytes.
  static_assert(sizeof(BoxedLock<AndersonDefault>) == sizeof(void*));
  static_assert(AnyLock::kStorageBytes < sizeof(AndersonDefault));
  static_assert(AnyLock::kStorageBytes < sizeof(RwLock));
  static_assert(AnyLock::kStorageBytes <= 256);
}

// Boxing changes the storage strategy, not the algorithm: same
// factory name, same bounds, still mutual exclusion.
TEST(AnyLock, BoxedLocksKeepTheirIdentity) {
  AnyLock lk("anderson");
  EXPECT_EQ(lk.name(), "anderson");
  EXPECT_EQ(lk.info().max_threads, AndersonDefault::capacity());
  EXPECT_TRUE(lk.info().nontrivial_init);        // heap-allocating ctor
  EXPECT_FALSE(lk.info().pthread_overlay_safe);  // malloc-in-shim hazard
  lk.lock();
  lk.unlock();
  AnyLock rw("rwlock");
  EXPECT_TRUE(rw.info().rwlock_capable);  // shared surface passes through
  rw.lock_shared();
  EXPECT_TRUE(rw.try_lock_shared());
  rw.unlock_shared();
  rw.unlock_shared();
}

TEST(AnyLock, DefaultIsTheHeadlineAlgorithm) {
  AnyLock lk;
  EXPECT_EQ(lk.name(), kDefaultLockName);
  EXPECT_EQ(lk.name(), "hemlock");
  lk.lock();
  lk.unlock();
}

TEST(AnyLock, WorksWithRaiiGuards) {
  AnyLock lk("mcs");
  {
    LockGuard<AnyLock> g(lk);
  }
  {
    std::scoped_lock g(lk);  // BasicLockable interop
  }
  EXPECT_EQ(with_lock(lk, [] { return 42; }), 42);
}

TEST(AnyLock, FactoryMakeConstructsInPlace) {
  AnyLock lk = LockFactory::instance().make("ticket");
  EXPECT_EQ(lk.name(), "ticket");
  EXPECT_TRUE(lk.try_lock());
  lk.unlock();
}

// ------------------------------------- parameterized roster sweep --
class AnyLockRoster : public ::testing::TestWithParam<std::string> {};

// Mutual-exclusion stress through the type-erased surface: exact
// counter totals prove exclusion held for every algorithm name.
TEST_P(AnyLockRoster, MutualExclusionStress) {
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  AnyLock lk(GetParam());
  std::uint64_t counter = 0;
  SpinBarrier start(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        lk.lock();
        ++counter;
        lk.unlock();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

// try_lock honors the descriptor: algorithms with a native try_lock
// succeed uncontended and count exactly; the rest always refuse.
TEST_P(AnyLockRoster, TryLockHonorsDescriptor) {
  AnyLock lk(GetParam());
  if (lk.info().has_trylock) {
    ASSERT_TRUE(lk.try_lock());
    lk.unlock();
    // Mixed lock/try_lock traffic stays exact.
    constexpr int kThreads = 4;
    std::uint64_t counter = 0;
    std::atomic<std::uint64_t> successes{0};
    SpinBarrier start(kThreads);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        start.arrive_and_wait();
        for (int i = 0; i < 1500; ++i) {
          if ((i + t) % 2 == 0) {
            lk.lock();
            ++counter;
            successes.fetch_add(1, std::memory_order_relaxed);
            lk.unlock();
          } else if (lk.try_lock()) {
            ++counter;
            successes.fetch_add(1, std::memory_order_relaxed);
            lk.unlock();
          }
        }
      });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(counter, successes.load());
  } else {
    EXPECT_FALSE(lk.try_lock());  // conservative attempt, even unheld
    lk.lock();
    lk.unlock();
  }
}

TEST_P(AnyLockRoster, InfoIsTheNamedAlgorithms) {
  AnyLock lk(GetParam());
  EXPECT_EQ(lk.name(), GetParam());
  const LockInfo* info = LockFactory::instance().info(GetParam());
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(&lk.info(), info);  // same static descriptor, not a copy
}

std::vector<std::string> all_factory_names() {
  std::vector<std::string> names;
  for (const auto name : LockFactory::instance().names()) {
    names.emplace_back(name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    FullRoster, AnyLockRoster, ::testing::ValuesIn(all_factory_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string id = info.param;
      std::replace(id.begin(), id.end(), '-', '_');
      return id;
    });

}  // namespace
}  // namespace hemlock
