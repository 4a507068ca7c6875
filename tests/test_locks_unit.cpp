// test_locks_unit.cpp — focused unit tests for individual pieces the
// cross-cutting property suites treat as black boxes: waiting
// policies, the node pool (footnote 5), K42's element recovery, the
// lock registry, and the paper's §2 atomic-operation accounting where
// it is statically checkable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/factory.hpp"
#include "core/lock_registry.hpp"
#include "core/waiting.hpp"
#include "locks/node_pool.hpp"
#include "runtime/governor.hpp"

namespace hemlock {
namespace {

// ------------------------------------- Grant poll × tier policies --
// Every Grant composition the roster uses: the paper's three polls on
// the spin tier, and CTR CAS over the park, governed and yield tiers
// (the last is the rwlock-yield writer).
template <typename PollT, typename TierT>
struct Composition {
  using Policy = GrantWaiting<PollT, TierT>;
  static constexpr bool parks = TierT::may_park;
};

template <typename C>
class GrantPolicy : public ::testing::Test {
 protected:
  // The governed tier is pinned to park so its waits take the sleep
  // path too; the fixed tiers ignore the governor.
  void SetUp() override {
    ContentionGovernor::instance().force(WaitTier::kPark);
  }
  void TearDown() override { ContentionGovernor::instance().clear_force(); }
};
using GrantCompositions = ::testing::Types<
    Composition<LoadPoll, QueueSpinWaiting>,
    Composition<CasPoll, QueueSpinWaiting>,
    Composition<FaaPoll, QueueSpinWaiting>,
    Composition<CasPoll, SpinThenParkWaiting>,
    Composition<CasPoll, GovernedWaiting>,
    Composition<CasPoll, QueueYieldWaiting>>;
TYPED_TEST_SUITE(GrantPolicy, GrantCompositions);

/// Polls `cond` until it holds or 10 s pass — for asserting on a state
/// the test observed rather than on a sleep.
template <typename Cond>
bool eventually(const Cond& cond) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TYPED_TEST(GrantPolicy, HandshakeClearsAndDrains) {
  using Policy = typename TypeParam::Policy;
  std::atomic<GrantWord> grant{kGrantEmpty};
  constexpr GrantWord kAddr = 0x1000;

  std::thread waiter([&] {
    Policy::wait_and_consume(grant, kAddr);  // consume must clear
  });
  // Publish after a beat, like unlock's handover.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  Policy::publish(grant, kAddr);
  Policy::wait_until_empty(grant);  // unlock-side drain
  waiter.join();
  EXPECT_EQ(grant.load(), kGrantEmpty);
}

// A waiter for address A must ignore address B (the multi-waiting
// disambiguation primitive, §2.2). A parked waiter is woken by B's
// publish and must go back to sleep without consuming it.
TYPED_TEST(GrantPolicy, IgnoresOtherAddresses) {
  using Policy = typename TypeParam::Policy;
  auto& gov = ContentionGovernor::instance();
  std::atomic<GrantWord> grant{kGrantEmpty};
  constexpr GrantWord kMine = 0x2000, kOther = 0x3000;
  std::atomic<bool> consumed{false};
  std::thread waiter([&] {
    Policy::wait_and_consume(grant, kMine);
    consumed = true;
  });
  if constexpr (TypeParam::parks) {
    EXPECT_TRUE(eventually([&] { return gov.parked(&grant) != 0; }));
  }
  Policy::publish(grant, kOther);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if constexpr (TypeParam::parks) {
    // Woken by the foreign publish, asleep again.
    EXPECT_TRUE(eventually([&] { return gov.parked(&grant) != 0; }));
  }
  EXPECT_FALSE(consumed.load());    // other address ignored
  EXPECT_EQ(grant.load(), kOther);  // and NOT consumed
  Policy::publish(grant, kMine);
  waiter.join();
  EXPECT_TRUE(consumed.load());
  EXPECT_EQ(grant.load(), kGrantEmpty);
}

// ------------------------------------------------------ node pool --
struct PoolNode {
  int payload = 0;
  PoolNode* pool_next = nullptr;
};

TEST(NodePool, ReusesReleasedNodesLifo) {
  PoolNode* a = NodePool<PoolNode>::acquire();
  PoolNode* b = NodePool<PoolNode>::acquire();
  EXPECT_NE(a, b);
  NodePool<PoolNode>::release(a);
  NodePool<PoolNode>::release(b);
  // LIFO: most recently released comes back first (locality, per the
  // paper's footnote 5: "A stack is convenient for locality").
  EXPECT_EQ(NodePool<PoolNode>::acquire(), b);
  EXPECT_EQ(NodePool<PoolNode>::acquire(), a);
  NodePool<PoolNode>::release(a);
  NodePool<PoolNode>::release(b);
}

TEST(NodePool, PerThreadStacksAreIndependent) {
  PoolNode* mine = NodePool<PoolNode>::acquire();
  PoolNode* theirs = nullptr;
  std::thread([&] { theirs = NodePool<PoolNode>::acquire(); }).join();
  EXPECT_NE(mine, theirs);
  NodePool<PoolNode>::release(mine);
  // `theirs` was leaked into the exited thread's (dead) stack — the
  // arena sweeper reclaims it at process exit; minted() only grows.
  EXPECT_GE(NodePool<PoolNode>::minted(), 2u);
}

TEST(NodePool, BoundedMintingUnderReuse) {
  const std::size_t before = NodePool<PoolNode>::minted();
  for (int i = 0; i < 1000; ++i) {
    PoolNode* n = NodePool<PoolNode>::acquire();
    NodePool<PoolNode>::release(n);
  }
  // Steady-state reuse must not mint new nodes.
  EXPECT_LE(NodePool<PoolNode>::minted(), before + 1);
}

TEST(NodePool, McsHighWaterMarkMatchesHeldLocks) {
  // Footnote 5: "the free stack will contain N elements where N is
  // the maximum number of locks concurrently held".
  const std::size_t before = NodePool<McsNode>::minted();
  std::thread([&] {
    std::vector<McsLock> locks(5);
    for (int round = 0; round < 3; ++round) {
      for (auto& l : locks) l.lock();
      for (auto& l : locks) l.unlock();
    }
    // 5 concurrent holds -> at most 5 minted for this thread.
    EXPECT_LE(NodePool<McsNode>::minted(), before + 5);
  }).join();
}

// ------------------------------------------------------- registry --
TEST(LockRegistry, NamesAreUniqueAndComplete) {
  const auto names = lock_names<AllLockTags>();
  EXPECT_GE(names.size(), 18u);
  std::set<std::string> uniq(names.begin(), names.end());
  EXPECT_EQ(uniq.size(), names.size());
  EXPECT_TRUE(uniq.count("hemlock"));
  EXPECT_TRUE(uniq.count("hemlock-"));
  EXPECT_TRUE(uniq.count("mcs"));
  EXPECT_TRUE(uniq.count("clh"));
  EXPECT_TRUE(uniq.count("ticket"));
}

TEST(LockRegistry, DispatchByNameGoesThroughTheFactory) {
  // Runtime name→algorithm dispatch lives in exactly one place: the
  // LockFactory, self-populated from this registry.
  const auto& factory = LockFactory::instance();
  EXPECT_EQ(factory.size(), std::tuple_size_v<AllLockTags>);
  const LockInfo* info = factory.info("hemlock");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->lock_words, lock_traits<Hemlock>::lock_words);
  EXPECT_EQ(info->size_bytes, sizeof(Hemlock));
  EXPECT_EQ(factory.find("no-such-lock"), nullptr);
}

TEST(LockRegistry, PaperFigureSetIsTheFiveCurves) {
  const auto names = lock_names<PaperFigureLockTags>();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "mcs");
  EXPECT_EQ(names[1], "clh");
  EXPECT_EQ(names[2], "ticket");
  EXPECT_EQ(names[3], "hemlock");
  EXPECT_EQ(names[4], "hemlock-");
}

// ------------------------------------------- K42 element recovery --
TEST(McsK42, LockBodyIsSelfContained) {
  // K42's queue element is needed "only while waiting": after lock()
  // returns, no heap/pool nodes are outstanding (everything lives in
  // the lock body or dead stack frames). Just verify heavy reuse
  // works without the node pool being involved at all.
  const std::size_t minted_before = NodePool<McsNode>::minted();
  McsK42Lock lock;
  std::uint64_t counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, 80000u);
  EXPECT_EQ(NodePool<McsNode>::minted(), minted_before);  // untouched
}

}  // namespace
}  // namespace hemlock
