// test_hemlock_site.cpp — the §2.3 on-stack Grant variant: exclusion,
// FIFO hand-through, multi-lock independence, and the structural
// claim that it never touches the thread-local Grant word (so a
// thread's Self mailbox stays empty throughout).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/hemlock.hpp"
#include "core/hemlock_site.hpp"
#include "runtime/barrier.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/thread_rec.hpp"
#include "stats/telemetry.hpp"

#include "observed_enqueue.hpp"

namespace hemlock {
namespace {

TEST(HemlockSite, UncontendedGuardRoundTrips) {
  CacheAligned<HemlockSite> lock;
  for (int i = 0; i < 10000; ++i) {
    HemlockSite::Guard g(lock.value);
  }
  EXPECT_TRUE(lock.value.appears_unlocked());
}

TEST(HemlockSite, MutualExclusionUnderContention) {
  CacheAligned<HemlockSite> lock;
  std::uint64_t counter = 0;
  std::atomic<int> in_cs{0};
  std::atomic<bool> violation{false};
  SpinBarrier start(8);
  std::vector<std::thread> ts;
  for (int t = 0; t < 8; ++t) {
    ts.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < 5000; ++i) {
        HemlockSite::Guard g(lock.value);
        if (in_cs.fetch_add(1) != 0) violation = true;
        ++counter;
        in_cs.fetch_sub(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(counter, 40000u);
}

TEST(HemlockSite, NeverTouchesThreadLocalGrant) {
  // The whole point of the optimization: the Self mailbox is not
  // involved, so deep nesting cannot concentrate waiters on it.
  CacheAligned<HemlockSite> a, b, c;
  std::atomic<bool> ok{true};
  std::thread peer([&] {
    for (int i = 0; i < 2000; ++i) {
      HemlockSite::Guard g(a.value);
      if (self().grant.value.load(std::memory_order_relaxed) !=
          kGrantEmpty) {
        ok = false;
      }
    }
  });
  for (int i = 0; i < 2000; ++i) {
    HemlockSite::Guard ga(a.value);
    HemlockSite::Guard gb(b.value);
    HemlockSite::Guard gc(c.value);
    if (self().grant.value.load(std::memory_order_relaxed) != kGrantEmpty) {
      ok = false;
    }
  }
  peer.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(self().grant.value.load(std::memory_order_relaxed), kGrantEmpty);
}

TEST(HemlockSite, MixedUsageWithPlainHemlock) {
  // Site-by-site opt-in (§2.3): the same thread can hold plain
  // Hemlock locks (thread-local Grant) and HemlockSite locks
  // (on-stack Grant) simultaneously.
  CacheAligned<Hemlock> plain;
  CacheAligned<HemlockSite> site;
  std::uint64_t counter = 0;
  SpinBarrier start(6);
  std::vector<std::thread> ts;
  for (int t = 0; t < 6; ++t) {
    ts.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < 4000; ++i) {
        plain.value.lock();
        HemlockSite::Guard g(site.value);
        ++counter;
        plain.value.unlock();  // release order interleaved with guard
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, 24000u);
}

// Waiters that demonstrably queued in a known order are handed the
// lock in that order. As in LockProperty.FifoAdmission, the order is
// observed, not arranged by sleeps: waiter w+1 starts its doorstep
// only once the contended count shows waiter w queued. A HemlockSite
// waiter counts once, after its doorstep swap, when it starts waiting
// on its predecessor's slot (CtrCasWaiting::wait_and_consume).
TEST(HemlockSite, FifoHandThrough) {
  if (!HEMLOCK_TELEMETRY_ENABLED) {
    GTEST_SKIP() << "the enqueue order is observed through telemetry";
  }
  for (int round = 0; round < 5; ++round) {
    CacheAligned<HemlockSite> lock;
    std::vector<int> order;
    std::mutex order_mu;
    std::atomic<int> go{-1};
    auto holder = std::make_unique<HemlockSite::Guard>(lock.value);
    const std::uint64_t queued_before = unattributed_contended();
    std::vector<std::thread> ts;
    for (int w = 0; w < 4; ++w) {
      ts.emplace_back([&, w] {
        while (go.load(std::memory_order_acquire) < w) {
          std::this_thread::yield();
        }
        HemlockSite::Guard g(lock.value);
        std::lock_guard<std::mutex> og(order_mu);
        order.push_back(w);
      });
    }
    for (int w = 0; w < 4; ++w) {
      go.store(w, std::memory_order_release);
      const std::uint64_t queued =
          queued_before + static_cast<std::uint64_t>(w) + 1;
      while (unattributed_contended() < queued) std::this_thread::yield();
    }
    holder.reset();  // release; pen opens
    for (auto& t : ts) t.join();
    ASSERT_EQ(order.size(), 4u);
    for (int w = 0; w < 4; ++w) EXPECT_EQ(order[w], w);
  }
}

}  // namespace
}  // namespace hemlock
