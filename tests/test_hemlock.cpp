// test_hemlock.cpp — Hemlock-family semantics beyond the generic lock
// contract: the Grant mailbox protocol (§2), context-freedom,
// multi-waiting disambiguation (§2.2's Figure-1 scenario), the
// fere-local spinning bound (Theorem 10) via the profiler, and the
// per-variant quirks (Overlap's deferred drain, AH's speculative
// store retraction, OHV1's advisory flag).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/hemlock.hpp"
#include "core/hemlock_chain.hpp"
#include "core/hemlock_cv.hpp"
#include "locks/clh.hpp"
#include "locks/mcs.hpp"
#include "locks/ticket.hpp"
#include "runtime/barrier.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/thread_rec.hpp"
#include "stats/lock_profiler.hpp"

namespace hemlock {
namespace {

GrantWord my_grant() {
  return self().grant.value.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Listing-1 invariant: the Grant word is empty before and after every
// lock/unlock pair (for the variants that maintain it).
template <typename L>
void check_grant_empty_invariant() {
  CacheAligned<L> lock;
  EXPECT_EQ(my_grant(), kGrantEmpty);
  for (int i = 0; i < 1000; ++i) {
    lock.value.lock();
    EXPECT_EQ(my_grant(), kGrantEmpty);
    lock.value.unlock();
    EXPECT_EQ(my_grant(), kGrantEmpty);
  }
}

TEST(HemlockGrant, EmptyBetweenUncontendedOps) {
  check_grant_empty_invariant<Hemlock>();
  check_grant_empty_invariant<HemlockNaive>();
  check_grant_empty_invariant<HemlockFaa>();
  check_grant_empty_invariant<HemlockAh>();
  check_grant_empty_invariant<HemlockOhv2>();
}

// After a contended handover completes (both sides returned), both
// threads' Grant words are empty again.
TEST(HemlockGrant, DrainedAfterContendedHandover) {
  CacheAligned<Hemlock> lock;
  GrantWord waiter_grant_after = 1;  // poison
  std::atomic<bool> held{false};

  lock.value.lock();
  std::thread waiter([&] {
    lock.value.lock();  // blocks until main unlocks
    waiter_grant_after = my_grant();
    lock.value.unlock();
    held.store(true);
  });
  // Let the waiter enqueue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lock.value.unlock();  // contended path: publish, await acknowledgement
  EXPECT_EQ(my_grant(), kGrantEmpty);  // drain completed before return
  waiter.join();
  EXPECT_TRUE(held.load());
  EXPECT_EQ(waiter_grant_after, kGrantEmpty);
}

// ---------------------------------------------------------------------------
// Context-freedom (§1): unlock needs nothing produced by lock — the
// two can be in different functions with no shared state beyond the
// lock's address and the calling thread's identity.
namespace context_free {
Hemlock g_lock;
void acquire_somewhere() { g_lock.lock(); }
void release_elsewhere() { g_lock.unlock(); }
}  // namespace context_free

TEST(HemlockSemantics, ContextFreeLockUnlockAcrossFunctions) {
  for (int i = 0; i < 100; ++i) {
    context_free::acquire_somewhere();
    context_free::release_elsewhere();
  }
  EXPECT_TRUE(context_free::g_lock.appears_unlocked());
}

// ---------------------------------------------------------------------------
// §2.2 Figure-1 scenario: one thread holds two contended locks; the
// immediate successors of BOTH queues busy-wait on the holder's single
// Grant word, and the address-based protocol routes each lock to the
// right successor regardless of release order.
template <typename L>
void multi_lock_disambiguation(bool release_in_reverse) {
  CacheAligned<L> l1, l2;
  std::atomic<int> got_l1{0}, got_l2{0};
  SpinBarrier enqueued(3);

  l1.value.lock();
  l2.value.lock();

  std::thread w1([&] {
    enqueued.arrive_and_wait();
    l1.value.lock();
    got_l1.store(1 + got_l2.load());  // record relative order
    l1.value.unlock();
  });
  std::thread w2([&] {
    enqueued.arrive_and_wait();
    l2.value.lock();
    got_l2.store(1 + got_l1.load());
    l2.value.unlock();
  });
  enqueued.arrive_and_wait();
  // Both waiters are now (about to be) spinning on OUR Grant word.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  if (release_in_reverse) {
    l2.value.unlock();
    l1.value.unlock();
  } else {
    l1.value.unlock();
    l2.value.unlock();
  }
  w1.join();
  w2.join();
  EXPECT_NE(got_l1.load(), 0);
  EXPECT_NE(got_l2.load(), 0);
}

TEST(HemlockSemantics, MultiWaitingDisambiguationReverseRelease) {
  multi_lock_disambiguation<Hemlock>(true);
  multi_lock_disambiguation<HemlockNaive>(true);
  multi_lock_disambiguation<HemlockFaa>(true);
  multi_lock_disambiguation<HemlockAh>(true);
  multi_lock_disambiguation<HemlockOhv1>(true);
  multi_lock_disambiguation<HemlockOhv2>(true);
  multi_lock_disambiguation<HemlockOverlap>(true);
  multi_lock_disambiguation<HemlockCv>(true);
  multi_lock_disambiguation<HemlockChain>(true);
}

TEST(HemlockSemantics, MultiWaitingDisambiguationForwardRelease) {
  multi_lock_disambiguation<Hemlock>(false);
  multi_lock_disambiguation<HemlockAh>(false);
  multi_lock_disambiguation<HemlockOhv1>(false);
  multi_lock_disambiguation<HemlockOhv2>(false);
  multi_lock_disambiguation<HemlockOverlap>(false);
  multi_lock_disambiguation<HemlockCv>(false);
  multi_lock_disambiguation<HemlockChain>(false);
}

// ---------------------------------------------------------------------------
// Fere-local spinning (Theorem 10): the number of threads spinning on
// one Grant word never exceeds the number of locks its owner holds.
// Reproduced via the profiler: with the leader holding K locks and one
// waiter per lock, the leader releases only once it has observed all K
// waiters on its own Grant word, so max_grant_waiters must be exactly K.
TEST(HemlockSemantics, FereLocalSpinningBound) {
  constexpr int kLocks = 4;
  std::vector<CacheAligned<Hemlock>> locks(kLocks);
  ThreadRegistry::reset_profile();
  LockProfiler::enable(true);

  for (auto& l : locks) l.value.lock();
  SpinBarrier enqueued(kLocks + 1);
  std::vector<std::thread> waiters;
  for (int k = 0; k < kLocks; ++k) {
    waiters.emplace_back([&, k] {
      enqueued.arrive_and_wait();
      locks[k].value.lock();
      locks[k].value.unlock();
    });
  }
  enqueued.arrive_and_wait();
  // Bounded so a broken gauge fails instead of hanging.
  const std::atomic<std::uint32_t>& on_my_grant = self().grant_waiters;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (on_my_grant.load(std::memory_order_relaxed) < kLocks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const std::uint32_t observed = on_my_grant.load(std::memory_order_relaxed);
  for (int k = kLocks; k-- > 0;) locks[k].value.unlock();
  for (auto& w : waiters) w.join();

  LockProfiler::enable(false);
  const LockUsageProfile p = collect_lock_usage_profile();
  EXPECT_EQ(observed, static_cast<std::uint32_t>(kLocks));
  EXPECT_EQ(p.max_grant_waiters, static_cast<std::uint32_t>(kLocks));
  EXPECT_EQ(p.max_locks_held, static_cast<std::uint32_t>(kLocks));
  EXPECT_EQ(p.nested_acquires, static_cast<std::uint64_t>(kLocks - 1));
  EXPECT_FALSE(p.purely_local());
  ThreadRegistry::reset_profile();
}

// With single-lock usage the profile must report purely local
// spinning (the §5.4 LevelDB finding).
TEST(HemlockSemantics, SimpleContentionIsPurelyLocal) {
  CacheAligned<Hemlock> lock;
  ThreadRegistry::reset_profile();
  LockProfiler::enable(true);
  SpinBarrier start(4);
  std::uint64_t counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < 20000; ++i) {
        lock.value.lock();
        ++counter;
        lock.value.unlock();
      }
    });
  }
  for (auto& t : ts) t.join();
  LockProfiler::enable(false);
  const LockUsageProfile p = collect_lock_usage_profile();
  EXPECT_EQ(counter, 80000u);
  EXPECT_LE(p.max_grant_waiters, 1u);
  EXPECT_TRUE(p.purely_local());
  EXPECT_EQ(p.max_locks_held, 1u);
  EXPECT_EQ(p.nested_acquires, 0u);
  ThreadRegistry::reset_profile();
}

// ---------------------------------------------------------------------------
// Overlap variant: unlock returns without waiting for the successor's
// acknowledgement; a subsequent lock() of the SAME lock must stall on
// the residual check rather than corrupting the queue (Appendix A).
TEST(HemlockOverlapTest, ReacquireAfterDeferredHandoverIsSafe) {
  CacheAligned<HemlockOverlap> lock;
  std::uint64_t counter = 0;
  SpinBarrier start(2);
  std::thread peer([&] {
    start.arrive_and_wait();
    for (int i = 0; i < 50000; ++i) {
      lock.value.lock();
      ++counter;
      lock.value.unlock();
    }
  });
  start.arrive_and_wait();
  // Tight relock loop on the same lock maximizes the residual window.
  for (int i = 0; i < 50000; ++i) {
    lock.value.lock();
    ++counter;
    lock.value.unlock();
  }
  peer.join();
  EXPECT_EQ(counter, 100000u);
  // Our grant may still hold the address until the peer's (long
  // gone) acknowledgement; by join() time it must be drained.
  EXPECT_EQ(my_grant(), kGrantEmpty);
}

// ---------------------------------------------------------------------------
// AH variant: the speculative store is retracted on the uncontended
// path (grant must be empty after an uncontended unlock).
TEST(HemlockAhTest, SpeculativeStoreRetractedWhenUncontended) {
  CacheAligned<HemlockAh> lock;
  for (int i = 0; i < 1000; ++i) {
    lock.value.lock();
    lock.value.unlock();
    ASSERT_EQ(my_grant(), kGrantEmpty);
  }
}

// ---------------------------------------------------------------------------
// OHV1: after a contended handover the unlocker's grant may hold an
// advisory flag for ANOTHER held lock, and the fast flag path must
// still hand over correctly. Scenario: hold L1+L2 with one waiter
// each; release L1 (waiter W2's L2-flag may be present), then L2.
TEST(HemlockOhv1Test, AdvisoryFlagSurvivesInterleavedUnlocks) {
  for (int round = 0; round < 50; ++round) {
    CacheAligned<HemlockOhv1> l1, l2;
    std::atomic<int> done{0};
    l1.value.lock();
    l2.value.lock();
    std::thread w1([&] {
      l1.value.lock();
      l1.value.unlock();
      done.fetch_add(1);
    });
    std::thread w2([&] {
      l2.value.lock();
      l2.value.unlock();
      done.fetch_add(1);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    l1.value.unlock();
    l2.value.unlock();
    w1.join();
    w2.join();
    EXPECT_EQ(done.load(), 2);
  }
  // All advisory flags must have been consumed by now.
  EXPECT_EQ(my_grant(), kGrantEmpty);
}

// ---------------------------------------------------------------------------
// Thread exit while a tardy Overlap successor still owes an
// acknowledgement: the exiting thread's record must drain first
// (Appendix A / ThreadRec destructor). The unlocking thread exits
// immediately after unlock; the successor is delayed artificially.
TEST(HemlockOverlapTest, ThreadExitDrainsGrant) {
  CacheAligned<HemlockOverlap> lock;
  std::atomic<bool> t1_done{false};
  std::atomic<bool> t2_enqueued{false};

  std::thread t2;
  {
    std::thread t1([&] {
      lock.value.lock();
      t2_enqueued.wait(false);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      lock.value.unlock();  // deferred drain — returns immediately
      t1_done.store(true);
      // t1 exits here; its ThreadRec destructor must block until the
      // successor's acknowledgement lands.
    });
    t2 = std::thread([&] {
      t2_enqueued.store(true);
      t2_enqueued.notify_one();
      lock.value.lock();
      lock.value.unlock();
    });
    t1.join();
  }
  t2.join();
  EXPECT_TRUE(t1_done.load());
}

// ---------------------------------------------------------------------------
// HemlockCv parks instead of spinning: under heavy oversubscription
// (4x CPUs) progress persists. (A smoke test that the blocking tier
// engages without deadlock.)
TEST(HemlockCvTest, OversubscribedProgress) {
  CacheAligned<HemlockCv> lock;
  const unsigned threads = std::thread::hardware_concurrency() * 2;
  std::uint64_t counter = 0;
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < threads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        lock.value.lock();
        ++counter;
        lock.value.unlock();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(threads) * 500);
}

// HemlockChain parks on private flags; same oversubscription smoke.
TEST(HemlockChainTest, OversubscribedProgress) {
  CacheAligned<HemlockChain> lock;
  const unsigned threads = std::thread::hardware_concurrency() * 2;
  std::uint64_t counter = 0;
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < threads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        lock.value.lock();
        ++counter;
        lock.value.unlock();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(threads) * 500);
}

// ---------------------------------------------------------------------------
// Space claims (Table 1): Hemlock's lock body is one word across the
// whole family; the thread cost is the single Grant word.
TEST(HemlockSpace, LockBodyIsOneWord) {
  EXPECT_EQ(sizeof(Hemlock), sizeof(void*));
  EXPECT_EQ(sizeof(HemlockNaive), sizeof(void*));
  EXPECT_EQ(sizeof(HemlockFaa), sizeof(void*));
  EXPECT_EQ(sizeof(HemlockOverlap), sizeof(void*));
  EXPECT_EQ(sizeof(HemlockAh), sizeof(void*));
  EXPECT_EQ(sizeof(HemlockOhv1), sizeof(void*));
  EXPECT_EQ(sizeof(HemlockOhv2), sizeof(void*));
  EXPECT_EQ(sizeof(HemlockCv), sizeof(void*));
  EXPECT_EQ(sizeof(HemlockChain), sizeof(void*));
}

TEST(HemlockSpace, TraitsMatchTable1) {
  EXPECT_EQ(lock_traits<Hemlock>::lock_words, 1u);
  EXPECT_EQ(lock_traits<Hemlock>::held_words, 0u);
  EXPECT_EQ(lock_traits<Hemlock>::wait_words, 0u);
  EXPECT_EQ(lock_traits<Hemlock>::thread_words, 1u);
  EXPECT_FALSE(lock_traits<Hemlock>::nontrivial_init);
  EXPECT_EQ(lock_traits<McsLock>::lock_words, 2u);
  EXPECT_GT(lock_traits<McsLock>::held_words, 0u);
  EXPECT_GT(lock_traits<ClhLock>::lock_words, 2u);   // 2 + dummy element
  EXPECT_EQ(lock_traits<ClhLock>::held_words, 0u);   // Table 1: Held = 0
  EXPECT_TRUE(lock_traits<ClhLock>::nontrivial_init);
  EXPECT_EQ(lock_traits<TicketLock>::lock_words, 2u);
}

}  // namespace
}  // namespace hemlock
