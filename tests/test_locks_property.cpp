// test_locks_property.cpp — typed property tests run against EVERY
// lock algorithm in the registry (the Hemlock family and all
// baselines). Each test exercises a behavioural property from the
// paper's §3 correctness section or the lock concept contract:
//   * mutual exclusion (Theorem 2)
//   * lockout freedom / progress (Theorem 6)
//   * FIFO admission for FIFO algorithms (Theorem 8)
//   * try_lock semantics where the algorithm provides one (§2)
//   * independence of distinct lock instances
//   * hand-over-hand (coupled) locking across a chain of locks
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/lock_registry.hpp"
#include "locks/lockable.hpp"
#include "runtime/barrier.hpp"
#include "runtime/cacheline.hpp"

namespace hemlock {
namespace {

// Thread counts sized for CI machines: enough to create real
// contention without drowning a FIFO spin lock in preemption.
constexpr int kThreads = 8;

// Iteration budget per thread: full on hosts with a core per
// contender; scaled down when cores < threads, where FIFO spin-lock
// handoffs run at scheduler speed (one preemption each, ~ms) and the
// multicore budget would stretch single cases into minutes of convoy.
// Exactness assertions are unaffected — only the schedule count is.
const int kItersPerThread =
    std::thread::hardware_concurrency() >= kThreads ? 4000 : 400;

template <typename L>
class LockProperty : public ::testing::Test {};

using AllLockTypes = ::testing::Types<
    Hemlock, HemlockNaive, HemlockFaa, HemlockFutex, HemlockAdaptive,
    HemlockOverlap,
    HemlockAh, HemlockOhv1, HemlockOhv2, HemlockCv, HemlockChain, McsLock,
    McsK42Lock, ClhLock, TicketLock, TasLock, TtasLock, TtasBackoffLock,
    AndersonLock<64>, McsYieldLock, McsParkLock, McsGovernedLock,
    ClhYieldLock, ClhParkLock, ClhGovernedLock, TicketYieldLock,
    TicketParkLock, TicketGovernedLock, AndersonYieldDefault,
    AndersonParkDefault, AndersonGovernedDefault, PthreadMutex>;

class LockNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    return lock_traits<T>::name;
  }
};

TYPED_TEST_SUITE(LockProperty, AllLockTypes, LockNames);

// ---------------------------------------------------------------------------
// Mutual exclusion: a plain (non-atomic) counter incremented under the
// lock must not lose updates, and the in-critical-section gauge must
// never exceed one.
TYPED_TEST(LockProperty, MutualExclusion) {
  CacheAligned<TypeParam> lock;
  std::uint64_t plain_counter = 0;  // protected by `lock`
  std::atomic<int> in_cs{0};
  std::atomic<bool> violation{false};
  SpinBarrier start(kThreads);

  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < kItersPerThread; ++i) {
        lock.value.lock();
        if (in_cs.fetch_add(1, std::memory_order_relaxed) != 0) {
          violation.store(true, std::memory_order_relaxed);
        }
        ++plain_counter;
        in_cs.fetch_sub(1, std::memory_order_relaxed);
        lock.value.unlock();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(plain_counter,
            static_cast<std::uint64_t>(kThreads) * kItersPerThread);
}

// ---------------------------------------------------------------------------
// Progress / lockout freedom: every thread completes a fixed quota;
// the test terminating at all is the assertion (gtest's per-test
// timeout turns a stall into a failure).
TYPED_TEST(LockProperty, EveryThreadCompletesItsQuota) {
  CacheAligned<TypeParam> lock;
  std::vector<std::uint64_t> done(kThreads, 0);
  SpinBarrier start(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kItersPerThread; ++i) {
        LockGuard<TypeParam> g(lock.value);
        ++done[t];
      }
    });
  }
  for (auto& t : ts) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(done[t], static_cast<std::uint64_t>(kItersPerThread))
        << "thread " << t;
  }
}

// ---------------------------------------------------------------------------
// Uncontended round-trips from a single thread: lock/unlock many times
// with no other participants (exercises the fast paths and, for
// Hemlock, the Listing-1 Grant-empty invariants between operations).
TYPED_TEST(LockProperty, UncontendedRoundTrips) {
  CacheAligned<TypeParam> lock;
  std::uint64_t n = 0;
  for (int i = 0; i < 100000; ++i) {
    lock.value.lock();
    ++n;
    lock.value.unlock();
  }
  EXPECT_EQ(n, 100000u);
}

// ---------------------------------------------------------------------------
// try_lock semantics (only for algorithms that provide it): succeeds
// when free, fails while another thread holds the lock, succeeds
// again after release, and a successful try_lock provides exclusion.
TYPED_TEST(LockProperty, TryLockSemantics) {
  if constexpr (!lock_traits<TypeParam>::has_trylock) {
    GTEST_SKIP() << lock_traits<TypeParam>::name
                 << " does not provide try_lock (per the paper, §2)";
  } else {
    CacheAligned<TypeParam> lock;
    ASSERT_TRUE(lock.value.try_lock());

    // Another thread must fail while we hold it.
    std::atomic<int> result{-1};
    std::thread([&] { result = lock.value.try_lock() ? 1 : 0; }).join();
    EXPECT_EQ(result.load(), 0);

    lock.value.unlock();

    // And succeed once released.
    std::thread([&] {
      result = lock.value.try_lock() ? 1 : 0;
      if (result == 1) lock.value.unlock();
    }).join();
    EXPECT_EQ(result.load(), 1);
  }
}

// ---------------------------------------------------------------------------
// try_lock under contention: mixed lock() / try_lock() users maintain
// exclusion and try_lock never blocks the system.
TYPED_TEST(LockProperty, TryLockUnderContention) {
  if constexpr (!lock_traits<TypeParam>::has_trylock) {
    GTEST_SKIP() << "no try_lock";
  } else {
    CacheAligned<TypeParam> lock;
    std::uint64_t counter = 0;
    std::atomic<std::uint64_t> try_successes{0};
    SpinBarrier start(kThreads);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        start.arrive_and_wait();
        for (int i = 0; i < kItersPerThread; ++i) {
          if (t % 2 == 0) {
            lock.value.lock();
            ++counter;
            lock.value.unlock();
          } else if (lock.value.try_lock()) {
            ++counter;
            try_successes.fetch_add(1, std::memory_order_relaxed);
            lock.value.unlock();
          }
        }
      });
    }
    for (auto& t : ts) t.join();
    const std::uint64_t blocking_iters =
        static_cast<std::uint64_t>((kThreads + 1) / 2) * kItersPerThread;
    EXPECT_EQ(counter, blocking_iters + try_successes.load());
  }
}

// ---------------------------------------------------------------------------
// Distinct lock instances are independent: holding lock A must not
// impede lock B's users. (For Hemlock this also exercises multiple
// locks sharing each thread's single Grant word.)
TYPED_TEST(LockProperty, InstancesAreIndependent) {
  CacheAligned<TypeParam> a, b;
  a.value.lock();  // hold A for the whole test

  std::uint64_t b_counter = 0;
  std::vector<std::thread> ts;
  SpinBarrier start(4);
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < kItersPerThread; ++i) {
        LockGuard<TypeParam> g(b.value);
        ++b_counter;
      }
    });
  }
  for (auto& t : ts) t.join();
  a.value.unlock();
  EXPECT_EQ(b_counter, 4ull * kItersPerThread);
}

// ---------------------------------------------------------------------------
// Holding multiple locks simultaneously and releasing in arbitrary
// (reverse and forward) order — the capability the paper calls out as
// a hard requirement for pthread-style usage (§4: algorithms must
// "allow multiple locks to be held simultaneously and released in
// arbitrary order").
TYPED_TEST(LockProperty, MultipleLocksHeldArbitraryRelease) {
  constexpr int kLocks = 6;
  std::vector<CacheAligned<TypeParam>> locks(kLocks);
  std::uint64_t counters[kLocks] = {};
  SpinBarrier start(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kItersPerThread / 4; ++i) {
        // Acquire all ascending; release in a per-thread order.
        for (int k = 0; k < kLocks; ++k) locks[k].value.lock();
        for (int k = 0; k < kLocks; ++k) ++counters[k];
        if (t % 2 == 0) {
          for (int k = kLocks; k-- > 0;) locks[k].value.unlock();
        } else {
          for (int k = 0; k < kLocks; ++k) locks[k].value.unlock();
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  for (int k = 0; k < kLocks; ++k) {
    EXPECT_EQ(counters[k],
              static_cast<std::uint64_t>(kThreads) * (kItersPerThread / 4));
  }
}

// ---------------------------------------------------------------------------
// Hand-over-hand ("coupled") locking along a chain — the usage pattern
// the paper notes does NOT cause multi-waiting (§2.2). Each thread
// walks the chain holding at most two locks at once.
TYPED_TEST(LockProperty, HandOverHandChainWalk) {
  constexpr int kChain = 8;
  std::vector<CacheAligned<TypeParam>> chain(kChain);
  std::vector<std::uint64_t> cells(kChain, 0);
  SpinBarrier start(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < kItersPerThread / 8; ++i) {
        chain[0].value.lock();
        ++cells[0];
        for (int k = 1; k < kChain; ++k) {
          chain[k].value.lock();
          ++cells[k];
          chain[k - 1].value.unlock();
        }
        chain[kChain - 1].value.unlock();
      }
    });
  }
  for (auto& t : ts) t.join();
  for (int k = 0; k < kChain; ++k) {
    EXPECT_EQ(cells[k], static_cast<std::uint64_t>(kThreads) *
                            (kItersPerThread / 8));
  }
}

// ---------------------------------------------------------------------------
// FIFO admission (Theorem 8) for FIFO algorithms: waiters that
// demonstrably enqueued in a known order must enter the critical
// section in that order. Orderly enqueueing is arranged by spacing
// arrivals with generous sleeps while the lock is held.
TYPED_TEST(LockProperty, FifoAdmission) {
  if constexpr (!lock_traits<TypeParam>::is_fifo) {
    GTEST_SKIP() << lock_traits<TypeParam>::name << " is not FIFO";
  } else {
    constexpr int kWaiters = 5;
    constexpr int kRounds = 6;
    for (int round = 0; round < kRounds; ++round) {
      CacheAligned<TypeParam> lock;
      std::vector<int> entry_order;
      std::mutex order_mu;
      std::atomic<int> go{-1};
      std::atomic<int> arrived{-1};

      lock.value.lock();  // pen the waiters
      std::vector<std::thread> ts;
      for (int w = 0; w < kWaiters; ++w) {
        ts.emplace_back([&, w] {
          // Arrive strictly in index order: waiter w starts its
          // doorstep only when the driver has advanced `go` to w.
          while (go.load(std::memory_order_acquire) < w) {
            std::this_thread::yield();
          }
          arrived.store(w, std::memory_order_release);
          lock.value.lock();
          {
            std::lock_guard<std::mutex> g(order_mu);
            entry_order.push_back(w);
          }
          lock.value.unlock();
        });
      }
      // Release arrivals one at a time; the inter-arrival gap dwarfs
      // the doorstep's cost (one atomic op), so enqueue order matches
      // index order with overwhelming probability. The gap starts once
      // waiter w is observed running at its doorstep, so a loaded host
      // delays only that op, not the waiter's wakeup.
      for (int w = 0; w < kWaiters; ++w) {
        go.store(w, std::memory_order_release);
        while (arrived.load(std::memory_order_acquire) < w) {
          std::this_thread::yield();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      lock.value.unlock();
      for (auto& t : ts) t.join();

      ASSERT_EQ(entry_order.size(), static_cast<std::size_t>(kWaiters));
      for (int w = 0; w < kWaiters; ++w) {
        EXPECT_EQ(entry_order[w], w) << "round " << round;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A guard-based critical section propagates exceptions while still
// releasing the lock (RAII contract).
TYPED_TEST(LockProperty, GuardReleasesOnException) {
  CacheAligned<TypeParam> lock;
  EXPECT_THROW(
      {
        LockGuard<TypeParam> g(lock.value);
        throw std::runtime_error("boom");
      },
      std::runtime_error);
  // Lock must be free again: an uncontended acquire succeeds.
  lock.value.lock();
  lock.value.unlock();
}

// ---------------------------------------------------------------------------
// with_lock returns the lambda's value and serializes access.
TYPED_TEST(LockProperty, WithLockReturnsValue) {
  CacheAligned<TypeParam> lock;
  int x = 1;
  const int y = with_lock(lock.value, [&] { return x + 41; });
  EXPECT_EQ(y, 42);
}

}  // namespace
}  // namespace hemlock
