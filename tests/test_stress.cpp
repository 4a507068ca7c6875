// test_stress.cpp — adversarial and randomized schedules for the
// Hemlock family: random multi-lock workloads (arbitrary hold sets,
// arbitrary release orders), the Figure-9 leader pattern, thread
// churn (records appearing/disappearing mid-contention), reentrancy
// of the registry under lock pressure, and oversubscribed runs.
// These are the schedules most likely to expose protocol races the
// clean unit tests cannot reach.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/hemlock.hpp"
#include "core/hemlock_chain.hpp"
#include "core/hemlock_cv.hpp"
#include "runtime/barrier.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/prng.hpp"

namespace hemlock {
namespace {

// Schedule budget scaling: full intensity on hosts with a core per
// contending thread; reduced when cores are scarce — there, every
// FIFO handoff costs a preemption (~ms), and multicore budgets
// stretch single cases into minutes of convoy. Invariants checked
// (exact totals) are unaffected; only the number of schedules is.
int scaled(int iters, int threads) {
  return static_cast<int>(std::thread::hardware_concurrency()) >= threads
             ? iters
             : iters / 8 + 1;
}

// Random multi-lock chaos: each thread repeatedly picks a random
// subset of locks, acquires them in ascending index order (deadlock
// discipline), mutates every covered counter, then releases in a
// randomly chosen order. Exact counter totals prove exclusion held
// across every interleaving.
template <typename L>
void random_multilock_chaos(std::uint64_t seed) {
  constexpr int kLocks = 8;
  constexpr int kThreads = 8;
  const int kIters = scaled(2500, kThreads);

  std::vector<CacheAligned<L>> locks(kLocks);
  std::uint64_t counters[kLocks] = {};
  std::uint64_t expected[kLocks] = {};
  std::atomic<std::uint64_t> expected_atomic[kLocks] = {};
  SpinBarrier start(kThreads);

  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Xoshiro256 prng(seed + t * 7919);
      start.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        // Random non-empty subset.
        std::uint32_t mask = prng.below(1u << kLocks);
        if (mask == 0) mask = 1;
        int held[kLocks];
        int n = 0;
        for (int k = 0; k < kLocks; ++k) {
          if (mask & (1u << k)) held[n++] = k;
        }
        for (int j = 0; j < n; ++j) locks[held[j]].value.lock();
        for (int j = 0; j < n; ++j) {
          ++counters[held[j]];
          expected_atomic[held[j]].fetch_add(1, std::memory_order_relaxed);
        }
        // Random release order.
        for (int j = n - 1; j > 0; --j) {
          std::swap(held[j], held[prng.below(j + 1)]);
        }
        for (int j = 0; j < n; ++j) locks[held[j]].value.unlock();
      }
    });
  }
  for (auto& t : ts) t.join();
  for (int k = 0; k < kLocks; ++k) {
    expected[k] = expected_atomic[k].load();
    EXPECT_EQ(counters[k], expected[k]) << "lock " << k;
  }
}

TEST(StressMultiLock, HemlockCtr) { random_multilock_chaos<Hemlock>(1); }
TEST(StressMultiLock, HemlockNaive) {
  random_multilock_chaos<HemlockNaive>(2);
}
TEST(StressMultiLock, HemlockFaa) { random_multilock_chaos<HemlockFaa>(3); }
TEST(StressMultiLock, HemlockOverlap) {
  random_multilock_chaos<HemlockOverlap>(4);
}
TEST(StressMultiLock, HemlockAh) { random_multilock_chaos<HemlockAh>(5); }
TEST(StressMultiLock, HemlockOhv1) {
  random_multilock_chaos<HemlockOhv1>(6);
}
TEST(StressMultiLock, HemlockOhv2) {
  random_multilock_chaos<HemlockOhv2>(7);
}
TEST(StressMultiLock, HemlockCv) { random_multilock_chaos<HemlockCv>(8); }
TEST(StressMultiLock, HemlockChain) {
  random_multilock_chaos<HemlockChain>(9);
}

// The Figure-9 adversary, verified for correctness rather than speed:
// a leader sweeps all locks up and down while others hammer random
// ones; per-lock counters must stay exact despite maximal
// multi-waiting on the leader's Grant word.
template <typename L>
void figure9_shape() {
  constexpr int kLocks = 10;
  constexpr int kThreads = 6;
  std::vector<CacheAligned<L>> locks(kLocks);
  std::uint64_t counters[kLocks] = {};
  std::atomic<std::uint64_t> expected[kLocks] = {};
  std::atomic<bool> stop{false};
  SpinBarrier start(kThreads);

  std::vector<std::thread> ts;
  ts.emplace_back([&] {  // leader
    const int steps = scaled(400, kThreads);
    start.arrive_and_wait();
    for (int step = 0; step < steps; ++step) {
      for (int k = 0; k < kLocks; ++k) locks[k].value.lock();
      for (int k = 0; k < kLocks; ++k) {
        ++counters[k];
        expected[k].fetch_add(1, std::memory_order_relaxed);
      }
      for (int k = kLocks; k-- > 0;) locks[k].value.unlock();
    }
    stop.store(true);
  });
  for (int t = 1; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Xoshiro256 prng(42 + t);
      start.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const int k = static_cast<int>(prng.below(kLocks));
        locks[k].value.lock();
        ++counters[k];
        expected[k].fetch_add(1, std::memory_order_relaxed);
        locks[k].value.unlock();
      }
    });
  }
  for (auto& t : ts) t.join();
  for (int k = 0; k < kLocks; ++k) {
    EXPECT_EQ(counters[k], expected[k].load()) << "lock " << k;
  }
}

TEST(StressFigure9, Hemlock) { figure9_shape<Hemlock>(); }
TEST(StressFigure9, HemlockNaive) { figure9_shape<HemlockNaive>(); }
TEST(StressFigure9, HemlockAh) { figure9_shape<HemlockAh>(); }
TEST(StressFigure9, HemlockOhv1) { figure9_shape<HemlockOhv1>(); }

// Thread churn: short-lived threads contend, exit, and are replaced
// while the lock stays hot — exercising ThreadRec registration,
// Grant draining at exit (Appendix A), and registry unlink under
// contention.
template <typename L>
void thread_churn() {
  CacheAligned<L> lock;
  std::uint64_t counter = 0;
  constexpr int kWaves = 12;
  constexpr int kThreadsPerWave = 6;
  const int kItersPerThread = scaled(400, kThreadsPerWave);
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreadsPerWave; ++t) {
      ts.emplace_back([&] {
        for (int i = 0; i < kItersPerThread; ++i) {
          lock.value.lock();
          ++counter;
          lock.value.unlock();
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kWaves) * kThreadsPerWave *
                         kItersPerThread);
}

TEST(StressChurn, Hemlock) { thread_churn<Hemlock>(); }
TEST(StressChurn, HemlockOverlap) { thread_churn<HemlockOverlap>(); }
TEST(StressChurn, HemlockCv) { thread_churn<HemlockCv>(); }
TEST(StressChurn, HemlockChain) { thread_churn<HemlockChain>(); }

// Oversubscription: 3x hardware threads on one lock. FIFO spin locks
// survive preemption (slowly); totals must stay exact.
TEST(StressOversubscribed, HemlockAdaptive) {
  CacheAligned<HemlockAdaptive> lock;
  const unsigned threads = std::thread::hardware_concurrency() * 3;
  std::uint64_t counter = 0;
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < threads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 300; ++i) {
        lock.value.lock();
        ++counter;
        lock.value.unlock();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(threads) * 300);
}

// Lock storms with mixed try_lock/lock traffic across the family.
template <typename L>
void mixed_try_storm() {
  CacheAligned<L> lock;
  std::uint64_t counter = 0;
  std::atomic<std::uint64_t> successes{0};
  SpinBarrier start(6);
  std::vector<std::thread> ts;
  for (int t = 0; t < 6; ++t) {
    ts.emplace_back([&, t] {
      Xoshiro256 prng(t + 1);
      const int iters = scaled(3000, 6);
      start.arrive_and_wait();
      for (int i = 0; i < iters; ++i) {
        if (prng.below(2) == 0) {
          lock.value.lock();
          ++counter;
          successes.fetch_add(1, std::memory_order_relaxed);
          lock.value.unlock();
        } else if (lock.value.try_lock()) {
          ++counter;
          successes.fetch_add(1, std::memory_order_relaxed);
          lock.value.unlock();
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, successes.load());
}

TEST(StressTryLock, Hemlock) { mixed_try_storm<Hemlock>(); }
TEST(StressTryLock, HemlockAh) { mixed_try_storm<HemlockAh>(); }
TEST(StressTryLock, HemlockOhv1) { mixed_try_storm<HemlockOhv1>(); }
TEST(StressTryLock, HemlockOhv2) { mixed_try_storm<HemlockOhv2>(); }
TEST(StressTryLock, HemlockOverlap) { mixed_try_storm<HemlockOverlap>(); }
TEST(StressTryLock, HemlockChain) { mixed_try_storm<HemlockChain>(); }

}  // namespace
}  // namespace hemlock
