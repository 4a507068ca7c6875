// test_runtime.cpp — unit tests for the runtime substrate: cache-line
// geometry and the line-demotion hint, PRNGs, barrier, timing,
// topology, and the ThreadRec / registry machinery the Hemlock family
// depends on.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "runtime/barrier.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/prng.hpp"
#include "runtime/thread_rec.hpp"
#include "runtime/timing.hpp"
#include "runtime/topology.hpp"

namespace hemlock {
namespace {

TEST(Cacheline, AlignedWrapperOccupiesOneLine) {
  EXPECT_EQ(sizeof(CacheAligned<std::atomic<std::uint64_t>>), kCacheLineSize);
  EXPECT_EQ(alignof(CacheAligned<std::atomic<std::uint64_t>>), kCacheLineSize);
  CacheAligned<int> a(42);
  EXPECT_EQ(a.get(), 42);
}

TEST(Cacheline, WordAndLineAccounting) {
  EXPECT_EQ(words_for(8), 1u);
  EXPECT_EQ(words_for(9), 2u);
  EXPECT_EQ(words_for(16), 2u);
  EXPECT_EQ(lines_for(1), 1u);
  EXPECT_EQ(lines_for(64), 1u);
  EXPECT_EQ(lines_for(65), 2u);
}

// The release-side demotion hint may name a lock that another thread
// has freed since: the hint must not fault on any address a freed
// lock's memory can become.
TEST(Cacheline, DemoteLineNeverFaults) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  void* p = mmap(nullptr, page, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(p, MAP_FAILED);
  auto* bytes = static_cast<unsigned char*>(p);
  bytes[0] = 1;  // a line this core holds Modified
  demote_line(bytes);
  ASSERT_EQ(mprotect(p, page, PROT_NONE), 0);
  demote_line(bytes);
  demote_line(bytes + page - 1);
  ASSERT_EQ(munmap(p, page), 0);
  demote_line(bytes);
  demote_line(bytes + page - 1);
  SUCCEED() << "no signal";
}

TEST(Prng, SplitMixDeterministic) {
  SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, XoshiroStreamsDecorrelated) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Prng, BelowIsInRangeAndCoversRange) {
  Xoshiro256 g(42);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 20000; ++i) {
    const std::uint32_t v = g.below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit
}

TEST(Prng, BelowOneAlwaysZero) {
  Xoshiro256 g(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(g.below(1), 0u);
}

TEST(Barrier, SynchronizesPhases) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  SpinBarrier barrier(kThreads);
  std::atomic<int> in_phase{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        const int n = in_phase.fetch_add(1) + 1;
        if (n > kThreads) violation = true;
        barrier.arrive_and_wait();
        in_phase.fetch_sub(1);
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(in_phase.load(), 0);
}

TEST(Timing, MonotoneAndPositive) {
  const auto a = now_ns();
  const auto b = now_ns();
  EXPECT_GE(b, a);
  Timer t;
  volatile int x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1;
  EXPECT_GT(t.elapsed_ns(), 0);
  EXPECT_GE(t.elapsed_s(), 0.0);
}

TEST(Timing, OpsPerSec) {
  EXPECT_DOUBLE_EQ(ops_per_sec(1000, 1'000'000'000), 1000.0);
  EXPECT_DOUBLE_EQ(ops_per_sec(5, 0), 0.0);
  EXPECT_DOUBLE_EQ(ops_per_sec(0, 123), 0.0);
}

TEST(Topology, SaneValues) {
  const Topology& t = topology();
  EXPECT_GE(t.logical_cpus, 1u);
  EXPECT_GE(t.physical_cores, 1u);
  EXPECT_GE(t.sockets, 1u);
  EXPECT_LE(t.physical_cores, t.logical_cpus);
  EXPECT_FALSE(t.describe().empty());
}

TEST(ThreadRec, GrantSequesteredOnOwnLine) {
  ThreadRec& me = self();
  const auto grant_addr = reinterpret_cast<std::uintptr_t>(&me.grant.value);
  const auto next_addr = reinterpret_cast<std::uintptr_t>(&me.registry_next);
  EXPECT_EQ(grant_addr % kCacheLineSize, 0u);
  EXPECT_GE(next_addr - grant_addr, kCacheLineSize);

  // The demotion predictor is read on every uncontended release: it
  // shares neither the Grant line (successors write it) nor
  // grant_waiters' line (waiters write it while the profiler is on).
  const auto line = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) / kCacheLineSize;
  };
  const auto* hint = reinterpret_cast<const unsigned char*>(&me.demote);
  const auto hint_first = line(hint);
  const auto hint_last = line(hint + sizeof(me.demote) - 1);
  const auto grant_line = line(&me.grant.value);
  const auto waiters_line = line(&me.grant_waiters);
  EXPECT_NE(hint_first, grant_line);
  EXPECT_NE(hint_last, grant_line);
  EXPECT_NE(hint_first, waiters_line);
  EXPECT_NE(hint_last, waiters_line);
}

TEST(ThreadRec, SelfIsStablePerThreadAndDistinctAcrossThreads) {
  ThreadRec* mine = &self();
  EXPECT_EQ(mine, &self());
  ThreadRec* theirs = nullptr;
  std::thread([&] { theirs = &self(); }).join();
  EXPECT_NE(mine, theirs);
}

TEST(ThreadRec, RegistryTracksLiveThreads) {
  (void)self();
  const auto base = ThreadRegistry::live_count();
  std::atomic<bool> go{false};
  std::atomic<std::uint32_t> observed{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i) {
    ts.emplace_back([&] {
      (void)self();
      while (!go.load()) std::this_thread::yield();
    });
  }
  // Wait until all four have registered.
  while (ThreadRegistry::live_count() < base + 4) std::this_thread::yield();
  ThreadRegistry::for_each([&](ThreadRec&) { observed.fetch_add(1); });
  EXPECT_GE(observed.load(), base + 4);
  go = true;
  for (auto& t : ts) t.join();
  // Exited threads must deregister (drained Grant words).
  while (ThreadRegistry::live_count() > base) std::this_thread::yield();
  EXPECT_EQ(ThreadRegistry::live_count(), base);
}

TEST(ThreadRec, IdsAreUnique) {
  std::set<std::uint32_t> ids;
  std::mutex mu;
  std::vector<std::thread> ts;
  for (int i = 0; i < 8; ++i) {
    ts.emplace_back([&] {
      std::lock_guard<std::mutex> g(mu);
      ids.insert(self().id);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(ids.size(), 8u);
}

// The §5.4 hooks write the caller's slab (slot 0: no attribution is
// current) and the predecessor's live Grant-waiter gauge.
TEST(LockProfiler, HooksRespectEnableFlag) {
  ThreadRec& me = self();
  telemetry::reset();
  telemetry::Slab& slab = me.telemetry_slab;
  const telemetry::TmSlot& s = slab.slots[0];
  LockProfiler::enable(false);
  LockProfiler::on_acquire(me);
  EXPECT_EQ(slab.held, 0u);
  LockProfiler::enable(true);
  LockProfiler::on_acquire(me);
  LockProfiler::on_acquire(me);  // nested
  EXPECT_EQ(slab.held, 2u);
  EXPECT_EQ(s.max_held.load(), 2u);
  EXPECT_EQ(s.nested_acquires.load(), 1u);
  LockProfiler::on_release(me);
  LockProfiler::on_release(me);
  LockProfiler::on_release(me);  // never below zero
  EXPECT_EQ(slab.held, 0u);
  LockProfiler::on_wait_begin(me);
  EXPECT_EQ(me.grant_waiters.load(), 1u);
  EXPECT_EQ(s.max_grant_waiters.load(), 1u);
  LockProfiler::on_wait_end(me);
  EXPECT_EQ(me.grant_waiters.load(), 0u);
  LockProfiler::enable(false);
  telemetry::reset();
}

TEST(SpinWait, EscalatesAfterLimit) {
  SpinWait w(4);
  for (int i = 0; i < 10; ++i) w.wait();
  EXPECT_GE(w.iterations(), 4u);
  w.reset();
  EXPECT_EQ(w.iterations(), 0u);
}

}  // namespace
}  // namespace hemlock
