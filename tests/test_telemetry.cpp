// test_telemetry.cpp — the lock-runtime telemetry layer
// (stats/telemetry.hpp): log2 bucket edges, handle lifecycle and
// slot-scrub-on-release, hook counting through AnyLock (one contended
// count per waiting acquisition, across waiting engines), sampled
// wait/hold histograms, snapshot/merge exactness under thread churn
// (exited threads fold into the retired array), reset, the JSON
// export, and the condvar-source registration.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/any_lock.hpp"
#include "api/factory.hpp"
#include "runtime/governor.hpp"
#include "stats/telemetry.hpp"

namespace hemlock::telemetry {
namespace {

#if HEMLOCK_TELEMETRY_ENABLED

TEST(Telemetry, Log2BucketEdges) {
  EXPECT_EQ(log2_bucket(0), 0u);
  EXPECT_EQ(log2_bucket(1), 0u);
  EXPECT_EQ(log2_bucket(2), 1u);
  EXPECT_EQ(log2_bucket(3), 1u);
  EXPECT_EQ(log2_bucket(4), 2u);
  EXPECT_EQ(log2_bucket(1023), 9u);
  EXPECT_EQ(log2_bucket(1024), 10u);
  EXPECT_EQ(log2_bucket(1ull << 38), 38u);
  // The top bucket absorbs everything at and past 2^39.
  EXPECT_EQ(log2_bucket(1ull << 39), kHistBuckets - 1);
  EXPECT_EQ(log2_bucket(~0ull), kHistBuckets - 1);
}

TEST(Telemetry, HandleLifecycle) {
  const TelemetryHandle h = register_handle("tm-lifecycle");
  ASSERT_NE(h.id, 0);
  EXPECT_EQ(handle_name(h), "tm-lifecycle");

  // Same name refcounts onto the same slot.
  const TelemetryHandle h2 = register_handle("tm-lifecycle");
  EXPECT_EQ(h2.id, h.id);

  release_handle(h2);
  EXPECT_EQ(handle_name(h), "tm-lifecycle");  // one ref remains
  release_handle(h);
  EXPECT_EQ(handle_name(h), std::string_view{});  // slot freed

  // The empty name never claims a slot.
  EXPECT_EQ(register_handle("").id, 0);
}

TEST(Telemetry, HandleNamesTruncateNotOverflow) {
  const std::string longname(200, 'x');
  const TelemetryHandle h = register_handle(longname);
  ASSERT_NE(h.id, 0);
  const std::string_view stored = handle_name(h);
  EXPECT_LT(stored.size(), 200u);
  EXPECT_EQ(stored, longname.substr(0, stored.size()));
  // Truncated spelling still refcounts (lookup uses the stored name).
  const TelemetryHandle h2 = register_handle(std::string(stored));
  EXPECT_EQ(h2.id, h.id);
  release_handle(h2);
  release_handle(h);
}

TEST(Telemetry, TableFullFallsBackToUnattributed) {
  std::vector<TelemetryHandle> claimed;
  for (int i = 0; i < 64; ++i) {
    const TelemetryHandle h =
        register_handle("tm-fill-" + std::to_string(i));
    if (h.id == 0) break;
    claimed.push_back(h);
  }
  // The table holds kMaxHandles - 1 usable slots process-wide; with
  // whatever other suites hold, at least one registration above must
  // have overflowed into the {0} fallback.
  EXPECT_LT(claimed.size(), 64u);
  for (const TelemetryHandle h : claimed) release_handle(h);
}

/// The named row in a snapshot, or nullptr.
const LockTelemetry* find_row(const Snapshot& snap, std::string_view name) {
  for (const LockTelemetry& lt : snap.locks) {
    if (lt.name == name) return &lt;
  }
  return nullptr;
}

TEST(Telemetry, HooksCountAndReleaseScrubs) {
  const TelemetryHandle h = register_handle("tm-count");
  ASSERT_NE(h.id, 0);
  for (int i = 0; i < 5; ++i) {
    on_lock_begin(h);
    on_lock_acquired(h);
    on_unlock_begin(h);
    on_unlock_end(h);
  }
  on_try_failure(h);
  on_shared_begin(h);
  on_shared_acquired(h);

  const Snapshot snap = collect();
  const LockTelemetry* row = find_row(snap, "tm-count");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->acquires, 5u);
  EXPECT_EQ(row->try_failures, 1u);
  EXPECT_EQ(row->shared_acquires, 1u);

  // Release scrubs the slot: a new handle that reuses it must not
  // inherit the old counters, and the old name must be gone.
  release_handle(h);
  EXPECT_EQ(find_row(collect(), "tm-count"), nullptr);
  const TelemetryHandle h2 = register_handle("tm-count-reborn");
  ASSERT_NE(h2.id, 0);
  const LockTelemetry* reborn = find_row(collect(), "tm-count-reborn");
  // All-zero rows are skipped entirely — reuse starts from nothing.
  EXPECT_EQ(reborn, nullptr);
  release_handle(h2);
}

TEST(Telemetry, SampledTimingFillsWaitAndHoldHistograms) {
  // The sampler fires when (++ops % kSampleEvery) == 1; ops is
  // owner-thread sampling state that deliberately survives slot
  // scrubs, so the phase here depends on what earlier tests did with
  // the reused slot. kSampleEvery + 1 consecutive cycles cross the
  // firing point at least once (and at most twice) from any phase.
  const TelemetryHandle h = register_handle("tm-sampled");
  ASSERT_NE(h.id, 0);
  for (unsigned i = 0; i < kSampleEvery + 1; ++i) {
    on_lock_begin(h);
    on_lock_acquired(h);
    on_unlock_begin(h);
    on_unlock_end(h);
  }
  const Snapshot snap = collect();
  const LockTelemetry* row = find_row(snap, "tm-sampled");
  ASSERT_NE(row, nullptr);
  EXPECT_GE(row->wait_ns.count(), 1u);
  EXPECT_LE(row->wait_ns.count(), 2u);
  EXPECT_GE(row->hold_ns.count(), 1u);
  EXPECT_LE(row->hold_ns.count(), 2u);
  release_handle(h);
}

TEST(Telemetry, HistogramBucketsMaterializeAtLowerEdge) {
  const TelemetryHandle h = register_handle("tm-hist");
  ASSERT_NE(h.id, 0);
  // Plant counts directly in two buckets of this thread's slab; the
  // snapshot re-materializes bucket b as count at value 2^b.
  TmSlot& s = my_slab().slots[h.id];
  s.wait_hist[5].store(3, std::memory_order_relaxed);   // mo: test setup
  s.wait_hist[12].store(1, std::memory_order_relaxed);  // mo: test setup
  const Snapshot snap = collect();
  const LockTelemetry* row = find_row(snap, "tm-hist");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->wait_ns.count(), 4u);
  EXPECT_EQ(row->wait_ns.min(), 1u << 5);
  EXPECT_EQ(row->wait_ns.max(), 1u << 12);
  // p50 lands in bucket 5's [2^5, 2^6) range (3 of 4 samples).
  EXPECT_GE(row->wait_ns.quantile(0.5), 1u << 5);
  EXPECT_LT(row->wait_ns.quantile(0.5), 1u << 6);
  release_handle(h);
}

TEST(Telemetry, SnapshotExactUnderThreadChurn) {
  const TelemetryHandle h = register_handle("tm-churn");
  ASSERT_NE(h.id, 0);
  constexpr int kWaves = 3;
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;

  // A concurrent collector exercises snapshot-vs-writer and
  // snapshot-vs-deregistration (retired fold) races while waves of
  // threads count and exit.
  std::atomic<bool> stop{false};
  std::thread collector([&] {
    while (!stop.load(std::memory_order_acquire)) {  // mo: test handshake
      const Snapshot snap = collect();
      const LockTelemetry* row = find_row(snap, "tm-churn");
      if (row != nullptr) {
        // Monotonic and never past the final total.
        EXPECT_LE(row->acquires,
                  static_cast<std::uint64_t>(kWaves * kThreads * kOps));
      }
    }
  });

  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&] {
        for (int i = 0; i < kOps; ++i) {
          on_lock_begin(h);
          on_lock_acquired(h);
          on_unlock_begin(h);
          on_unlock_end(h);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  stop.store(true, std::memory_order_release);  // mo: test handshake
  collector.join();

  // Writers quiesced: the snapshot is exact — live slabs plus the
  // retired fold of every exited worker must balance to the op count.
  const Snapshot snap = collect();
  const LockTelemetry* row = find_row(snap, "tm-churn");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->acquires,
            static_cast<std::uint64_t>(kWaves * kThreads * kOps));
  release_handle(h);
}

TEST(Telemetry, AnyLockNamedConstructionCounts) {
  {
    AnyLock l = LockFactory::instance().make("hemlock", "tm-anylock");
    l.lock();
    l.unlock();
    ASSERT_TRUE(l.try_lock());
    l.unlock();

    const Snapshot snap = collect();
    const LockTelemetry* row = find_row(snap, "tm-anylock");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->acquires, 2u);
    EXPECT_EQ(handle_name(l.telemetry_handle()), "tm-anylock");
  }
  // Destruction released the last reference and scrubbed the slot.
  EXPECT_EQ(find_row(collect(), "tm-anylock"), nullptr);
}

TEST(Telemetry, AnyLockSharedModeCountsReaders) {
  AnyLock l =
      LockFactory::instance().make("rwlock-compact", "tm-readers");
  l.lock_shared();
  l.unlock_shared();
  l.lock_shared();
  l.unlock_shared();
  const Snapshot snap = collect();
  const LockTelemetry* row = find_row(snap, "tm-readers");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->shared_acquires, 2u);
  EXPECT_EQ(row->acquires, 0u);
}

TEST(Telemetry, TryFailureCountsUnderContention) {
  AnyLock l = LockFactory::instance().make("ttas", "tm-tryfail");
  l.lock();
  std::thread loser([&] { EXPECT_FALSE(l.try_lock()); });
  loser.join();
  l.unlock();
  const Snapshot snap = collect();
  const LockTelemetry* row = find_row(snap, "tm-tryfail");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->acquires, 1u);
  EXPECT_EQ(row->try_failures, 1u);
}

// One waiting acquisition is one contended acquisition, whatever engine
// the lock waits in: Grant waits count at entry, queue waits when their
// first poll fails, and neither escalating past the doorstep nor the
// holder's unlock-side drain adds another. The holder releases only
// after it has observed the waiter waiting (and, on the escalating
// tiers, registered in the governor's waiter census).
TEST(Telemetry, ContendedAcquisitionCountsOnce) {
  for (const char* algo :
       {"hemlock", "hemlock-adaptive", "hemlock-futex", "hemlock-overlap",
        "hemlock-ah", "hemlock-ohv1", "hemlock-ohv2", "hemlock-chain", "mcs",
        "mcs-adaptive", "mcs-park", "clh", "ticket"}) {
    SCOPED_TRACE(algo);
    const LockInfo* info = LockFactory::instance().info(algo);
    ASSERT_NE(info, nullptr);
    const std::string row_name = std::string("tm-once-") + algo;
    AnyLock l = LockFactory::instance().make(algo, row_name);
    l.lock();
    std::thread waiter([&] {
      l.lock();
      l.unlock();
    });
    const auto waiting = [&] {
      const Snapshot snap = collect();
      const LockTelemetry* row = find_row(snap, row_name);
      return row != nullptr && row->contended >= 1 &&
             (!info->oversub_safe ||
              ContentionGovernor::instance().waiters() >= 1);
    };
    // Bounded so a lock that never counts fails instead of hanging.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    bool observed = waiting();
    while (!observed && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
      observed = waiting();
    }
    l.unlock();
    waiter.join();
    EXPECT_TRUE(observed) << "the waiter never showed as waiting";

    const Snapshot snap = collect();
    const LockTelemetry* row = find_row(snap, row_name);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->acquires, 2u);
    EXPECT_EQ(row->contended, 1u);
  }
}

TEST(Telemetry, ResetZeroesSlotsAndGovernorDiag) {
  const TelemetryHandle h = register_handle("tm-reset");
  ASSERT_NE(h.id, 0);
  on_lock_begin(h);
  on_lock_acquired(h);
  on_unlock_begin(h);
  on_unlock_end(h);
  ASSERT_NE(find_row(collect(), "tm-reset"), nullptr);

  reset();

  // The handle survives a reset (it names a live lock); only its
  // counters clear, so the all-zero row disappears from snapshots.
  EXPECT_EQ(handle_name(h), "tm-reset");
  EXPECT_EQ(find_row(collect(), "tm-reset"), nullptr);
  const GovernorTelemetry g = collect().governor;
  EXPECT_EQ(g.park_sleeps, 0u);
  EXPECT_EQ(g.park_wakeups, 0u);
  EXPECT_EQ(g.wake_syscalls, 0u);
  EXPECT_EQ(g.census_high_water_max, 0u);
  release_handle(h);
}

#endif  // HEMLOCK_TELEMETRY_ENABLED

TEST(Telemetry, ToJsonCarriesSchemaAndSections) {
  const std::string json = to_json(collect());
  EXPECT_NE(json.find("\"schema\":\"hemlock-telemetry-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"locks\":["), std::string::npos);
  EXPECT_NE(json.find("\"governor\":{"), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":{"), std::string::npos);
}

TEST(Telemetry, CondSourceAppearsInSnapshotsOnceRegistered) {
  set_cond_source(+[] {
    return CondCounters{1, 2, 3, 4, 5, 6, 7};
  });
  const Snapshot snap = collect();
  ASSERT_TRUE(snap.cond_present);
  EXPECT_EQ(snap.cond.adopted, 1u);
  EXPECT_EQ(snap.cond.chain_wakes, 7u);
  const std::string json = to_json(snap);
  EXPECT_NE(json.find("\"cond\":{\"adopted\":1"), std::string::npos);
  set_cond_source(nullptr);
  EXPECT_FALSE(collect().cond_present);
}

}  // namespace
}  // namespace hemlock::telemetry
