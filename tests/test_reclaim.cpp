// test_reclaim.cpp — epoch-based reclamation invariants and the
// sharded serving layer built on them.
//
// The contracts pinned down here:
//   * no object is freed while a reader that could reach it is still
//     inside its epoch (the memory-safety half);
//   * deferred frees DO happen once readers quiesce, under bounded
//     drain batches (the no-leak half);
//   * a stalled reader blocks epoch advance — observable in
//     DomainStats — but never deadlocks writers or drains;
//   * ShardedDB get/put/del/scan stay linearizable under concurrent
//     mixed traffic across flushes and compactions, and every scan
//     stays bounded and ascending from its start.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/any_lock.hpp"
#include "minikv/db_bench.hpp"  // bench_key
#include "minikv/sharded_db.hpp"
#include "minikv/traffic.hpp"
#include "reclaim/epoch.hpp"
#include "runtime/barrier.hpp"

namespace hemlock {
namespace {

using minikv::bench_key;
using minikv::ShardedDB;
using minikv::ShardedDbOptions;
using minikv::Slice;
using reclaim::EpochDomain;
using reclaim::EpochGuard;

// ----------------------------------------------------- epoch core --

TEST(EpochDomain, EnterExitNesting) {
  EpochDomain d;
  EXPECT_FALSE(d.in_epoch());
  d.enter();
  EXPECT_TRUE(d.in_epoch());
  d.enter();  // nested
  EXPECT_TRUE(d.in_epoch());
  d.exit();
  EXPECT_TRUE(d.in_epoch());  // still inside the outermost section
  d.exit();
  EXPECT_FALSE(d.in_epoch());
  {
    EpochGuard g(d);
    EXPECT_TRUE(d.in_epoch());
  }
  EXPECT_FALSE(d.in_epoch());
}

TEST(EpochDomain, RetiredObjectsDrainAfterQuiescence) {
  EpochDomain d;
  std::atomic<int> freed{0};
  struct Obj {
    std::atomic<int>* c;
    ~Obj() { c->fetch_add(1, std::memory_order_relaxed); }
  };
  constexpr int kObjects = 10;
  for (int i = 0; i < kObjects; ++i) {
    d.retire(new Obj{&freed});
  }
  EXPECT_EQ(freed.load(), 0);  // nothing freed inline at retire
  // No reader is in an epoch: two drains (two advances) make every
  // retiree safe, a third collects any stamped at the boundary.
  for (int i = 0; i < 3; ++i) d.drain(~std::size_t{0});
  EXPECT_EQ(freed.load(), kObjects);
  const auto st = d.stats();
  EXPECT_EQ(st.pending, 0u);
  EXPECT_EQ(st.freed, static_cast<std::uint64_t>(kObjects));
  EXPECT_GE(st.advances, 2u);
}

TEST(EpochDomain, DrainBatchesAreBounded) {
  EpochDomain d;
  std::atomic<int> freed{0};
  struct Obj {
    std::atomic<int>* c;
    ~Obj() { c->fetch_add(1, std::memory_order_relaxed); }
  };
  constexpr int kObjects = 100;
  for (int i = 0; i < kObjects; ++i) d.retire(new Obj{&freed});
  // Age everything past the safety horizon without freeing: with no
  // reader in-epoch every advance succeeds, so exactly two moves put
  // the retire stamps two epochs behind.
  ASSERT_TRUE(d.try_advance());
  ASSERT_TRUE(d.try_advance());
  // Each drain frees at most its batch.
  const std::size_t first = d.drain(7);
  EXPECT_LE(first, 7u);
  EXPECT_LE(freed.load(), 7);
  std::size_t total = first;
  for (int guard = 0; guard < 100 && total < kObjects; ++guard) {
    total += d.drain(7);
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kObjects));
  EXPECT_EQ(freed.load(), kObjects);
}

// The memory-safety half: an object retired while a reader is inside
// its epoch must not be freed until that reader exits — no matter how
// hard anyone drains.
TEST(EpochDomain, NoReclamationWhileReaderInEpoch) {
  EpochDomain d;
  std::atomic<bool> freed{false};
  std::atomic<bool> reader_in{false};
  std::atomic<bool> release_reader{false};
  struct Obj {
    std::atomic<bool>* f;
    ~Obj() { f->store(true, std::memory_order_release); }
  };

  std::thread reader([&] {
    EpochGuard g(d);
    reader_in.store(true, std::memory_order_release);
    while (!release_reader.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!reader_in.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // Unlink + retire while the reader is pinned (as a writer would,
  // after removing the object from the shared structure).
  d.retire(new Obj{&freed});
  for (int i = 0; i < 50; ++i) d.drain(~std::size_t{0});
  EXPECT_FALSE(freed.load());  // reader still in-epoch: must survive
  const auto blocked = d.stats();
  EXPECT_GT(blocked.advance_blocked, 0u);  // reported, not deadlocked
  EXPECT_EQ(blocked.pending, 1u);

  release_reader.store(true, std::memory_order_release);
  reader.join();
  for (int i = 0; i < 3; ++i) d.drain(~std::size_t{0});
  EXPECT_TRUE(freed.load());  // quiescence unblocks reclamation
  EXPECT_EQ(d.stats().pending, 0u);
}

// The liveness half of the stalled-reader contract: while one reader
// stalls, writers keep retiring and draining without blocking; the
// backlog is bounded by what was retired, and is fully collected
// after the stall ends.
TEST(EpochDomain, StalledReaderBoundsGarbageButNeverBlocksWriters) {
  EpochDomain d;
  std::atomic<int> freed{0};
  std::atomic<bool> release_reader{false};
  std::atomic<bool> reader_in{false};
  struct Obj {
    std::atomic<int>* c;
    ~Obj() { c->fetch_add(1, std::memory_order_relaxed); }
  };

  std::thread reader([&] {
    EpochGuard g(d);
    reader_in.store(true, std::memory_order_release);
    while (!release_reader.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!reader_in.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  constexpr int kRetired = 200;
  for (int i = 0; i < kRetired; ++i) {
    d.retire(new Obj{&freed});
    d.drain(8);  // a writer's bounded piggyback drain — returns promptly
  }
  const auto st = d.stats();
  EXPECT_EQ(st.freed + st.pending, static_cast<std::uint64_t>(kRetired));
  EXPECT_GT(st.advance_blocked, 0u);

  release_reader.store(true, std::memory_order_release);
  reader.join();
  for (int i = 0; i < 3 + kRetired / 8; ++i) d.drain(8);
  EXPECT_EQ(freed.load(), kRetired);
  EXPECT_EQ(d.stats().pending, 0u);
}

// Concurrent readers + a retiring writer, sanitizer-checked (this
// suite runs under TSan in CI): readers traverse a published pointer
// that the writer keeps swinging and retiring.
TEST(EpochDomain, ConcurrentPublishRetireStress) {
  EpochDomain d;
  struct Node {
    std::uint64_t a, b;  // invariant: b == ~a
  };
  std::atomic<Node*> published{new Node{1, ~std::uint64_t{1}}};
  std::atomic<bool> stop{false};
  constexpr int kReaders = 3;

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EpochGuard g(d);
        Node* n = published.load(std::memory_order_acquire);
        // If n were freed under us this read is a use-after-free —
        // exactly what TSan/ASan would flag and the invariant check
        // would (probabilistically) catch.
        EXPECT_EQ(n->b, ~n->a);
      }
    });
  }
  std::thread writer([&] {
    for (std::uint64_t i = 2; i < 3000; ++i) {
      Node* fresh = new Node{i, ~i};
      Node* old = published.exchange(fresh, std::memory_order_acq_rel);
      d.retire(old);
      d.drain(16);
    }
    stop.store(true, std::memory_order_relaxed);
  });
  writer.join();
  for (auto& t : readers) t.join();
  delete published.load(std::memory_order_relaxed);
  for (int i = 0; i < 3; ++i) d.drain(~std::size_t{0});
  EXPECT_EQ(d.stats().pending, 0u);
}

// ------------------------------------------------ sharded serving --

ShardedDbOptions small_db_options() {
  ShardedDbOptions o;
  o.num_shards = 4;
  o.write_buffer_bytes = 4 << 10;  // tiny: force frequent flushes
  o.compaction_trigger = 3;        // ...and compactions
  o.block_cache_bytes = 32 << 10;  // a few blocks per cache shard: each
                                   // flush's new table ids evict and
                                   // recycle entries
  return o;
}

TEST(ShardedDb, GetPutDeleteRoundTrip) {
  EpochDomain domain;
  ShardedDB<AnyLock> db(small_db_options(), &domain);
  std::string v;
  EXPECT_TRUE(db.get("absent", &v).is_not_found());
  ASSERT_TRUE(db.put("k1", "v1").is_ok());
  ASSERT_TRUE(db.put("k2", "v2").is_ok());
  ASSERT_TRUE(db.get("k1", &v).is_ok());
  EXPECT_EQ(v, "v1");
  ASSERT_TRUE(db.put("k1", "v1b").is_ok());  // overwrite
  ASSERT_TRUE(db.get("k1", &v).is_ok());
  EXPECT_EQ(v, "v1b");
  ASSERT_TRUE(db.del("k1").is_ok());
  EXPECT_TRUE(db.get("k1", &v).is_not_found());
  ASSERT_TRUE(db.get("k2", &v).is_ok());  // neighbor untouched
  EXPECT_EQ(v, "v2");
  // Deleted keys stay deleted across flush and compaction...
  db.flush();
  EXPECT_TRUE(db.get("k1", &v).is_not_found());
  // ...and can be resurrected by a later write.
  ASSERT_TRUE(db.put("k1", "back").is_ok());
  ASSERT_TRUE(db.get("k1", &v).is_ok());
  EXPECT_EQ(v, "back");
}

TEST(ShardedDb, TombstonesSurviveFlushAndCompaction) {
  EpochDomain domain;
  ShardedDB<AnyLock> db(small_db_options(), &domain);
  constexpr std::uint64_t kKeys = 2000;
  const std::string value(64, 'v');
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(db.put(bench_key(k), value).is_ok());
  }
  // Delete every third key, then churn enough writes to force the
  // tombstones through flushes and full-merge compactions.
  for (std::uint64_t k = 0; k < kKeys; k += 3) {
    ASSERT_TRUE(db.del(bench_key(k)).is_ok());
  }
  for (std::uint64_t k = kKeys; k < kKeys + 2000; ++k) {
    ASSERT_TRUE(db.put(bench_key(k), value).is_ok());
  }
  db.flush();
  EXPECT_GT(db.stats().compactions, 0u);
  std::string v;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (k % 3 == 0) {
      EXPECT_TRUE(db.get(bench_key(k), &v).is_not_found()) << k;
    } else {
      ASSERT_TRUE(db.get(bench_key(k), &v).is_ok()) << k;
      EXPECT_EQ(v, value);
    }
  }
}

TEST(ShardedDb, ScanMergesShardsSortedAndElidesTombstones) {
  EpochDomain domain;
  ShardedDB<AnyLock> db(small_db_options(), &domain);
  constexpr std::uint64_t kKeys = 500;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(db.put(bench_key(k), "v" + std::to_string(k)).is_ok());
  }
  db.flush();  // half the keyspace in tables...
  for (std::uint64_t k = 0; k < kKeys; k += 10) {
    ASSERT_TRUE(db.del(bench_key(k)).is_ok());  // ...tombstones in mem
  }
  std::vector<std::pair<std::string, std::string>> out;
  // Full scan: ascending, deduplicated, tombstones gone.
  EXPECT_EQ(db.scan(Slice(), kKeys, &out), kKeys - kKeys / 10);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(Slice(out[i - 1].first).compare(Slice(out[i].first)), 0);
  }
  for (const auto& [k, v] : out) {
    const std::uint64_t n = std::stoull(k);
    EXPECT_NE(n % 10, 0u) << k;
    EXPECT_EQ(v, "v" + std::to_string(n));
  }
  // Bounded scan from an offset: exactly limit entries, starting at
  // the first live key >= start.
  EXPECT_EQ(db.scan(bench_key(100), 7, &out), 7u);
  EXPECT_EQ(out.front().first, bench_key(101));  // 100 was deleted
  EXPECT_EQ(out.size(), 7u);
}

// Linearizability under concurrent mixed traffic: per-key monotone
// version counters — a reader may see any PREVIOUSLY written version
// (or miss during a delete window) but never an older value after a
// newer one was confirmed absent, and never torn data; a scan returns
// at most its limit of keys, strictly ascending, none below its start.
// Runs across flush/compaction churn; TSan in CI checks the memory
// model side.
TEST(ShardedDb, ConcurrentMixedTrafficStress) {
  EpochDomain domain;
  ShardedDB<AnyLock> db(small_db_options(), &domain);
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr std::uint64_t kKeys = 64;  // few keys: maximize collisions
  constexpr int kWritesEach = 4000;
  std::atomic<bool> stop{false};
  SpinBarrier start(kWriters + kReaders);

  std::vector<std::thread> threads;
  // Writers: each owns a disjoint key stripe and writes strictly
  // increasing versions, deleting occasionally.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      start.arrive_and_wait();
      for (int i = 1; i <= kWritesEach; ++i) {
        const std::uint64_t k = w * kKeys / kWriters +
                                static_cast<std::uint64_t>(i) %
                                    (kKeys / kWriters);
        if (i % 17 == 0) {
          ASSERT_TRUE(db.del(bench_key(k)).is_ok());
        } else {
          ASSERT_TRUE(
              db.put(bench_key(k), std::to_string(i)).is_ok());
        }
      }
    });
  }
  // Readers: values parse back as integers in [1, kWritesEach] —
  // torn or freed-under-us data would fail the parse or the range —
  // and a scan's keys are ascending from its start: a merge that
  // yielded a key twice, out of order or before start fails here.
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      start.arrive_and_wait();
      std::string v;
      std::vector<std::pair<std::string, std::string>> out;
      std::uint64_t k = r;
      while (!stop.load(std::memory_order_relaxed)) {
        k = (k + 1) % kKeys;
        if (k % 16 == 0) {
          constexpr std::size_t kLimit = 8;
          const std::string from = bench_key(k);
          const std::size_t n = db.scan(from, kLimit, &out);
          ASSERT_EQ(n, out.size());
          ASSERT_LE(n, kLimit);
          for (std::size_t i = 0; i < out.size(); ++i) {
            const auto& [sk, sv] = out[i];
            ASSERT_GE(Slice(sk).compare(Slice(from)), 0) << sk;
            if (i > 0) {
              ASSERT_LT(Slice(out[i - 1].first).compare(Slice(sk)), 0) << sk;
            }
            ASSERT_FALSE(sv.empty()) << sk;
            const int n = std::stoi(sv);
            ASSERT_GE(n, 1);
            ASSERT_LE(n, kWritesEach);
          }
        } else if (db.get(bench_key(k), &v).is_ok()) {
          ASSERT_FALSE(v.empty());
          const int n = std::stoi(v);
          ASSERT_GE(n, 1);
          ASSERT_LE(n, kWritesEach);
        }
      }
    });
  }
  // Writers are the first kWriters threads.
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_relaxed);
  for (int t = kWriters; t < kWriters + kReaders; ++t) threads[t].join();

  const auto st = db.stats();
  EXPECT_GT(st.flushes, 0u);  // the churn actually exercised reclamation
  EXPECT_GT(db.cache_hits(), 0u);  // ...and table reads the block cache
  EXPECT_GT(st.epoch_gets, 0u);
  EXPECT_GT(st.scans, 0u);
  // Whatever is still pending drains once everyone is quiescent.
  for (int i = 0; i < 3; ++i) db.reclaim_drain(~std::size_t{0});
  EXPECT_EQ(db.stats().reclaim.pending, 0u);
}

// Runtime-chosen shard locks reach the shards through the factory
// name, like every AnyLock consumer.
TEST(ShardedDb, NamedShardLocks) {
  ShardedDbOptions o;
  o.num_shards = 2;
  ShardedDB<AnyLock> db(o, "mcs");
  ASSERT_TRUE(db.put("a", "1").is_ok());
  std::string v;
  ASSERT_TRUE(db.get("a", &v).is_ok());
  EXPECT_EQ(v, "1");
  EXPECT_EQ(db.num_shards(), 2u);
}

// The traffic harness's backends agree on semantics where they
// overlap (the driver measures them interchangeably).
TEST(Traffic, BackendsAgreeOnBasicOps) {
  minikv::DB<AnyLock> central;
  minikv::CentralBackend<AnyLock> central_kv(central);
  EpochDomain domain;
  ShardedDB<AnyLock> sharded(small_db_options(), &domain);
  minikv::ShardedBackend<AnyLock> sharded_kv(sharded);
  for (minikv::KvBackend* kv :
       {static_cast<minikv::KvBackend*>(&central_kv),
        static_cast<minikv::KvBackend*>(&sharded_kv)}) {
    ASSERT_TRUE(kv->put("x", "1").is_ok());
    std::string v;
    ASSERT_TRUE(kv->get("x", &v).is_ok());
    EXPECT_EQ(v, "1");
    std::vector<std::pair<std::string, std::string>> out;
    EXPECT_EQ(kv->scan(Slice(), 10, &out), 1u);
  }
  EXPECT_FALSE(central_kv.supports_delete());
  EXPECT_TRUE(sharded_kv.supports_delete());
  ASSERT_TRUE(sharded_kv.del("x").is_ok());
  std::string v;
  EXPECT_TRUE(sharded_kv.get("x", &v).is_not_found());
}

// Zipfian sanity: draws stay in range and are genuinely skewed (the
// most popular key appears far above the uniform expectation).
TEST(Traffic, ZipfianIsSkewedAndInRange) {
  constexpr std::uint64_t kItems = 1000;
  constexpr int kDraws = 20000;
  minikv::ZipfianGenerator zipf(kItems, 0.99, 42);
  std::vector<int> counts(kItems, 0);
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t k = zipf.next();
    ASSERT_LT(k, kItems);
    ++counts[k];
  }
  const int top = *std::max_element(counts.begin(), counts.end());
  // Uniform expectation is kDraws/kItems = 20; Zipf(0.99)'s head is
  // two orders of magnitude hotter.
  EXPECT_GT(top, 50 * (kDraws / static_cast<int>(kItems)));
}

TEST(Traffic, RunTrafficCountsEveryOperation) {
  EpochDomain domain;
  ShardedDB<AnyLock> db(small_db_options(), &domain);
  minikv::ShardedBackend<AnyLock> kv(db);
  minikv::fill_backend(kv, 512, 32);
  const auto* scenario = minikv::find_traffic_scenario("write-burst");
  ASSERT_NE(scenario, nullptr);
  minikv::TrafficConfig cfg;
  cfg.threads = 2;
  cfg.duration_ms = 50;
  cfg.num_keys = 512;
  cfg.batch_size = 16;
  const auto res = minikv::run_traffic(kv, *scenario, cfg);
  EXPECT_GT(res.total_ops(), 0u);
  EXPECT_GT(res.gets, 0u);
  EXPECT_GT(res.puts, 0u);  // burst batches guarantee writes
  EXPECT_GT(res.dels, 0u);
  EXPECT_EQ(res.total_ops(),
            res.gets + res.scans + res.puts + res.dels);
  EXPECT_GT(res.batch_us.count(), 0u);  // latency histogram populated
  EXPECT_GT(res.mops_per_sec(), 0.0);
  // All four named scenarios exist (CI sweeps them by name).
  for (const char* name :
       {"read-heavy", "scan-heavy", "hot-key", "write-burst"}) {
    EXPECT_NE(minikv::find_traffic_scenario(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace hemlock
