// sharded_kv — the sharded serving layer as an application: hash-
// partitioned shards with runtime-chosen locks, epoch-protected
// lock-free reads, tombstoned deletes and cross-shard scans.
//
//   build/examples/sharded_kv [clients] [seconds] [lock-name] [shards]
//
// Contrast with examples/kv_store (one central mutex): here every
// shard has its own factory-named lock, the read path never waits to
// acquire one (quiescent-state reclamation keeps retired memtables/
// versions alive until in-flight readers exit; a get answered by the
// tables try_locks its shard to promote the row into the memtable),
// and a scan merges every shard in one pass. An overwrite's dead
// memtable entry is reused by a later write of its size once the
// epoch has passed it, so the memtables flush only when new keys fill
// them.
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/hemlock_api.hpp"
#include "minikv/db_bench.hpp"
#include "minikv/sharded_db.hpp"

int main(int argc, char** argv) {
  using namespace hemlock;
  const int clients = argc > 1 ? std::atoi(argv[1]) : 8;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 1.0;
  const std::string lock_name = argc > 3 ? argv[3] : "hemlock";
  const std::size_t shards =
      argc > 4 ? static_cast<std::size_t>(std::atoi(argv[4])) : 16;
  constexpr std::uint64_t kKeys = 50000;

  const LockInfo* lock_info = LockFactory::instance().info(lock_name);
  if (lock_info == nullptr) {
    std::cerr << "unknown lock \"" << lock_name << "\"; available:";
    for (const auto n : LockFactory::instance().names()) {
      std::cerr << " " << n;
    }
    std::cerr << "\n";
    return 2;
  }
  std::cout << "shards=" << shards << " shard lock=" << lock_name
            << " (reads are epoch-protected, lock-free)\n";

  minikv::ShardedDbOptions opts;
  opts.num_shards = shards;
  minikv::ShardedDB<AnyLock> db(opts, lock_name);

  std::cout << "populating " << kKeys << " keys...\n";
  const std::string value(100, 'v');
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    db.put(minikv::bench_key(k), value);
  }
  db.flush();

  // Mixed serving traffic: every client does mostly gets with some
  // scans, overwrites and deletes (deleted keys are re-created, so
  // lookups of live keys always succeed).
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Xoshiro256 prng(77 + c);
      std::string v;
      std::vector<std::pair<std::string, std::string>> range;
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = prng.below(kKeys);
        const auto roll = prng.below(100);
        if (roll < 90) {
          (void)db.get(minikv::bench_key(k), &v);
        } else if (roll < 95) {
          db.put(minikv::bench_key(k), value);
        } else if (roll < 97) {
          db.del(minikv::bench_key(k));
          db.put(minikv::bench_key(k), value);  // resurrect
        } else {
          db.scan(minikv::bench_key(k), 16, &range);
        }
        ++n;
      }
      ops.fetch_add(n);
    });
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(seconds * 1000)));
  stop.store(true);
  for (auto& t : threads) t.join();

  const auto st = db.stats();
  std::cout << "\nclients=" << clients << " duration=" << seconds << "s\n"
            << "aggregate ops: " << ops.load() << " ("
            << static_cast<double>(ops.load()) / seconds / 1e6
            << " M ops/sec)\n"
            << "gets: " << st.epoch_gets << " epoch-protected; scans: "
            << st.scans << "\n"
            << "flushes: " << st.flushes << ", compactions: "
            << st.compactions << ", tables now: " << db.num_tables() << "\n"
            << "reclamation: epoch " << st.reclaim.epoch << ", "
            << st.reclaim.freed << " freed, " << st.reclaim.pending
            << " pending, " << st.reclaim.advances << " advances ("
            << st.reclaim.advance_blocked << " blocked by in-flight "
            << "readers)\n"
            << "gets answered by the memtable: "
            << st.epoch_gets - st.table_gets
            << ", by tables: " << st.table_gets << "\n"
            << "rows promoted into the memtable: " << st.promotions << "\n"
            << "writes that reused a dead memtable entry: " << st.recycled
            << "\n"
            << "block cache: " << db.cache_hits() << " hits, "
            << db.cache_misses() << " misses\n";
  return 0;
}
