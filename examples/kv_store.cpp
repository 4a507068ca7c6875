// kv_store — MiniKV with a runtime-selected central mutex: the
// Figure-8 architecture as an application (coarse-grained locking
// around a read-mostly store), with live §5.4 profiling.
//
//   build/examples/kv_store [readers] [seconds] [lock-name]
//
// The central mutex is an AnyLock resolved through the LockFactory —
// the same binary runs the store on Hemlock, MCS, CLH, Ticket, ...
// exactly like the paper swaps pthread_mutex implementations with
// LD_PRELOAD (§5). Compile-time embedders use DB<Hemlock> instead.
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "api/hemlock_api.hpp"
#include "minikv/db.hpp"
#include "minikv/db_bench.hpp"
#include "stats/telemetry.hpp"

int main(int argc, char** argv) {
  using namespace hemlock;
  const int readers = argc > 1 ? std::atoi(argv[1]) : 8;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 1.0;
  const std::string lock_name = argc > 3 ? argv[3] : "hemlock";
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
  // readers + 1 writer contend on the central mutex; bounded-capacity
  // algorithms (Anderson) corrupt their slot ring past the bound.
  if (lock_info->max_threads != 0 &&
      static_cast<std::size_t>(readers) + 1 > lock_info->max_threads) {
    std::cerr << "lock \"" << lock_name << "\" supports at most "
              << lock_info->max_threads << " concurrent threads (asked "
              << readers + 1 << ")\n";
    return 2;
  }
  std::cout << "central mutex: " << lock_name << "\n";
  minikv::DB<AnyLock> db(minikv::DbOptions{}, lock_name);

  std::cout << "populating " << kKeys << " keys (fillseq)...\n";
  minikv::fill_seq(db, kKeys, 100);
  std::cout << "tables=" << db.num_tables()
            << " compactions=" << db.compactions() << "\n";

  telemetry::reset();
  LockProfiler::enable(true);

  // Read-mostly workload with a background writer, like LevelDB under
  // a mixed load: readers do random gets; the writer keeps updating.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      Xoshiro256 prng(77 + r);
      std::string value;
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto k = prng.below(kKeys);
        if (!db.get(minikv::bench_key(k), &value).is_ok()) {
          std::cerr << "lost key!\n";
          std::abort();
        }
        ++n;
      }
      reads.fetch_add(n);
    });
  }
  std::thread writer([&] {
    Xoshiro256 prng(1234);
    std::uint64_t version = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto k = prng.below(kKeys);
      db.put(minikv::bench_key(k), "updated-" + std::to_string(++version));
    }
  });

  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(seconds * 1000)));
  stop.store(true);
  for (auto& t : threads) t.join();
  writer.join();
  LockProfiler::enable(false);

  std::cout << "\nreaders=" << readers << " duration=" << seconds << "s\n"
            << "aggregate reads: " << reads.load() << " ("
            << static_cast<double>(reads.load()) / seconds / 1e6
            << " M reads/sec)\n"
            << "block cache: " << db.cache_hits() << " hits, "
            << db.cache_misses() << " misses\n\n"
            << telemetry::collect().profile.describe()
            << "(single central lock => the paper's §5.4 prediction: "
               "purely local spinning)\n";
  return 0;
}
