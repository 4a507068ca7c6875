// bench_minikv_traffic — mixed-traffic serving comparison: central-
// mutex DB vs the sharded epoch-read serving layer.
//
// Where Figure 8 shows the central-lock collapse on uniform
// readrandom, this bench sweeps the four serving scenarios
// (minikv/traffic.hpp: read-heavy, scan-heavy, hot-key, write-burst)
// across three backends built on the SAME storage engine:
//
//   central@<scenario>         DB<AnyLock>: one central mutex
//   sharded@<scenario>         ShardedDB: per-shard locks, Get()/Scan()
//                              lock-free under epoch reclamation
//   sharded-locked@<scenario>  ShardedDB with epoch_reads=false:
//                              same sharding, reads take the shard
//                              lock in shared mode — isolating "what
//                              does QSBR buy over a shared-mode lock"
//                              for the memtable and table version.
//                              Both sharded tiers read cached blocks
//                              under the DB's epoch domain, which
//                              recycles them (minikv/cache.hpp).
//
// The shard/central lock algorithm is runtime-chosen (--lock=<name>,
// default hemlock). This bench also demonstrates the factory's
// runtime registration: it registers a std::shared_mutex-backed
// family ("std-shared-mutex") at startup, so
// --lock=std-shared-mutex measures a lock that is NOT in the
// compile-time roster through the identical AnyLock path.
//
// Flags: --duration-ms --runs --max-threads --oversubscribe --csv
//        --json=<path> --seed --lock=<name> --keys --shards --batch
//        --scenario=<name>[,...]
#include <cstdio>
#include <iostream>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "api/any_lock.hpp"
#include "api/factory.hpp"
#include "bench_common.hpp"
#include "minikv/db.hpp"
#include "minikv/db_bench.hpp"
#include "minikv/sharded_db.hpp"
#include "minikv/traffic.hpp"
#include "stats/telemetry.hpp"

namespace hemlock {

namespace {

/// The runtime-registration demo subject: the C++ standard library's
/// reader-writer mutex, absent from AllLockTags, registered with the
/// factory in main(). Its traits make it a first-class roster citizen
/// (Table-1 accounting, rwlock capability) without recompiling the
/// registry.
class StdSharedMutexLock {
 public:
  void lock() { m_.lock(); }
  void unlock() { m_.unlock(); }
  bool try_lock() { return m_.try_lock(); }
  void lock_shared() { m_.lock_shared(); }
  void unlock_shared() { m_.unlock_shared(); }
  bool try_lock_shared() { return m_.try_lock_shared(); }

 private:
  std::shared_mutex m_;
};

}  // namespace

template <>
struct lock_traits<StdSharedMutexLock> {
  static constexpr const char* name = "std-shared-mutex";
  static constexpr std::size_t lock_words =
      words_for(sizeof(std::shared_mutex));
  static constexpr std::size_t held_words = 0;
  static constexpr std::size_t wait_words = 0;
  static constexpr std::size_t thread_words = 0;
  static constexpr bool nontrivial_init = true;  // opaque pthread state
  static constexpr bool is_fifo = false;
  static constexpr bool has_trylock = true;
  static constexpr Spinning spinning = Spinning::kGlobal;
  /// Registered at run time by this bench, not part of the shim's
  /// vetted overlay set.
  static constexpr bool pthread_overlay_safe = false;
  static constexpr const char* waiting = "park";
};

}  // namespace hemlock

namespace {

using namespace hemlock;
using namespace hemlock::bench;

struct TrafficBenchConfig {
  std::string lock_name;
  std::uint64_t keys;
  std::size_t shards;
  std::size_t batch;
};

double traffic_median(minikv::KvBackend& kv,
                      const minikv::TrafficScenario& scenario,
                      std::uint32_t threads, const FigureArgs& args,
                      const TrafficBenchConfig& cfg) {
  minikv::TrafficConfig tc;
  tc.threads = threads;
  tc.duration_ms = args.duration_ms;
  tc.num_keys = cfg.keys;
  tc.batch_size = cfg.batch;
  tc.seed = args.seed;
  Summary s;
  for (int r = 0; r < args.runs; ++r) {
    s.add(minikv::run_traffic(kv, scenario, tc).mops_per_sec());
  }
  return s.median();
}

}  // namespace

int main(int argc, char** argv) {
  // Runtime registration happens BEFORE flag validation so
  // --lock=std-shared-mutex passes the factory check like any roster
  // name. Registered boxed: std::shared_mutex outweighs the compact
  // inline buffer, the same demotion the roster applies to Anderson.
  if (!LockFactory::register_lock_type<BoxedLock<StdSharedMutexLock>>()) {
    std::fprintf(stderr, "runtime lock registration failed\n");
    return 1;
  }

  Options opts(argc, argv);
  const auto args = parse_figure_args(opts);
  TrafficBenchConfig cfg;
  cfg.keys = static_cast<std::uint64_t>(opts.get_int("keys", 100000));
  cfg.shards = static_cast<std::size_t>(opts.get_int("shards", 16));
  cfg.batch = static_cast<std::size_t>(opts.get_int("batch", 32));
  auto scenario_names = opts.get_string_list("scenario");
  reject_unknown(opts);
  if (args.locks.size() > 1) {
    std::fprintf(stderr,
                 "this bench compares backends, not algorithms — pass at "
                 "most one --lock\n");
    return 2;
  }
  cfg.lock_name = args.locks.empty() ? "hemlock" : args.locks[0];

  std::vector<const minikv::TrafficScenario*> scenarios;
  if (scenario_names.empty()) {
    for (const auto& s : minikv::default_traffic_scenarios()) {
      scenarios.push_back(&s);
    }
  } else {
    for (const auto& name : scenario_names) {
      const auto* s = minikv::find_traffic_scenario(name);
      if (s == nullptr) {
        std::fprintf(stderr, "unknown scenario: %s (available:", name.c_str());
        for (const auto& known : minikv::default_traffic_scenarios()) {
          std::fprintf(stderr, " %.*s", static_cast<int>(known.name.size()),
                       known.name.data());
        }
        std::fprintf(stderr, ")\n");
        return 2;
      }
      scenarios.push_back(s);
    }
  }

  std::cout << "=== MiniKV mixed traffic: central mutex vs sharded "
               "epoch-read serving ===\n"
            << "(lock=" << cfg.lock_name << ", " << cfg.keys << " keys, "
            << cfg.shards << " shards, batches of " << cfg.batch << ")\n"
            << host_banner() << "\n"
            << "duration=" << args.duration_ms << "ms runs=" << args.runs
            << "\n\n";

  // One warmed instance per backend, shared across scenarios and
  // thread counts (the Figure-8 reuse protocol; writes stay inside
  // the pre-filled keyspace, so the working set is stationary). Each
  // backend carries a telemetry name — the sharded backends share one
  // handle across their shard locks, so the per-lock table reports
  // one row per backend, not one per shard.
  minikv::DB<AnyLock> central(minikv::DbOptions{},
                              std::string_view(cfg.lock_name),
                              std::string_view("minikv:central"));
  minikv::ShardedDbOptions sharded_opts;
  sharded_opts.num_shards = cfg.shards;
  minikv::ShardedDB<> sharded(sharded_opts, std::string_view(cfg.lock_name),
                              std::string_view("minikv:sharded"));
  minikv::ShardedDbOptions locked_opts = sharded_opts;
  locked_opts.epoch_reads = false;
  minikv::ShardedDB<> sharded_locked(
      locked_opts, std::string_view(cfg.lock_name),
      std::string_view("minikv:sharded-locked"));

  minikv::CentralBackend<AnyLock> central_kv(central);
  minikv::ShardedBackend<> sharded_kv(sharded);
  minikv::ShardedBackend<> sharded_locked_kv(sharded_locked);
  const std::pair<const char*, minikv::KvBackend*> backends[] = {
      {"central", &central_kv},
      {"sharded", &sharded_kv},
      {"sharded-locked", &sharded_locked_kv},
  };
  for (const auto& [name, kv] : backends) {
    (void)name;
    minikv::fill_backend(*kv, cfg.keys, 100);
  }

  BenchSeries series;
  for (const auto& [name, kv] : backends) {
    (void)kv;
    for (const auto* scenario : scenarios) {
      series.locks.push_back(std::string(name) + "@" +
                             std::string(scenario->name));
    }
  }
  for (const std::uint32_t t : figure_thread_sweep(args.max_threads)) {
    series.threads.push_back(t);
    std::vector<std::optional<double>> row;
    for (const auto& [name, kv] : backends) {
      (void)name;
      for (const auto* scenario : scenarios) {
        row.push_back(guarded_value(cfg.lock_name, t, [&] {
          return traffic_median(*kv, *scenario, t, args, cfg);
        }));
      }
    }
    series.values.push_back(std::move(row));
  }
  // The per-lock counters the sweep accumulated ride along in the
  // trajectory file ("telemetry" block, schema hemlock-telemetry-v1);
  // bench_compare.py reads only "series" and ignores it.
  render_series("minikv_traffic", "mops_per_sec", args, series,
                telemetry::to_json(telemetry::collect()));

  const auto st = sharded.stats();
  std::cout << "\n(Y values: millions of client operations per second; a "
               "scan counts as one request.)\n"
            << "(sharded backend: " << st.epoch_gets << " epoch gets, "
            << st.epoch_gets - st.table_gets << " answered by the memtable, "
            << st.table_gets << " by tables; block cache "
            << sharded.cache_hits() << " hits, " << sharded.cache_misses()
            << " misses; " << st.flushes << " flushes, " << st.compactions
            << " compactions; reclamation: " << st.reclaim.freed
            << " freed, " << st.reclaim.pending << " pending, "
            << st.reclaim.advance_blocked << " blocked advances)\n";
  return 0;
}
