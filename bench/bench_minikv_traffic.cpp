// bench_minikv_traffic — mixed-traffic serving comparison: central-
// mutex DB vs the sharded epoch-read serving layer.
//
// Where Figure 8 shows the central-lock collapse on uniform
// readrandom, this bench sweeps the four serving scenarios
// (minikv/traffic.hpp: read-heavy, scan-heavy, hot-key, write-burst)
// across two backends built on the SAME storage engine:
//
//   central@<scenario>  DB<AnyLock>: one central mutex
//   sharded@<scenario>  ShardedDB: per-shard locks, Get()/Scan()
//                       lock-free under epoch reclamation
//
// The shard/central lock algorithm is runtime-chosen (--lock=<name>,
// default hemlock).
//
// Flags: --duration-ms --runs --max-threads --oversubscribe --csv
//        --seed --lock=<name> --keys --shards --batch
//        --scenario=<name>[,...]
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/any_lock.hpp"
#include "bench_common.hpp"
#include "minikv/db.hpp"
#include "minikv/db_bench.hpp"
#include "minikv/sharded_db.hpp"
#include "minikv/traffic.hpp"

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
  // backend carries a telemetry name — the sharded backend shares one
  // handle across its shard locks, so the per-lock table reports one
  // row per backend, not one per shard.
  minikv::DB<AnyLock> central(minikv::DbOptions{},
                              std::string_view(cfg.lock_name),
                              std::string_view("minikv:central"));
  minikv::ShardedDbOptions sharded_opts;
  sharded_opts.num_shards = cfg.shards;
  minikv::ShardedDB<> sharded(sharded_opts, std::string_view(cfg.lock_name),
                              std::string_view("minikv:sharded"));

  minikv::CentralBackend<AnyLock> central_kv(central);
  minikv::ShardedBackend<> sharded_kv(sharded);
  const std::pair<const char*, minikv::KvBackend*> backends[] = {
      {"central", &central_kv},
      {"sharded", &sharded_kv},
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
  render_series(args, series);

  const auto st = sharded.stats();
  std::cout << "\n(Y values: millions of client operations per second; a "
               "scan counts as one request.)\n"
            << "(sharded backend: " << st.epoch_gets << " epoch gets, "
            << st.epoch_gets - st.table_gets << " answered by the memtable, "
            << st.table_gets << " by tables, " << st.promotions
            << " rows promoted; " << st.recycled
            << " writes reused a dead memtable entry; block cache "
            << sharded.cache_hits() << " hits, " << sharded.cache_misses()
            << " misses; "
            << st.flushes << " flushes, " << st.compactions
            << " compactions; reclamation: " << st.reclaim.freed
            << " freed, " << st.reclaim.pending << " pending, "
            << st.reclaim.advance_blocked << " blocked advances)\n";
  return 0;
}
