// bench_fig8_kv_readrandom — reproduces Figure 8 on MiniKV (the
// LevelDB 1.20 substitute; DESIGN.md substitution table).
//
// Paper §5.4 protocol: populate with fillseq, then run readrandom
// with T threads for a fixed duration and report aggregate Mops/sec
// (median of 5 runs). "LevelDB uses coarse-grained locking,
// protecting the database with a single central mutex ... Ticket
// Locks exhibit a slight advantage over MCS, CLH and Hemlock at low
// thread counts after which Ticket Locks fade."
//
// --profile additionally reproduces the §5.4 instrumented-Hemlock
// characterization (locks held, nested acquires, Grant multi-waiting)
// on the Hemlock run.
//
// Flags: --duration-ms --runs --max-threads --oversubscribe --csv
//        --json=<path> --keys --profile --lock=<name>[,...] (factory
//        algorithms as the central mutex, via the runtime AnyLock path)
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>

#include "api/any_lock.hpp"
#include "bench_common.hpp"
#include "minikv/db.hpp"
#include "minikv/db_bench.hpp"
#include "runtime/thread_rec.hpp"
#include "stats/telemetry.hpp"

namespace {

using namespace hemlock;
using namespace hemlock::bench;

std::uint64_t g_fill_keys = 200000;

template <typename L>
double kv_median(std::uint32_t threads, std::int64_t duration_ms,
                 std::uint64_t keys, int runs) {
  // A fresh DB per algorithm, populated once (the paper populates the
  // on-disk DB once and reuses it; our tables are immutable after
  // fillseq, so per-algorithm reuse across thread counts is sound).
  // One full-key sweep warms the block cache: the paper's 50-second
  // windows amortize cold misses that our short windows cannot.
  static minikv::DB<L>* db = [] {
    auto* d = new minikv::DB<L>();
    minikv::fill_seq(*d, g_fill_keys, 100);
    std::string v;
    for (std::uint64_t k = 0; k < g_fill_keys; ++k) {
      (void)d->get(minikv::bench_key(k), &v);
    }
    return d;
  }();
  minikv::ReadRandomConfig cfg;
  cfg.threads = threads;
  cfg.duration_ms = duration_ms;
  cfg.num_keys = keys;
  Summary s;
  for (int r = 0; r < runs; ++r) {
    s.add(minikv::run_readrandom(*db, cfg).mops_per_sec());
  }
  return s.median();
}

/// --lock path: same protocol with a factory-named central mutex
/// (one warmed DB<AnyLock> per algorithm, reused across the sweep).
double kv_median_named(const std::string& lock_name, std::uint32_t threads,
                       std::int64_t duration_ms, std::uint64_t keys,
                       int runs) {
  static std::map<std::string, std::unique_ptr<minikv::DB<AnyLock>>> dbs;
  auto it = dbs.find(lock_name);
  if (it == dbs.end()) {
    auto db = std::make_unique<minikv::DB<AnyLock>>(minikv::DbOptions{},
                                                    lock_name);
    minikv::fill_seq(*db, g_fill_keys, 100);
    std::string v;
    for (std::uint64_t k = 0; k < g_fill_keys; ++k) {
      (void)db->get(minikv::bench_key(k), &v);
    }
    it = dbs.emplace(lock_name, std::move(db)).first;
  }
  minikv::ReadRandomConfig cfg;
  cfg.threads = threads;
  cfg.duration_ms = duration_ms;
  cfg.num_keys = keys;
  Summary s;
  for (int r = 0; r < runs; ++r) {
    s.add(minikv::run_readrandom(*it->second, cfg).mops_per_sec());
  }
  return s.median();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const auto args = parse_figure_args(opts);
  const auto keys =
      static_cast<std::uint64_t>(opts.get_int("keys", 200000));
  g_fill_keys = keys;
  const bool profile = opts.has("profile");
  reject_unknown(opts);

  std::cout << "=== Figure 8: KV-store readrandom (MiniKV standing in for "
               "LevelDB 1.20) ===\n"
            << "(fillseq-populated, " << keys
            << " keys; coarse-grained central DB mutex; paper: 50s runs, "
               "median of 5)\n"
            << host_banner() << "\n"
            << "duration=" << args.duration_ms << "ms runs=" << args.runs
            << "\n\n";

  BenchSeries series;
  const auto headers = figure_lock_headers(args);
  series.locks.assign(headers.begin() + 1, headers.end());

  for (const std::uint32_t t : figure_thread_sweep(args.max_threads)) {
    series.threads.push_back(t);
    std::vector<std::optional<double>> row;
    if (args.locks.empty()) {
      for_each_lock_type<PaperFigureLockTags>([&](auto tag) {
        using L = typename decltype(tag)::type;
        row.emplace_back(kv_median<L>(t, args.duration_ms, keys, args.runs));
      });
    } else {
      for (const auto& name : args.locks) {
        row.push_back(guarded_value(name, t, [&] {
          return kv_median_named(name, t, args.duration_ms, keys, args.runs);
        }));
      }
    }
    series.values.push_back(std::move(row));
  }
  render_series("fig8", "mops_per_sec", args, series);
  std::cout << "\n(Y values: millions of reads per second — Figure 8's "
               "axis.)\n";

  if (profile) {
    // §5.4 characterization: instrumented Hemlock on the same
    // workload at the highest thread count.
    std::cout << "\n--- instrumented-Hemlock characterization (§5.4) ---\n";
    telemetry::reset();
    LockProfiler::enable(true);
    minikv::DB<Hemlock> db;
    minikv::fill_seq(db, keys, 100);
    minikv::ReadRandomConfig cfg;
    cfg.threads = args.max_threads;
    cfg.duration_ms = args.duration_ms;
    cfg.num_keys = keys;
    (void)minikv::run_readrandom(db, cfg);
    LockProfiler::enable(false);
    std::cout << telemetry::collect().profile.describe()
              << "(paper, LevelDB at 64 threads: 24 nested acquires — all "
                 "during startup —, max 2 locks held, max 1 Grant waiter "
                 "=> purely local spinning)\n";
  }
  return 0;
}
