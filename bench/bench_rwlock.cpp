// bench_rwlock — read-ratio sweep for the reader-writer family.
//
// T threads hammer one central lock; each iteration is a read with
// probability r (shared acquire, snapshot two shared words) or a
// write with probability 1-r (exclusive acquire, advance both words).
// Every algorithm runs through the type-erased shared surface
// (AnyLock::lock_shared), so exclusive-only algorithms are measured
// as the *erased exclusive baseline* — their lock_shared degrades to
// lock() — and the rwlock family's win at high read ratios is the
// direct payoff of admitting concurrent readers. This is the
// acceptance check for the rwlock subsystem: at read ratios >= 0.9
// the rwlock curves must beat the exclusive baseline once readers
// outnumber cores' worth of serialization (>= 4 threads).
//
// Flags: --duration-ms --runs --max-threads --csv --seed
//        --read-ratios=50,90,99 (percent; one table per ratio)
//        --lock=<name>[,...] (default: the rwlock tiers, the compact
//        variant, and the hemlock/pthread exclusive baselines)
#include <cstdlib>

#include "bench_common.hpp"
#include "runtime/barrier.hpp"
#include "runtime/prng.hpp"

namespace {

using namespace hemlock;
using namespace hemlock::bench;

/// One rwbench run: aggregate iterations/sec (M steps/sec) across
/// `threads` free-range threads at `read_permille` reads.
double rwbench_msteps(const std::string& lock_name, std::uint32_t threads,
                      std::int64_t duration_ms, std::uint32_t read_permille,
                      std::uint64_t seed) {
  struct Shared {
    CacheAligned<AnyLock> lock;
    CacheAligned<std::atomic<bool>> stop{false};
    // Written under the exclusive mode only; read under shared holds.
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    SpinBarrier barrier;
    Shared(const std::string& name, std::uint32_t parties)
        : lock(name), barrier(parties) {}
  };
  auto shared = std::make_unique<Shared>(lock_name, threads + 1);

  std::vector<std::uint64_t> counts(threads, 0);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      (void)self();
      Xoshiro256 prng(seed + 0x9E37 * (t + 1));
      [[maybe_unused]] volatile std::uint64_t sink = 0;
      std::uint64_t iters = 0;
      shared->barrier.arrive_and_wait();
      while (!shared->stop.value.load(std::memory_order_relaxed)) {
        if (prng.below(1000) < read_permille) {
          shared->lock.value.lock_shared();
          sink = shared->a + shared->b;
          shared->lock.value.unlock_shared();
        } else {
          shared->lock.value.lock();
          ++shared->a;
          ++shared->b;
          shared->lock.value.unlock();
        }
        ++iters;
      }
      counts[t] = iters;
      shared->barrier.arrive_and_wait();
    });
  }

  shared->barrier.arrive_and_wait();
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  shared->stop.value.store(true, std::memory_order_relaxed);
  shared->barrier.arrive_and_wait();
  const std::int64_t elapsed = timer.elapsed_ns();
  for (auto& w : workers) w.join();

  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  return ops_per_sec(total, elapsed) / 1e6;
}

/// Median of `runs` runs (the figure benches' protocol).
std::optional<double> rwbench_median(const std::string& lock_name,
                                     std::uint32_t threads,
                                     const FigureArgs& args,
                                     std::uint32_t read_permille) {
  return guarded_value(lock_name, threads, [&] {
    std::vector<double> vals;
    vals.reserve(static_cast<std::size_t>(args.runs));
    for (int r = 0; r < args.runs; ++r) {
      vals.push_back(rwbench_msteps(lock_name, threads, args.duration_ms,
                                    read_permille,
                                    args.seed + static_cast<std::uint64_t>(r)));
    }
    std::sort(vals.begin(), vals.end());
    return vals[vals.size() / 2];
  });
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  FigureArgs args = parse_figure_args(opts, /*default_duration_ms=*/100);

  std::vector<std::uint32_t> ratios_pct;
  for (const auto& r : opts.get_string_list("read-ratios")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(r.c_str(), &end, 10);
    if (end == r.c_str() || *end != '\0' || v > 100) {
      std::fprintf(stderr, "bad --read-ratios entry (want 0..100): %s\n",
                   r.c_str());
      return 2;
    }
    ratios_pct.push_back(static_cast<std::uint32_t>(v));
  }
  if (opts.has("read-ratios") && ratios_pct.empty()) {
    std::fprintf(stderr, "--read-ratios requires at least one value\n");
    return 2;
  }
  if (ratios_pct.empty()) ratios_pct = {50, 90, 99};
  reject_unknown(opts);

  if (args.locks.empty()) {
    args.locks = {"rwlock",         "rwlock-park", "rwlock-adaptive",
                  "rwlock-compact", "hemlock",     "pthread"};
  }

  std::cout << "=== RwBench: central lock, read-ratio sweep ===\n"
            << "(reads take the shared mode; exclusive-only algorithms are "
               "the erased baseline — their lock_shared degrades to "
               "lock())\n"
            << host_banner() << "\n"
            << "duration=" << args.duration_ms << "ms runs=" << args.runs
            << "\n\n";

  // One table per read ratio.
  const auto sweep = figure_thread_sweep(args.max_threads);
  for (const std::uint32_t pct : ratios_pct) {
    Table table([&] {
      std::vector<std::string> headers{"threads"};
      for (const auto& name : args.locks) headers.push_back(name);
      return headers;
    }());
    for (const std::uint32_t t : sweep) {
      std::vector<std::string> cells{std::to_string(t)};
      for (const auto& name : args.locks) {
        cells.push_back(value_cell(rwbench_median(name, t, args, pct * 10)));
      }
      table.add_row(std::move(cells));
    }
    std::cout << "--- read ratio " << pct << "% ---\n";
    if (args.csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
    std::cout << "\n";
  }

  std::cout << "(Y values: aggregate lock+unlock iterations, M steps/sec; "
               "compare the rwlock columns against the hemlock/pthread "
               "exclusive baselines as the read ratio grows.)\n";
  return 0;
}
