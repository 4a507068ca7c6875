// bench_any_lock_overhead — measures the type-erasure tax.
//
// AnyLock promises "one indirect call of overhead" on the uncontended
// path (api/any_lock.hpp). This bench measures it instead of assuming
// it: for every algorithm in the factory roster it times uncontended
// acquire/release pairs (the §5.1 T=1 latency regime) through the
// direct template — the compiler sees the concrete type, can inline
// everything — through AnyLock's static-vtable dispatch, and through
// AnyLock with a *named telemetry handle* (stats/telemetry.hpp), so
// the telemetry hooks' uncontended cost is a measured number, not a
// claim. Expected: a few ns of erasure tax, flat across algorithms,
// and a telemetry tax within noise (the hooks are two thread-local
// relaxed increments plus a 1-in-64 sampled clock pair).
//
// Flags: --iters (pairs per measurement, default 2000000)
//        --runs  (median-of-N, default 3)  --csv
#include <cstdint>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "runtime/timing.hpp"
#include "stats/telemetry.hpp"

namespace {

using namespace hemlock;

/// ns per uncontended lock()+unlock() pair over `iters` pairs.
template <typename L, typename... Args>
double direct_pair_ns(std::uint64_t iters, const Args&... args) {
  CacheAligned<L> lock(args...);
  Timer timer;
  for (std::uint64_t i = 0; i < iters; ++i) {
    lock.value.lock();
    lock.value.unlock();
  }
  return static_cast<double>(timer.elapsed_ns()) /
         static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const auto iters =
      static_cast<std::uint64_t>(opts.get_int("iters", 2'000'000));
  const int runs = static_cast<int>(opts.get_int("runs", 3));
  const bool csv = opts.has("csv");
  bench::reject_unknown(opts);

  std::cout << "=== AnyLock type-erasure tax: uncontended acquire/release "
               "===\n"
            << host_banner() << "\n"
            << "iters=" << iters << " runs=" << runs
            << " (median); single thread — the §5.1 T=1 latency regime\n\n";

  Table table({"lock", "direct ns/pair", "anylock ns/pair", "erasure ns",
               "telemetry ns/pair", "tm tax ns"});

  for_each_lock_type<AllLockTags>([&](auto tag) {
    using L = typename decltype(tag)::type;
    const char* name = lock_traits<L>::name;

    Summary direct;
    for (int r = 0; r < runs; ++r) direct.add(direct_pair_ns<L>(iters));

    Summary erased;
    const LockVTable* vt = find_lock(name);
    for (int r = 0; r < runs; ++r) {
      erased.add(direct_pair_ns<AnyLock>(iters, *vt));
    }

    // Same dispatch, plus the telemetry hooks behind a named handle
    // (one shared name: the probe releases it between measurements,
    // so the 32-slot handle table never fills across the roster).
    Summary telem;
    for (int r = 0; r < runs; ++r) {
      telem.add(direct_pair_ns<AnyLock>(iters, *vt,
                                        std::string_view("overhead-probe")));
    }

    const double d = direct.median();
    const double e = erased.median();
    const double t = telem.median();
    table.add_row({name, Table::fmt(d, 2), Table::fmt(e, 2),
                   Table::fmt(e - d, 2), Table::fmt(t, 2),
                   Table::fmt(t - e, 2)});
  });

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\n(direct = concrete template, fully inlinable; anylock = "
               "static-vtable dispatch; telemetry = anylock with a named "
               "per-lock metrics handle. The erasure tax buys runtime "
               "algorithm selection; the telemetry tax buys the per-lock "
               "counters of docs/OBSERVABILITY.md.)\n";
  return 0;
}
