// bench_oversub — quantifies the oversubscription convoy and the
// waiting-tier fix.
//
// The paper's evaluation runs on dedicated hardware (§5.1, free-range
// unbound threads but cores >= threads in the figures' left half); on
// multi-tenant hosts the preload shim routinely runs queue locks with
// far more runnable threads than CPUs, where a FIFO hand-off to a
// preempted busy-waiter costs a scheduler timeslice and throughput
// collapses by orders of magnitude (ROADMAP: minutes for 480k MCS
// hand-offs on 1 CPU). This bench sweeps threads = {1x, 4x, 16x} the
// host's logical CPUs under maximum contention and compares each
// queue lock's pure-spin baseline against its -yield / -park /
// -adaptive waiting tiers (core/waiting.hpp): the spin columns convoy
// as the multiplier grows; the park/adaptive columns stay within a
// small factor of the 1x row.
//
// Flags: --duration-ms --runs --multipliers=1,4,16 --csv --seed
//        --lock=<name>[,...] (default: mcs/clh/ticket spin vs park vs
//        adaptive, plus hemlock and its futex tier, plus pthread)
#include <cstdlib>

#include "bench_common.hpp"
#include "runtime/topology.hpp"

int main(int argc, char** argv) {
  using namespace hemlock;
  using namespace hemlock::bench;
  Options opts(argc, argv);
  // Rows come from --multipliers; the generic thread-cap flags would
  // be consumed (and ignored) by parse_figure_args, so refuse them
  // loudly like any other flag misuse.
  if (opts.has("max-threads") || opts.has("oversubscribe")) {
    std::fprintf(stderr,
                 "bench_oversub sweeps threads = k x CPUs; use "
                 "--multipliers=1,4,16 instead of --max-threads/"
                 "--oversubscribe\n");
    return 2;
  }

  FigureArgs args = parse_figure_args(opts, /*default_duration_ms=*/100);
  args.max_threads = 0;  // unused: rows come from --multipliers
  if (args.locks.empty()) {
    args.locks = {"mcs",         "mcs-yield",  "mcs-park", "mcs-adaptive",
                  "clh",         "clh-park",   "ticket",   "ticket-park",
                  "hemlock",     "hemlock-futex", "pthread"};
  }

  std::vector<std::uint32_t> multipliers;
  for (const auto& m : opts.get_string_list("multipliers")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(m.c_str(), &end, 10);
    if (end == m.c_str() || *end != '\0' || v == 0 || v > 1024) {
      std::fprintf(stderr, "bad --multipliers entry: %s\n", m.c_str());
      return 2;
    }
    multipliers.push_back(static_cast<std::uint32_t>(v));
  }
  if (opts.has("multipliers") && multipliers.empty()) {
    // Fail loudly like an empty --lock=: silently sweeping the
    // defaults would misreport what was measured.
    std::fprintf(stderr, "--multipliers requires at least one value\n");
    return 2;
  }
  if (multipliers.empty()) multipliers = {1, 4, 16};
  reject_unknown(opts);

  const std::uint32_t cpus = topology().logical_cpus;
  std::cout << "=== Oversubscription: MutexBench at threads = k x CPUs ===\n"
            << "(empty critical/non-critical sections; pure-spin queue "
               "locks convoy at scheduler speed past 1x, the yield/park/"
               "adaptive tiers do not — see core/waiting.hpp)\n"
            << host_banner() << "\n"
            << "duration=" << args.duration_ms << "ms runs=" << args.runs
            << "\n\n";

  BenchSeries series;
  for (const auto& name : args.locks) series.locks.push_back(name);

  for (const std::uint32_t mult : multipliers) {
    const std::uint32_t threads = std::max(1u, mult * cpus);
    MutexBenchConfig cfg;
    cfg.threads = threads;
    cfg.duration_ms = args.duration_ms;
    cfg.seed = args.seed;
    series.threads.push_back(threads);
    std::vector<std::optional<double>> row;
    for (const auto& name : args.locks) {
      row.push_back(named_value(name, cfg, args.runs));
    }
    series.values.push_back(std::move(row));
  }

  render_series(args, series);
  std::cout << "\n(Y values: aggregate throughput, M steps/sec. Rows are "
               "1x/4x/16x the host's " << cpus << " logical CPUs; compare "
               "each spin column's collapse against its -park sibling.)\n";
  return 0;
}
