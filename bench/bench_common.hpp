// bench_common.hpp — shared scaffolding for the figure benches.
//
// Every figure bench prints the same series the paper plots: one row
// per thread count, one column per lock algorithm, values in M
// steps/sec (median of --runs runs). Durations default short so the
// whole bench suite completes in minutes; pass --duration-ms=10000
// --runs=7 to reproduce the paper's exact protocol.
#pragma once

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "api/factory.hpp"
#include "core/lock_registry.hpp"
#include "harness/mutexbench.hpp"
#include "harness/options.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"

namespace hemlock::bench {

/// Shared CLI knobs for figure benches.
struct FigureArgs {
  std::int64_t duration_ms;
  int runs;
  std::uint32_t max_threads;
  bool csv;
  std::uint64_t seed;
  /// --lock=<name>[,<name>...]: run these factory algorithms through
  /// the runtime AnyLock path instead of the default compile-time
  /// figure roster. Empty = paper-fidelity templated sweep.
  std::vector<std::string> locks;
};

/// A figure sweep: one row per thread count, one column per lock;
/// absent cells (e.g. Anderson past its waiting-array capacity) are
/// nullopt and render as "-".
struct BenchSeries {
  std::vector<std::string> locks;      ///< column names
  std::vector<std::uint32_t> threads;  ///< row keys
  std::vector<std::vector<std::optional<double>>> values;  ///< [row][col]
};

/// Validate --lock names against the factory; exits (listing the
/// roster) on unknown names so typos fail loudly like other flags.
inline void validate_lock_names(const std::vector<std::string>& locks) {
  const auto& factory = LockFactory::instance();
  bool ok = true;
  for (const auto& name : locks) {
    if (factory.find(name) == nullptr) {
      std::fprintf(stderr, "unknown lock algorithm: %s\n", name.c_str());
      ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "available algorithms:");
    for (const auto name : factory.names()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(name.size()),
                   name.data());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
}

/// Parse the common options; exits on unknown flags.
inline FigureArgs parse_figure_args(const Options& opts,
                                    int default_duration_ms = 200) {
  FigureArgs a;
  a.duration_ms = opts.get_int("duration-ms", default_duration_ms);
  a.runs = static_cast<int>(opts.get_int("runs", 1));
  const bool oversubscribe = opts.has("oversubscribe");
  a.max_threads = static_cast<std::uint32_t>(opts.get_int(
      "max-threads", default_max_threads(oversubscribe)));
  a.csv = opts.has("csv");
  a.seed = static_cast<std::uint64_t>(opts.get_int("seed", 0x5EED));
  a.locks = opts.get_string_list("lock");
  if (opts.has("lock") && a.locks.empty()) {
    // Fail loudly, like unknown names: a bare/empty --lock= silently
    // running the default roster would misreport what was measured.
    std::fprintf(stderr, "--lock requires at least one algorithm name\n");
    std::exit(2);
  }
  validate_lock_names(a.locks);
  return a;
}

/// Table headers for a figure sweep: "threads" plus either the
/// compile-time figure roster or the --lock names. The single source
/// for the default-vs-named column logic across the figure benches.
inline std::vector<std::string> figure_lock_headers(const FigureArgs& args) {
  std::vector<std::string> headers{"threads"};
  if (args.locks.empty()) {
    for_each_lock_type<PaperFigureLockTags>([&](auto tag) {
      using L = typename decltype(tag)::type;
      headers.emplace_back(lock_traits<L>::name);
    });
  } else {
    for (const auto& name : args.locks) headers.push_back(name);
  }
  return headers;
}

/// True when a factory-named algorithm can run at this thread count
/// (Anderson's waiting array bounds it; everything else is
/// unbounded). The capacity rule lives here, once, for every
/// named-sweep bench.
inline bool fits_thread_capacity(const std::string& name,
                                 std::uint32_t threads) {
  const LockInfo* info = LockFactory::instance().info(name);
  return info->max_threads == 0 || threads <= info->max_threads;
}

/// One measurement for a factory-named algorithm: nullopt when the
/// algorithm cannot run at this thread count, else the value from
/// `measure`.
template <typename MeasureFn>
std::optional<double> guarded_value(const std::string& name,
                                    std::uint32_t threads,
                                    MeasureFn&& measure) {
  if (!fits_thread_capacity(name, threads)) return std::nullopt;
  return measure();
}

/// The table rendering of a guarded measurement ("-" for absent).
inline std::string value_cell(const std::optional<double>& v) {
  return v.has_value() ? Table::fmt(*v) : "-";
}

/// String-cell compatibility wrapper over the same capacity rule.
template <typename MeasureFn>
std::string guarded_cell(const std::string& name, std::uint32_t threads,
                         MeasureFn&& measure) {
  if (!fits_thread_capacity(name, threads)) return "-";
  return measure();
}

/// MutexBench throughput for a factory-named algorithm.
inline std::optional<double> named_value(const std::string& name,
                                         const MutexBenchConfig& cfg,
                                         int runs) {
  return guarded_value(name, cfg.threads, [&] {
    return mutexbench_median_named(name, cfg, runs);
  });
}

/// Reject unrecognized flags loudly.
inline void reject_unknown(const Options& opts) {
  const auto unknown = opts.unconsumed();
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown option(s):");
    for (const auto& u : unknown) std::fprintf(stderr, " --%s", u.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
}

/// Render a collected sweep as an aligned table (or CSV).
inline void render_series(const FigureArgs& args, const BenchSeries& series) {
  Table table([&] {
    std::vector<std::string> headers{"threads"};
    headers.insert(headers.end(), series.locks.begin(), series.locks.end());
    return headers;
  }());
  for (std::size_t r = 0; r < series.threads.size(); ++r) {
    std::vector<std::string> row{std::to_string(series.threads[r])};
    for (const auto& v : series.values[r]) row.push_back(value_cell(v));
    table.add_row(std::move(row));
  }
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// Run a MutexBench sweep and print the table. `cs_steps`/`ncs_steps`
/// select the contention regime (Figure 2: 0/0; Figure 3: 5/400).
/// Default: the paper's five figure algorithms via the templated
/// (zero-dispatch) path. With --lock=<names>: the named factory
/// algorithms via the runtime AnyLock path — any roster member,
/// chosen at run time, exactly like the paper's LD_PRELOAD protocol.
inline void run_figure_bench(const char* title, const char* note,
                             std::uint32_t cs_steps, std::uint32_t ncs_steps,
                             const FigureArgs& args) {
  std::cout << title << "\n" << note << "\n" << host_banner() << "\n"
            << "duration=" << args.duration_ms << "ms runs=" << args.runs
            << " (paper: 10s, median of 7)\n\n";

  BenchSeries series;
  const auto headers = figure_lock_headers(args);
  series.locks.assign(headers.begin() + 1, headers.end());

  for (const std::uint32_t t : figure_thread_sweep(args.max_threads)) {
    MutexBenchConfig cfg;
    cfg.threads = t;
    cfg.duration_ms = args.duration_ms;
    cfg.cs_shared_prng_steps = cs_steps;
    cfg.ncs_max_prng_steps = ncs_steps;
    cfg.seed = args.seed;
    series.threads.push_back(t);
    std::vector<std::optional<double>> row;
    if (args.locks.empty()) {
      for_each_lock_type<PaperFigureLockTags>([&](auto tag) {
        using L = typename decltype(tag)::type;
        row.emplace_back(mutexbench_median<L>(cfg, args.runs));
      });
    } else {
      for (const auto& name : args.locks) {
        row.push_back(named_value(name, cfg, args.runs));
      }
    }
    series.values.push_back(std::move(row));
  }

  render_series(args, series);
  std::cout << "\n(Y values: aggregate throughput, M steps/sec — the "
               "paper's figure axis.)\n";
}

}  // namespace hemlock::bench
