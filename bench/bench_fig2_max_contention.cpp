// bench_fig2_max_contention — reproduces Figure 2 (and, with
// --oversubscribe, the same workload as Figures 4 and 6, which repeat
// it on 512-CPU SPARC and 256-CPU AMD hosts; see DESIGN.md's
// substitution table).
//
// Paper §5.1: "we report the median of 7 independent runs ... where
// the critical section is empty as well as the non-critical section,
// subjecting the lock to extreme contention. (At just one thread,
// this configuration also constitutes a useful benchmark for
// uncontended latency)."
//
// Expected shape (paper's observations): Ticket fastest at 1 thread;
// Ticket fades precipitously with threads; Hemlock slightly better
// than or equal to CLH/MCS; Hemlock (CTR) above Hemlock-.
//
// Flags: --duration-ms --runs --max-threads --oversubscribe --csv --seed
#include "bench_common.hpp"

int main(int argc, char** argv) {
  hemlock::Options opts(argc, argv);
  const auto args = hemlock::bench::parse_figure_args(opts);
  hemlock::bench::reject_unknown(opts);
  hemlock::bench::run_figure_bench(
      "=== Figure 2: MutexBench, maximum contention ===",
      "(empty critical and non-critical sections; Figures 4/6 = same "
      "workload on SPARC/AMD — use --oversubscribe for thread counts "
      "past the CPU count)",
      /*cs_steps=*/0, /*ncs_steps=*/0, args);
  return 0;
}
