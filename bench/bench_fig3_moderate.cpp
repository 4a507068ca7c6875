// bench_fig3_moderate — reproduces Figure 3 (and the Figures 5/7
// SPARC/AMD repeats; DESIGN.md substitution table).
//
// Paper §5.1: "we configure the benchmark so the non-critical section
// generates a uniformly distributed random value in [0-400) and steps
// a thread-local C++ std::mt19937 random number generator (PRNG) that
// many steps, admitting potential positive scalability. The critical
// section advances a shared random number generator 5 steps."
//
// Expected shape: Ticket does well at low thread counts, then fades;
// Hemlock outperforms both MCS and CLH.
//
// Flags: --duration-ms --runs --max-threads --oversubscribe --csv --seed
#include "bench_common.hpp"

int main(int argc, char** argv) {
  hemlock::Options opts(argc, argv);
  const auto args = hemlock::bench::parse_figure_args(opts);
  hemlock::bench::reject_unknown(opts);
  hemlock::bench::run_figure_bench(
      "=== Figure 3: MutexBench, moderate contention ===",
      "(CS: 5 steps of a shared std::mt19937; NCS: uniform [0,400) "
      "steps of a thread-local std::mt19937; Figures 5/7 = same "
      "workload on SPARC/AMD — use --oversubscribe)",
      /*cs_steps=*/5, /*ncs_steps=*/400, args);
  return 0;
}
