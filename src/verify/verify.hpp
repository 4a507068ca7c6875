// verify.hpp — scenario-facing API of the interleaving verifier.
//
// A verify *scenario* is the progress64 ver_hemlock.c triple adapted
// to this codebase: init() builds the lock under test in static
// storage, exec(id) is the body each logical thread runs (lock /
// assert-exclusive / yield-inside-CS / unlock, a couple of times),
// fini() asserts quiescence after every thread finished. The harness
// (harness.hpp) then drives every bounded-depth interleaving of the
// HEMLOCK_VERIFY_YIELD() points the exec bodies pass through.
//
// Invariants are written with VERIFY_ASSERT. On violation the harness
// prints the scenario name, the failed expression, the consumed
// schedule prefix (the exact --replay argument that reproduces the
// run) and the tail of the step trace, then exits the process — lock
// methods are noexcept, so unwinding out of them is not an option.
//
// Everything here only exists under -DHEMLOCK_VERIFY; nothing in this
// directory is compiled into normal builds except hooks.cpp's
// thread-local (and that, too, only under the option).
#pragma once

#if !defined(HEMLOCK_VERIFY)
#error "src/verify/ is only built with -DHEMLOCK_VERIFY=ON"
#endif

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/verify_hooks.hpp"

namespace hemlock::verify {

/// One scheduling step of the trace: which logical thread ran, and
/// the yield tag it ran up to. Tags are string literals (never
/// dynamically built), so the pointer is stable for the process.
struct Step {
  std::uint32_t thread;
  const char* tag;
};

/// Hard cap on Scenario::threads: the harness collects runnable ids
/// into fixed-size stacks of this many slots. Engine's constructor
/// rejects larger scenarios loudly instead of overflowing them.
inline constexpr std::uint32_t kMaxScenarioThreads = 8;

/// A verify scenario, ver_funcs-table style.
struct Scenario {
  const char* name;     ///< --algo=<name>
  const char* summary;  ///< one line for --list
  std::uint32_t threads;  ///< logical threads (2, or 3 for reader overlap)
  void (*init)();       ///< build the lock under test (scheduler thread)
  void (*exec)(std::uint32_t id);  ///< per-logical-thread body
  void (*fini)();       ///< per-schedule quiescence checks + teardown
  /// Optional: runs once after the *whole* enumeration — for coverage
  /// assertions that no single schedule can establish (e.g. "some
  /// schedule overlapped two readers"). Null when unused.
  void (*post_all)();
  /// The broken-toy-lock regression proof: the harness expects a
  /// VERIFY_ASSERT violation and inverts the exit code.
  bool expect_fail;
  /// The HEMLOCK_VERIFY_MUTANT the row plants in the code under test
  /// (core/verify_hooks.hpp), or nullptr. A mutant row is expect_fail.
  const char* mutant = nullptr;
};

/// The scenario table (scenarios.cpp).
extern const Scenario kScenarios[];
extern const std::size_t kNumScenarios;

/// Report an invariant violation and exit the process (exit 0 when
/// the running scenario is expect_fail, 1 otherwise). Callable from
/// any scenario thread; the caller holds the scheduler token, so the
/// trace it prints is consistent.
[[noreturn]] void fail(const char* expr, const char* file, int line);

/// The current schedule's step trace (valid during exec/fini; the
/// scheduler token serializes access). Scenario post-checks walk this
/// to assert ordering properties — e.g. FIFO admission — that no
/// single-threaded assertion can see.
const std::vector<Step>& current_trace();

}  // namespace hemlock::verify

/// Scenario invariant check. Unlike assert(), active in every build
/// of the verifier and reported with the replayable schedule.
#define VERIFY_ASSERT(cond)                                      \
  do {                                                           \
    if (!(cond)) ::hemlock::verify::fail(#cond, __FILE__, __LINE__); \
  } while (0)
