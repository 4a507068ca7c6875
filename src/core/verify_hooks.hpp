// verify_hooks.hpp — the zero-cost-when-disabled yield markers the
// interleaving verifier (src/verify/) schedules through.
//
// The stress suites hope the OS scheduler lands a thread inside a
// handoff window; the verifier *enumerates* the landings instead
// (progress64's verify.txt / ver_hemlock.c model). Lock code marks
// its interesting windows — doorstep-to-wait gaps, publish-to-drain
// gaps, the rwlock gate-close/drain walk, every busy-wait loop body —
// with HEMLOCK_VERIFY_YIELD("family:window"). During a verify run each
// marker is a scheduling point: the calling logical thread parks and
// the harness decides who runs next, so every bounded-depth
// interleaving of the marked windows is driven exactly once.
//
// Cost model, by build:
//  * Normal builds (no -DHEMLOCK_VERIFY): the macro expands to
//    ((void)0). No call, no branch, no symbol — codegen is identical
//    to an uninstrumented tree (tools/check_verify_off.py is the
//    ctest'd tripwire for exactly this claim).
//  * Verify builds (-DHEMLOCK_VERIFY): one thread-local pointer load
//    per marker outside a scenario; inside a scenario, a full
//    cooperative context hand-off to the harness scheduler.
//
// Planted mutants. A check whose removal a scenario must catch is
// written `check || HEMLOCK_VERIFY_MUTANT("family:name")`: a scenario
// row naming that mutant (Scenario::mutant) runs the code as if the
// check always passed and expects a violation, as the `broken` toy
// lock does for the harness itself. Normal builds expand the macro to
// `false`, so the check is all that is compiled.
//
// This header is deliberately dependency-free: it is included by the
// hottest lock headers (core/waiting.hpp, core/hemlock.hpp,
// locks/rwlock.hpp, runtime/futex.hpp) and must never pull harness
// machinery into them. The harness side lives in src/verify/.
#pragma once

#if defined(HEMLOCK_VERIFY)

#include <cstdint>

namespace hemlock::verify {

/// Per-scenario-thread hook installed by the harness (src/verify/
/// harness.cpp) for the duration of an enumeration. Lock code never
/// touches this directly — only through yield_point() below.
struct ThreadHook {
  /// Hand control to the harness scheduler: record that logical
  /// thread `id` ran up to `tag`, park, and return when rescheduled.
  void (*yield)(void* engine, std::uint32_t id, const char* tag);
  void* engine;      ///< the harness engine driving this enumeration
  std::uint32_t id;  ///< this OS thread's logical scenario id
};

namespace detail {
/// Non-null exactly while the calling OS thread is a scenario
/// participant of an active verify run. Defined in src/verify/
/// hooks.cpp (compiled into hemlock_core only under HEMLOCK_VERIFY).
extern thread_local ThreadHook* tl_hook;
/// The planted mutant of the running scenario row, or nullptr. Set by
/// the harness before its workers start and cleared after they stop.
extern const char* g_mutant;
}  // namespace detail

/// True when the calling thread is a logical thread of an active
/// verify scenario. runtime/futex.hpp consults this to turn kernel
/// sleeps into scheduler yields (a real futex_wait would block the
/// whole single-OS-thread-at-a-time harness).
inline bool in_scenario() noexcept { return detail::tl_hook != nullptr; }

/// A schedule point. Outside a scenario: one thread-local load and
/// done. Inside: parks the caller and lets the harness pick the next
/// logical thread per the schedule being enumerated.
inline void yield_point(const char* tag) noexcept {
  ThreadHook* h = detail::tl_hook;
  if (h != nullptr) h->yield(h->engine, h->id, tag);
}

/// Whether the running scenario plants the mutant `name`.
inline bool mutant(const char* name) noexcept {
  const char* m = detail::g_mutant;
  if (m == nullptr) return false;
  while (*m != '\0' && *m == *name) {
    ++m;
    ++name;
  }
  return *m == *name;
}

/// Install/clear the calling thread's hook (harness internals only).
void set_thread_hook(ThreadHook* hook) noexcept;

}  // namespace hemlock::verify

#define HEMLOCK_VERIFY_YIELD(tag) ::hemlock::verify::yield_point(tag)
#define HEMLOCK_VERIFY_MUTANT(name) ::hemlock::verify::mutant(name)

#else  // !HEMLOCK_VERIFY

// Normal builds: the marker vanishes. Keep this expansion exactly
// ((void)0) — tools/check_verify_off.py asserts no verifier residue
// survives preprocessing or codegen in uninstrumented builds.
#define HEMLOCK_VERIFY_YIELD(tag) ((void)0)
// No mutant is ever planted: the guarded check is unconditional.
#define HEMLOCK_VERIFY_MUTANT(name) false

#endif  // HEMLOCK_VERIFY
