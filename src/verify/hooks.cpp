// hooks.cpp — the verifier's only footprint inside hemlock_core.
//
// Kept deliberately tiny and self-contained: this TU is compiled into
// the core library under -DHEMLOCK_VERIFY so that every binary
// linking the instrumented headers resolves the thread-local without
// dragging the harness (src/verify/harness.cpp, which only
// verify_runner links) into test and bench executables.
#include "core/verify_hooks.hpp"

#if !defined(HEMLOCK_VERIFY)
#error "hooks.cpp must only be compiled with -DHEMLOCK_VERIFY=ON"
#endif

namespace hemlock::verify {

namespace detail {
thread_local ThreadHook* tl_hook = nullptr;
const char* g_mutant = nullptr;
}  // namespace detail

void set_thread_hook(ThreadHook* hook) noexcept { detail::tl_hook = hook; }

}  // namespace hemlock::verify
