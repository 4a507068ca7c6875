// telemetry_codegen_probe.cpp — TU compiled to assembly (never
// linked) by tools/check_telemetry_off.py to prove the telemetry
// hooks are zero-cost under -DHEMLOCK_TELEMETRY=OFF.
//
// It instantiates the hooked hot paths: AnyLock's lock/try/shared
// cycles (the inline on_lock_begin/... hooks), a named construction
// (register_handle/release_handle), and parking-tier Hemlock cycles
// (the waiting layer's HEMLOCK_TM_* statement macros and the §5.4
// LockProfiler checks in the Hemlock lock body). With
// -DHEMLOCK_TELEMETRY_DISABLED the generated assembly must contain no
// telemetry residue — no slab/attribution thread-locals, no
// out-of-line telemetry calls; without it, the residue must appear —
// proving the probe exercises hooked code and the OFF check is not
// vacuous. (The markers are mangled-name fragments, not the word
// "telemetry": the assembly's .file debug directives name
// telemetry.hpp in both configurations.)
#include "api/any_lock.hpp"
#include "core/hemlock.hpp"
#include "stats/telemetry.hpp"

namespace probe {

void any_lock_cycle(hemlock::AnyLock& l) {
  l.lock();
  l.unlock();
}

bool any_lock_try(hemlock::AnyLock& l) {
  if (l.try_lock()) {
    l.unlock();
    return true;
  }
  return false;
}

void any_lock_shared_cycle(hemlock::AnyLock& l) {
  l.lock_shared();
  l.unlock_shared();
}

hemlock::AnyLock make_named() {
  return hemlock::AnyLock("hemlock", "probe-lock");
}

void named_scope() {
  hemlock::AnyLock l("hemlock", "probe-scoped");  // dtor: release_handle
  l.lock();
  l.unlock();
}

void futex_cycle(hemlock::HemlockFutex& l) {
  l.lock();
  l.unlock();
}

void adaptive_cycle(hemlock::HemlockAdaptive& l) {
  l.lock();
  l.unlock();
}

}  // namespace probe
