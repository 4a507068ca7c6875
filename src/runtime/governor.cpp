#include "runtime/governor.hpp"

#include <cstdlib>
#include <cstring>

#include "stats/telemetry.hpp"

#if defined(__linux__) || defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace hemlock {

namespace {

/// nproc without touching topology() — that path allocates a
/// std::string for the model name, and the governor must stay usable
/// from inside the interposition shim's first lock acquisition, where
/// a malloc (whose allocator may guard state with an interposed
/// pthread mutex) could re-enter the shim.
std::uint32_t detect_cpus() noexcept {
#if defined(_SC_NPROCESSORS_ONLN)
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n > 0) return static_cast<std::uint32_t>(n);
#endif
  return 1;
}

}  // namespace

bool parse_wait_tier(const char* s, WaitTier* out) noexcept {
  if (s == nullptr || out == nullptr) return false;
  for (const WaitTier t :
       {WaitTier::kSpin, WaitTier::kYield, WaitTier::kPark}) {
    if (std::strcmp(s, wait_tier_name(t)) == 0) {
      *out = t;
      return true;
    }
  }
  return false;
}

ContentionGovernor::ContentionGovernor() noexcept : cpus_(detect_cpus()) {
  // HEMLOCK_WAIT pins the tier for governed waiters even outside the
  // shim (benches, embedders). The shim additionally re-selects the
  // lock *variant* from the same variable; both act in the same
  // direction. Unknown values mean "auto" — the shim reports them.
  WaitTier t;
  if (parse_wait_tier(std::getenv("HEMLOCK_WAIT"), &t)) force(t);
}

ContentionGovernor& ContentionGovernor::instance() noexcept {
  static ContentionGovernor governor;
  return governor;
}

ContentionGovernor::ParkTotals ContentionGovernor::diag() const {
  const telemetry::GovernorTelemetry g = telemetry::collect().governor;
  return {{g.escalations}, {g.park_sleeps}};
}

}  // namespace hemlock
