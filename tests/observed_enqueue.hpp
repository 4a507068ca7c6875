// observed_enqueue.hpp — how the FIFO tests see that a waiter queued.
//
// Every FIFO roster lock, and HemlockSite, counts a waiting
// acquisition as contended once, after its doorstep. Unattributed
// locks count on the "(unattributed)" telemetry row, so that row's
// count rising by one shows the waiter just released has queued; only
// then may the next one start its doorstep. The order is observed, not
// arranged by sleeps.
#pragma once

#include <cstdint>

#include "stats/telemetry.hpp"

namespace hemlock {

/// The "(unattributed)" row's contended count, folded over every thread.
inline std::uint64_t unattributed_contended() {
  for (const telemetry::LockTelemetry& row : telemetry::collect().locks) {
    if (row.name == "(unattributed)") return row.contended;
  }
  return 0;
}

}  // namespace hemlock
