// striped_counters.hpp — exact event counters, striped by thread.
//
// A counter that every client bumps on its fast path must not be one
// shared word: each bump would pull the line across cores. These
// counters keep kStripes cache-aligned stripes of N counters each, and
// a thread bumps the stripe its registry id picks (self().id %
// kStripes). While no two live threads pick the same stripe, a bump is
// a read-modify-write on a line only the bumping thread writes. The
// bumps are atomic, so two threads sharing a stripe still count
// exactly, and sum() is exact once the bumping threads quiesce.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "runtime/cacheline.hpp"
#include "runtime/thread_rec.hpp"

namespace hemlock {

/// N exact monotone counters, indexed 0..N-1, bumped from any thread.
template <std::size_t N>
class StripedCounters {
 public:
  /// Add `n` to counter `i` on the calling thread's stripe.
  void add(std::size_t i, std::uint64_t n = 1) noexcept {
    // mo: relaxed — statistics; the counters order nothing.
    stripes_[self().id % kStripes].counts[i].fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Counter `i` summed over every stripe.
  std::uint64_t sum(std::size_t i) const noexcept {
    std::uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      // mo: relaxed — monotone statistics; exact once bumpers quiesce.
      total += s.counts[i].load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr std::size_t kStripes = 64;

  struct alignas(kCacheLineSize) Stripe {
    std::array<std::atomic<std::uint64_t>, N> counts{};
  };

  std::array<Stripe, kStripes> stripes_;
};

}  // namespace hemlock
