// cacheline.hpp — cache-line geometry and padding utilities.
//
// Every contended word in this library is "sequestered" as the sole
// occupant of a cache line (paper §2.3: "to avoid false sharing we
// opted to sequester the Grant field as the sole occupant of a cache
// line"). MCS/CLH queue nodes are padded the same way so that baseline
// comparisons are fair, matching the paper's methodology. One hint
// moves lines the other way: demote_line() pushes a released lock's
// line out to the shared cache for its next owner.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace hemlock {

/// Size, in bytes, of the destructive-interference unit we pad to.
/// 64 bytes on every platform this library targets (x86-64, aarch64
/// with 64B lines; on 128B-line parts 64B-aligned still avoids the
/// worst sharing and keeps Table 1 word-accounting comparable).
inline constexpr std::size_t kCacheLineSize = 64;

/// Wraps a T so it starts on its own cache line and no other object
/// shares its final line (alignas rounds sizeof up to a multiple of
/// the alignment). Used for contended atomics — Grant fields, lock
/// tails, barrier phases — and for keeping bulky shared state (e.g.
/// the moderate-contention workload's shared PRNG) off its
/// neighbours' lines.
template <typename T>
struct alignas(kCacheLineSize) CacheAligned {
  T value{};

  CacheAligned() = default;

  /// Construct the wrapped value in place.
  template <typename... Args>
  explicit CacheAligned(Args&&... args) : value(std::forward<Args>(args)...) {}

  /// Access the wrapped value.
  T& get() noexcept { return value; }
  const T& get() const noexcept { return value; }
};

static_assert(sizeof(CacheAligned<long>) == kCacheLineSize);
static_assert(alignof(CacheAligned<long>) == kCacheLineSize);
static_assert(sizeof(CacheAligned<char[65]>) == 2 * kCacheLineSize);

/// Number of cache lines an object of `bytes` bytes spans when
/// line-aligned. Used by lock_traits to report Table 1 style space.
constexpr std::size_t lines_for(std::size_t bytes) noexcept {
  return (bytes + kCacheLineSize - 1) / kCacheLineSize;
}

/// Number of machine words (8 bytes) in `bytes`, rounded up. Table 1
/// in the paper reports lock footprints in words.
constexpr std::size_t words_for(std::size_t bytes) noexcept {
  return (bytes + sizeof(void*) - 1) / sizeof(void*);
}

/// Hint that the line holding `p` should leave this core's private
/// caches for the shared last-level cache, so the next core to touch
/// it is served from there instead of by a snoop of ours. x86-64's
/// CLDEMOTE; nothing on other targets. A hint only: it reads and
/// writes nothing and does not fault, not even on an unmapped or
/// PROT_NONE page, so `p` may already be freed. CPUs without CLDEMOTE
/// run its encoding (0F 1C /0, hint-NOP space) as a NOP.
inline void demote_line(const void* p) noexcept {
#if defined(__x86_64__)
  asm volatile("cldemote (%0)" : : "r"(p));
#else
  (void)p;
#endif
}

}  // namespace hemlock
