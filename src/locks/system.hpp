// system.hpp — wrappers for the platform's native mutexes.
//
// The paper's evaluation interposes on the POSIX pthread_mutex_t
// interface (§5); these wrappers let the same harness, tests and
// benches run the *un*-interposed system primitives as additional
// reference points.
#pragma once

#include <pthread.h>

#include "locks/lock_traits.hpp"
#include "runtime/annotations.hpp"

namespace hemlock {

/// Raw pthread_mutex_t with default attributes (typically a
/// futex-based adaptive mutex on Linux — blocks instead of spinning,
/// so it is *not* comparable to the spin locks under oversubscription
/// and is reported separately in benches).
class HEMLOCK_CAPABILITY("mutex") PthreadMutex {
 public:
  PthreadMutex() { pthread_mutex_init(&mu_, nullptr); }
  ~PthreadMutex() { pthread_mutex_destroy(&mu_); }
  PthreadMutex(const PthreadMutex&) = delete;
  PthreadMutex& operator=(const PthreadMutex&) = delete;

  /// Acquire.
  void lock() noexcept HEMLOCK_ACQUIRE() { pthread_mutex_lock(&mu_); }
  /// Non-blocking attempt.
  bool try_lock() noexcept HEMLOCK_TRY_ACQUIRE(true) {
    return pthread_mutex_trylock(&mu_) == 0;
  }
  /// Release.
  void unlock() noexcept HEMLOCK_RELEASE() { pthread_mutex_unlock(&mu_); }

 private:
  pthread_mutex_t mu_;
};

template <>
struct lock_traits<PthreadMutex> {
  static constexpr const char* name = "pthread";
  static constexpr std::size_t lock_words =
      sizeof(pthread_mutex_t) / sizeof(void*);
  static constexpr std::size_t held_words = 0;
  static constexpr std::size_t wait_words = 0;
  static constexpr std::size_t thread_words = 0;
  static constexpr bool nontrivial_init = true;
  static constexpr bool is_fifo = false;
  static constexpr bool has_trylock = true;
  static constexpr Spinning spinning = Spinning::kGlobal;
  /// glibc's default mutex blocks in the kernel (futex) under
  /// contention — the reference point the parking tiers are measured
  /// against.
  static constexpr const char* waiting = "park";
  static constexpr LockTier tier = LockTier::kPark;
  static constexpr bool oversub_safe = true;
};

}  // namespace hemlock
