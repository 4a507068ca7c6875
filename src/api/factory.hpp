// factory.hpp — the runtime lock roster: name → algorithm, once.
//
// The library has exactly one compile-time roster (AllLockTags in
// core/lock_registry.hpp) and exactly one name table: the factory's,
// constant-initialized from that roster (one LockVTable pointer per
// algorithm, registry order; names are unique at compile time). Every
// consumer that turns a *string* into a *lock* goes through here — the
// LD_PRELOAD shim's HEMLOCK_LOCK, the bench harness's --lock=<name>,
// examples, tests. Nothing else maintains a name table.
//
// The roster is closed: it is a roster, not a plugin ecosystem. An
// embedder's own lock still runs behind the same surface, constructed
// from its vtable (AnyLock(lock_vtable<L>)) or typed into DB<L> /
// ShardedDB<L>; it just has no name here.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "api/any_lock.hpp"

namespace hemlock {

/// String-keyed runtime roster of every lock algorithm: queries over
/// the one constant name table, safe from any thread.
class LockFactory {
 public:
  /// The process-wide factory.
  static const LockFactory& instance();

  /// The entry for `name`, or nullptr if unknown. Entry pointers are
  /// stable for the life of the process. (The free function
  /// find_lock() answers the same question without touching the
  /// factory singleton — allocation-free, for the interposition
  /// shim's lock path.) A "-spin" suffix canonicalizes to the base
  /// name when that entry is in the spin tier: the bare queue-lock
  /// names ARE the pure-spin tier, so "mcs-spin" resolves to "mcs"
  /// (completing the -spin/-yield/-park/-adaptive waiting-tier
  /// vocabulary of core/waiting.hpp), while "mcs-park-spin" and
  /// "pthread-spin" name nothing.
  const LockVTable* find(std::string_view name) const noexcept;

  /// Construct the named algorithm as an AnyLock. Throws
  /// std::invalid_argument for unknown names.
  AnyLock make(std::string_view name) const;

  /// As make(), attributed to `telemetry_name` in the per-lock
  /// telemetry (AnyLock's two-name constructor).
  AnyLock make(std::string_view name, std::string_view telemetry_name) const;

  /// The named algorithm's descriptor, or nullptr if unknown.
  const LockInfo* info(std::string_view name) const noexcept;

  /// Names of all roster algorithms, registry order.
  std::vector<std::string_view> names() const;

  /// Roster entries, registry order (for roster sweeps).
  std::span<const LockVTable* const> entries() const noexcept;

  /// Number of roster algorithms.
  std::size_t size() const noexcept { return entries().size(); }

 private:
  LockFactory() = default;
};

/// The roster entry of `family` in `tier` (LockInfo::family/tier), or
/// nullptr: how the shim moves between one algorithm's waiting tiers.
/// Allocation-free, like find_lock().
const LockVTable* find_tier(std::string_view family, LockTier tier) noexcept;

}  // namespace hemlock
