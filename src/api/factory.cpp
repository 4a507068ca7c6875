#include "api/factory.hpp"

#include <array>

#include "core/lock_registry.hpp"

namespace hemlock {

namespace {

template <typename Tags>
struct NameTable;

template <typename... Ls>
struct NameTable<std::tuple<lock_tag<Ls>...>> {
  static constexpr std::array<const LockVTable*, sizeof...(Ls)> entries{
      &lock_vtable<Ls>...};
};

/// The one name table: every roster algorithm's static vtable, registry
/// order. Constant-initialized, so find_lock() reads it allocation-free
/// from inside the interposition shim.
constexpr const auto& kRoster = NameTable<AllLockTags>::entries;

constexpr std::string_view kSpinAlias = "-spin";

/// The table's invariants: every name is unique and none spells a
/// "-spin" alias (which would shadow the base entry's spelling), and
/// every (family, tier) pair names one entry.
constexpr bool roster_well_formed() {
  for (std::size_t i = 0; i < kRoster.size(); ++i) {
    const LockInfo& a = kRoster[i]->info;
    if (a.name.empty() || a.name.ends_with(kSpinAlias)) return false;
    for (std::size_t j = i + 1; j < kRoster.size(); ++j) {
      const LockInfo& b = kRoster[j]->info;
      if (a.name == b.name) return false;
      if (a.family == b.family && a.tier == b.tier) return false;
    }
  }
  return true;
}
static_assert(roster_well_formed(),
              "roster names and (family, tier) pairs must be unique");

const LockVTable* find_exact(std::string_view name) noexcept {
  for (const LockVTable* vt : kRoster) {
    if (vt->info.name == name) return vt;
  }
  return nullptr;
}

}  // namespace

const LockFactory& LockFactory::instance() {
  static const LockFactory factory{};
  return factory;
}

const LockVTable* LockFactory::find(std::string_view name) const noexcept {
  // Same resolution as the free function — there is exactly one
  // name→algorithm rule in the library.
  return find_lock(name);
}

AnyLock LockFactory::make(std::string_view name) const {
  return AnyLock(name);  // guaranteed elision: constructed in place
}

AnyLock LockFactory::make(std::string_view name,
                          std::string_view telemetry_name) const {
  return AnyLock(name, telemetry_name);  // guaranteed elision
}

const LockInfo* LockFactory::info(std::string_view name) const noexcept {
  const LockVTable* vt = find(name);
  return vt != nullptr ? &vt->info : nullptr;
}

std::vector<std::string_view> LockFactory::names() const {
  std::vector<std::string_view> out;
  out.reserve(kRoster.size());
  for (const LockVTable* vt : kRoster) out.push_back(vt->info.name);
  return out;
}

std::span<const LockVTable* const> LockFactory::entries() const noexcept {
  return kRoster;
}

const LockVTable* find_lock(std::string_view name) noexcept {
  // Deliberately allocation-free (no LockFactory::instance()): the
  // interposition shim resolves HEMLOCK_LOCK through this function
  // from inside the application's first pthread_mutex_lock, where a
  // malloc — whose allocator may itself guard state with a pthread
  // mutex — could re-enter the shim and deadlock. The table holds
  // constant-initialized statics; this is pure name comparison.
  if (const LockVTable* found = find_exact(name)) return found;
  // "-spin" is the explicit spelling of the default pure-spin tier:
  // one strip, then an exact lookup only, so suffixes never chain, and
  // only a spin-tier entry answers to it ("mcs-park-spin" names none).
  if (name.size() > kSpinAlias.size() && name.ends_with(kSpinAlias)) {
    const LockVTable* base =
        find_exact(name.substr(0, name.size() - kSpinAlias.size()));
    if (base != nullptr && base->info.tier == LockTier::kSpin) return base;
  }
  return nullptr;
}

const LockVTable* find_tier(std::string_view family, LockTier tier) noexcept {
  for (const LockVTable* vt : kRoster) {
    if (vt->info.family == family && vt->info.tier == tier) return vt;
  }
  return nullptr;
}

}  // namespace hemlock
