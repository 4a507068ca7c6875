// lock_traits.hpp — static metadata describing each lock algorithm.
//
// Drives Table 1 of the paper (space usage: lock body words, per-held
// and per-wait element cost, per-thread state, non-trivial init) and
// lets the parameterized test/bench suites adapt per algorithm
// (FIFO-ness, try_lock availability, spinning locality).
//
// A lock family built over a waiting tier (MCS, CLH, Ticket, Anderson,
// the rwlocks) declares its traits once, over the tier parameter, on
// top of tiered_traits: the family name and the tier make the variant's
// roster name ("mcs", "mcs-yield", "mcs-park", "mcs-adaptive").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hemlock {

/// How threads busy-wait while contending for the lock.
enum class Spinning {
  kGlobal,    ///< all waiters poll one word (TAS/TTAS/Ticket)
  kLocal,     ///< each waiter polls a private word (MCS/CLH/Anderson)
  kFereLocal, ///< local except under multi-lock holding (Hemlock, §3)
};

/// The waiting tier a roster entry occupies in its family
/// (core/waiting.hpp): the paper's pure busy-wait, spin then yield,
/// spin then park, or the governor's choice each round.
enum class LockTier : std::uint8_t { kSpin, kYield, kPark, kAdaptive };

/// The tier's name: a waiting policy's name and a variant's suffix.
constexpr const char* lock_tier_name(LockTier t) noexcept {
  switch (t) {
    case LockTier::kSpin: return "spin";
    case LockTier::kYield: return "yield";
    case LockTier::kPark: return "park";
    case LockTier::kAdaptive: return "adaptive";
  }
  return "?";
}

namespace detail {

/// A string literal as a template argument: a family name. The
/// constructor is implicit so that tiered_traits<"mcs", W> reads as
/// written.
template <std::size_t N>
struct FamilyName {
  char chars[N];
  constexpr FamilyName(const char (&s)[N]) noexcept {
    for (std::size_t i = 0; i < N; ++i) chars[i] = s[i];
  }
};

/// The roster name of `Family` in tier `T`, NUL-terminated: the bare
/// family name for the spin tier, "<family>-<tier>" for the others.
template <FamilyName Family, LockTier T>
inline constexpr auto kTieredName = [] {
  constexpr std::string_view family(Family.chars);
  constexpr std::string_view suffix =
      T == LockTier::kSpin ? "" : lock_tier_name(T);
  std::array<char, family.size() + (suffix.empty() ? 0 : suffix.size() + 1) +
                       1>
      out{};
  std::size_t n = 0;
  for (const char c : family) out[n++] = c;
  if (!suffix.empty()) {
    out[n++] = '-';
    for (const char c : suffix) out[n++] = c;
  }
  return out;
}();

}  // namespace detail

/// What every variant of a tiered family shares: the family name, the
/// tier of its waiting policy `W`, the variant name built from the two,
/// and `W`'s waiting facts. A family's lock_traits specialization
/// derives from this and adds its Table 1 accounting.
template <detail::FamilyName Family, typename W>
struct tiered_traits {
  static constexpr const char* family = Family.chars;
  static constexpr LockTier tier = W::lock_tier;
  static constexpr const char* name = detail::kTieredName<Family, tier>.data();
  static constexpr const char* waiting = W::name;
  static constexpr bool oversub_safe = W::oversub_safe;
};

/// Per-algorithm metadata. Every lock type in the library specializes
/// this template; `E` in the paper's Table 1 (queue-element size) is
/// reported in words via held_words/wait_words. A lock that declares no
/// `family` is its own family, and one that declares no `tier` sits in
/// the spin tier.
template <typename L>
struct lock_traits;  // primary template intentionally undefined

/// Convenience: paper Table 1 row, in words (8-byte) like the paper.
struct SpaceRow {
  const char* name;
  std::size_t lock_words;    ///< lock body size
  std::size_t held_words;    ///< extra space per lock currently held
  std::size_t wait_words;    ///< extra space per lock being waited on
  std::size_t thread_words;  ///< per-thread state reserved for locking
  bool nontrivial_init;      ///< requires non-trivial ctor/dtor (CLH dummy)
};

/// Materialize the Table 1 row for lock type L from its traits.
template <typename L>
SpaceRow space_row() {
  using T = lock_traits<L>;
  return SpaceRow{T::name,       T::lock_words,  T::held_words,
                  T::wait_words, T::thread_words, T::nontrivial_init};
}

}  // namespace hemlock
