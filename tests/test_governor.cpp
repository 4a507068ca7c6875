// test_governor.cpp — the contention governor behind the queue-lock
// waiting tiers (runtime/governor.hpp): the spin -> yield -> park
// escalation thresholds of classify(), tier-name parsing, the
// forced-tier override, the waiter/parked censuses, and the governed
// policy's end-to-end escalation on a live word.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "core/waiting.hpp"
#include "runtime/governor.hpp"
#include "stats/telemetry.hpp"

namespace hemlock {
namespace {

/// Restores automatic classification however a test exits.
struct ForceGuard {
  ~ForceGuard() { ContentionGovernor::instance().clear_force(); }
};

// ---------------------------------------------- escalation thresholds --
TEST(Governor, ClassifySpinsWhileContendersFitTheCpus) {
  // runnable (waiters + owner) <= cpus: the paper's regime, busy-wait.
  EXPECT_EQ(ContentionGovernor::classify(8, 0), WaitTier::kSpin);
  EXPECT_EQ(ContentionGovernor::classify(8, 7), WaitTier::kSpin);
  EXPECT_EQ(ContentionGovernor::classify(1, 0), WaitTier::kSpin);
  EXPECT_EQ(ContentionGovernor::classify(64, 63), WaitTier::kSpin);
}

TEST(Governor, ClassifyYieldsUnderMildOversubscription) {
  // cpus < runnable <= 2*cpus: surrender timeslices, no syscalls.
  EXPECT_EQ(ContentionGovernor::classify(8, 8), WaitTier::kYield);
  EXPECT_EQ(ContentionGovernor::classify(8, 15), WaitTier::kYield);
  EXPECT_EQ(ContentionGovernor::classify(1, 1), WaitTier::kYield);
  EXPECT_EQ(ContentionGovernor::classify(4, 7), WaitTier::kYield);
}

TEST(Governor, ClassifyParksUnderHeavyOversubscription) {
  // runnable > 2*cpus: spinning starves the owner; sleep in the kernel.
  EXPECT_EQ(ContentionGovernor::classify(8, 16), WaitTier::kPark);
  EXPECT_EQ(ContentionGovernor::classify(1, 2), WaitTier::kPark);
  EXPECT_EQ(ContentionGovernor::classify(1, 15), WaitTier::kPark);
  EXPECT_EQ(ContentionGovernor::classify(4, 100), WaitTier::kPark);
}

TEST(Governor, ClassifyTreatsZeroCpusAsOne) {
  // Defensive: a probe failure must not divide the world by zero.
  EXPECT_EQ(ContentionGovernor::classify(0, 0), WaitTier::kSpin);
  EXPECT_EQ(ContentionGovernor::classify(0, 2), WaitTier::kPark);
}

// -------------------------------------------------------- tier names --
TEST(Governor, TierNamesRoundTrip) {
  for (const WaitTier t :
       {WaitTier::kSpin, WaitTier::kYield, WaitTier::kPark}) {
    WaitTier parsed;
    ASSERT_TRUE(parse_wait_tier(wait_tier_name(t), &parsed))
        << wait_tier_name(t);
    EXPECT_EQ(parsed, t);
  }
  WaitTier unused;
  EXPECT_FALSE(parse_wait_tier(nullptr, &unused));
  EXPECT_FALSE(parse_wait_tier("", &unused));
  EXPECT_FALSE(parse_wait_tier("auto", &unused));   // auto = not a tier
  EXPECT_FALSE(parse_wait_tier("Spin", &unused));   // no fuzzy matching
  EXPECT_FALSE(parse_wait_tier("parked", &unused));
}

// ------------------------------------------------------ live governor --
TEST(Governor, ForcedTierOverridesTheCensus) {
  auto& gov = ContentionGovernor::instance();
  ForceGuard restore;
  for (const WaitTier t :
       {WaitTier::kPark, WaitTier::kYield, WaitTier::kSpin}) {
    gov.force(t);
    EXPECT_TRUE(gov.forced());
    EXPECT_EQ(gov.tier(), t);
  }
  gov.clear_force();
  EXPECT_FALSE(gov.forced());
  // Unforced with no registered waiters: classify(cpus, waiters()).
  EXPECT_EQ(gov.tier(), ContentionGovernor::classify(gov.cpus(),
                                                     gov.waiters()));
}

TEST(Governor, WaiterCensusDrivesAutomaticEscalation) {
  auto& gov = ContentionGovernor::instance();
  ForceGuard restore;
  gov.clear_force();
  ASSERT_GE(gov.cpus(), 1u);
  const std::uint32_t before = gov.waiters();
  // Register enough fake waiters to push runnable past 2*cpus.
  const std::uint32_t fake = 2 * gov.cpus() + 2;
  for (std::uint32_t i = 0; i < fake; ++i) gov.begin_wait();
  EXPECT_EQ(gov.waiters(), before + fake);
  EXPECT_EQ(gov.tier(), WaitTier::kPark);
  for (std::uint32_t i = 0; i < fake; ++i) gov.end_wait();
  EXPECT_EQ(gov.waiters(), before);
}

TEST(Governor, ParkedCensusBalances) {
  auto& gov = ContentionGovernor::instance();
  std::atomic<std::uint32_t> word{0};
  const std::uint32_t before = gov.parked(&word);
  const std::uint32_t before_total = gov.parked_total();
  gov.begin_park(&word);
  gov.begin_park(&word);
  EXPECT_EQ(gov.parked(&word), before + 2);
  EXPECT_EQ(gov.parked_total(), before_total + 2);
  gov.end_park(&word);
  gov.end_park(&word);
  EXPECT_EQ(gov.parked(&word), before);
  EXPECT_EQ(gov.parked_total(), before_total);
}

// The census is per-lock (address-bucketed), not process-global: a
// sleeper on one lock's word must not make an unrelated lock's
// publisher believe *its* waiters are parked (the ROADMAP's
// cross-lock spurious-wake follow-up).
TEST(Governor, ParkedCensusIsPerAddressBucket) {
  auto& gov = ContentionGovernor::instance();
  // Two words in different buckets; any stride works, the bucket
  // function is exposed so the test can pick a genuine non-collision.
  alignas(64) std::atomic<std::uint32_t> words[64];
  std::atomic<std::uint32_t>* a = &words[0];
  std::atomic<std::uint32_t>* b = nullptr;
  for (auto& w : words) {
    if (ContentionGovernor::park_bucket(&w) !=
        ContentionGovernor::park_bucket(a)) {
      b = &w;
      break;
    }
  }
  ASSERT_NE(b, nullptr) << "bucket function maps 64 spread words to 1 bucket";
  const std::uint32_t a_before = gov.parked(a);
  const std::uint32_t b_before = gov.parked(b);
  gov.begin_park(a);
  EXPECT_EQ(gov.parked(a), a_before + 1);
  EXPECT_EQ(gov.parked(b), b_before);  // unrelated word: unaffected
  gov.end_park(a);
  EXPECT_EQ(gov.parked(a), a_before);
}

// The parking protocol's counters must balance once every thread has
// come home: a joined workload leaves no futex sleep without a return,
// and every publish either issued the wake syscall or was gated off by
// the zero census. (These are the telemetry snapshot's governor block,
// the totals of its per-lock rows — see docs/OBSERVABILITY.md.)
TEST(Governor, ParkDiagBalancesAfterGovernedParkWorkload) {
  auto& gov = ContentionGovernor::instance();
  ForceGuard restore;
  gov.force(WaitTier::kPark);

  // Read while the only threads that touch the counters are quiesced
  // (before the workload / after every join).
  const telemetry::GovernorTelemetry before = telemetry::collect().governor;

  for (int round = 0; round < 8; ++round) {
    std::atomic<std::uint32_t> word{1};
    std::thread waiter(
        [&] { GovernedWaiting::wait_until(word, std::uint32_t{0}); });
    // Publish once the waiter has entered the word's parked census: it
    // then either sleeps or aborts in the return-to-baseline window.
    while (gov.parked(&word) == 0) std::this_thread::yield();
    GovernedWaiting::publish(word, std::uint32_t{0});
    waiter.join();
  }

  const telemetry::GovernorTelemetry after = telemetry::collect().governor;
  const std::uint64_t sleeps = after.park_sleeps - before.park_sleeps;
  const std::uint64_t wakeups = after.park_wakeups - before.park_wakeups;
  const std::uint64_t syscalls = after.wake_syscalls - before.wake_syscalls;
  const std::uint64_t skips = after.wake_gate_skips - before.wake_gate_skips;
  const std::uint64_t retries =
      after.baseline_retries - before.baseline_retries;

  // Every sleep returned (joined threads cannot still be in futex_wait).
  EXPECT_EQ(sleeps, wakeups);
  // Each of the 8 publishes resolved its wake decision one way or the
  // other (other suites' teardown can add to either side, never remove).
  EXPECT_GE(syscalls + skips, 8u);
  // Every round's waiter registered a park before its publish, and that
  // park either really slept or aborted in the return-to-baseline
  // window.
  EXPECT_GE(sleeps + retries, 8u);
  // diag() reads the same totals.
  EXPECT_EQ(gov.diag().park_sleeps.load(std::memory_order_relaxed),  // mo: test read
            after.park_sleeps);
}

// Parker and publisher agree on the bucket because they hash the same
// address — the property the publish-side syscall gate relies on.
TEST(Governor, ParkBucketIsStableAndInRange) {
  std::atomic<std::uint32_t> word{0};
  const std::size_t bucket = ContentionGovernor::park_bucket(&word);
  EXPECT_LT(bucket, ContentionGovernor::kParkBuckets);
  EXPECT_EQ(bucket, ContentionGovernor::park_bucket(&word));
}

// ------------------------------------- governed policy, end to end --
// The governed tier must complete a hand-off whatever tier the
// governor currently recommends — including a forced park, where the
// waiter really sleeps in futex_wait and publish() must wake it.
TEST(Governor, GovernedWaitingHandsOffUnderEveryForcedTier) {
  auto& gov = ContentionGovernor::instance();
  ForceGuard restore;
  for (const WaitTier t :
       {WaitTier::kSpin, WaitTier::kYield, WaitTier::kPark}) {
    gov.force(t);
    std::atomic<std::uint32_t> word{1};
    std::thread waiter(
        [&] { GovernedWaiting::wait_until(word, std::uint32_t{0}); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    GovernedWaiting::publish(word, std::uint32_t{0});
    waiter.join();
    EXPECT_EQ(word.load(), 0u) << wait_tier_name(t);
  }
}

}  // namespace
}  // namespace hemlock
