// traffic.cpp — the batched mixed-traffic client harness.

#include "minikv/traffic.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "minikv/db_bench.hpp"  // bench_key
#include "runtime/barrier.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/thread_rec.hpp"
#include "runtime/timing.hpp"

namespace hemlock::minikv {

// ---- Zipfian key popularity -------------------------------------------

ZipfianGenerator::ZipfianGenerator(std::uint64_t items, double theta,
                                   std::uint64_t seed)
    : items_(items), theta_(theta), prng_(seed) {
  // zeta(n) = sum 1/i^theta — O(n) once per generator; the traffic
  // keyspaces (1e5-ish) make this microseconds, not a hot path.
  double zetan = 0.0;
  for (std::uint64_t i = 1; i <= items_; ++i) {
    zetan += 1.0 / std::pow(static_cast<double>(i), theta_);
  }
  zetan_ = zetan;
  alpha_ = 1.0 / (1.0 - theta_);
  const double zeta2 = 1.0 + std::pow(0.5, theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(items_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

std::uint64_t ZipfianGenerator::next() {
  // Gray et al.'s closed-form inverse (the YCSB implementation).
  constexpr double kInv = 1.0 / 18446744073709551616.0;  // 2^-64
  const double u = (static_cast<double>(prng_.next()) + 0.5) * kInv;
  const double uz = u * zetan_;
  std::uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + std::pow(0.5, theta_)) {
    rank = 1;
  } else {
    rank = static_cast<std::uint64_t>(
        static_cast<double>(items_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= items_) rank = items_ - 1;
  }
  // Scramble: popularity attaches to ranks, the scramble decides
  // WHICH keys are popular — spreading the hot set across shards and
  // table blocks the way real key hashes do.
  return SplitMix64(rank).next() % items_;
}

// ---- scenarios --------------------------------------------------------

const std::vector<TrafficScenario>& default_traffic_scenarios() {
  static const std::vector<TrafficScenario> kScenarios = {
      // 95% point reads / 5% writes, uniform keys: the classic serving
      // mix where epoch-protected lock-free reads should dominate.
      {.name = "read-heavy", .put_pct = 5},
      // Range-scan heavy: scans hold the epoch far longer than a
      // point get — the reclamation-pressure scenario.
      {.name = "scan-heavy", .scan_pct = 30, .put_pct = 10,
       .scan_limit = 32},
      // YCSB-default Zipfian skew: a handful of hot keys, so a central
      // lock convoys on the hot shard's traffic too.
      {.name = "hot-key", .put_pct = 10, .zipf_theta = 0.99},
      // Mostly-read steady state punctuated by all-write batches
      // (cache refill / bulk load); deletes exercise tombstones.
      {.name = "write-burst", .put_pct = 10, .del_pct = 5,
       .burst_every = 8},
  };
  return kScenarios;
}

const TrafficScenario* find_traffic_scenario(std::string_view name) {
  for (const auto& s : default_traffic_scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// ---- the batched client loop ------------------------------------------

double TrafficResult::mops_per_sec() const {
  return ops_per_sec(total_ops(), elapsed_ns) / 1e6;
}

namespace {

/// Per-thread tallies, cache-padded (written every batch).
struct alignas(kCacheLineSize) ClientCounters {
  std::uint64_t gets = 0, scans = 0, puts = 0, dels = 0, found = 0;
  Histogram batch_us;
};

}  // namespace

TrafficResult run_traffic(KvBackend& kv, const TrafficScenario& scenario,
                          const TrafficConfig& cfg) {
  struct Shared {
    CacheAligned<std::atomic<bool>> stop{false};
    SpinBarrier barrier;
    explicit Shared(std::uint32_t parties) : barrier(parties) {}
  };
  auto shared = std::make_unique<Shared>(cfg.threads + 1);
  std::vector<ClientCounters> counters(cfg.threads);

  const std::string value(cfg.value_size, 'v');
  std::vector<std::thread> clients;
  clients.reserve(cfg.threads);
  for (std::uint32_t t = 0; t < cfg.threads; ++t) {
    clients.emplace_back([&, t] {
      (void)self();  // register the thread record (epoch slot lives there)
      ClientCounters& c = counters[t];
      Xoshiro256 prng(cfg.seed + 0x9E3779B9ULL * (t + 1));
      std::unique_ptr<ZipfianGenerator> zipf;
      if (scenario.zipf_theta > 0.0) {
        zipf = std::make_unique<ZipfianGenerator>(
            cfg.num_keys, scenario.zipf_theta, cfg.seed ^ (t + 1));
      }
      auto next_key = [&]() -> std::uint64_t {
        return zipf != nullptr ? zipf->next() : prng.below64(cfg.num_keys);
      };
      std::string got;
      std::vector<std::pair<std::string, std::string>> range;
      std::uint64_t batch_index = 0;
      shared->barrier.arrive_and_wait();
      // mo: relaxed — advisory stop flag; the barrier synchronizes.
      while (!shared->stop.value.load(std::memory_order_relaxed)) {
        // Compose the batch up front (op kinds + keys) so the timed
        // region below measures the KV layer, not the PRNG.
        const bool burst = scenario.burst_every != 0 &&
                           (++batch_index % scenario.burst_every) == 0;
        const std::int64_t begin = now_ns();
        for (std::size_t i = 0; i < cfg.batch_size; ++i) {
          const std::uint64_t k = next_key();
          const std::uint32_t roll = burst ? 0 : prng.below(100);
          if (burst || roll < scenario.put_pct) {
            (void)kv.put(bench_key(k), value);
            ++c.puts;
          } else if (roll < scenario.put_pct + scenario.del_pct) {
            (void)kv.del(bench_key(k));
            ++c.dels;
          } else if (roll <
                     scenario.put_pct + scenario.del_pct + scenario.scan_pct) {
            (void)kv.scan(bench_key(k), scenario.scan_limit, &range);
            ++c.scans;
          } else {
            if (kv.get(bench_key(k), &got).is_ok()) ++c.found;
            ++c.gets;
          }
        }
        const std::int64_t elapsed = now_ns() - begin;
        c.batch_us.record(static_cast<std::uint64_t>(elapsed / 1000));
      }
      shared->barrier.arrive_and_wait();
    });
  }

  shared->barrier.arrive_and_wait();
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.duration_ms));
  // mo: relaxed — advisory stop flag; the barrier synchronizes.
  shared->stop.value.store(true, std::memory_order_relaxed);
  shared->barrier.arrive_and_wait();
  const std::int64_t elapsed = timer.elapsed_ns();
  for (auto& w : clients) w.join();

  TrafficResult res;
  res.elapsed_ns = elapsed;
  for (const auto& c : counters) {
    res.gets += c.gets;
    res.scans += c.scans;
    res.puts += c.puts;
    res.dels += c.dels;
    res.found += c.found;
    res.batch_us.merge(c.batch_us);
  }
  return res;
}

void fill_backend(KvBackend& kv, std::uint64_t n, std::size_t value_size) {
  const std::string value(value_size, 'v');
  for (std::uint64_t k = 0; k < n; ++k) {
    (void)kv.put(bench_key(k), value);
  }
  kv.flush();
}

}  // namespace hemlock::minikv
