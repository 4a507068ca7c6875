// traffic.hpp — mixed-traffic client harness over the MiniKV layers.
//
// The Figure-8 driver (db_bench.hpp) measures one thing: uniform
// readrandom against the central-mutex DB. A serving system sees
// richer traffic — skewed key popularity, range scans, bursts of
// writes — and it is exactly that mix that separates the sharded
// epoch-read serving layer (sharded_db.hpp) from a central lock. This
// header defines:
//
//   * KvBackend — a thin virtual surface (get/put/del/scan) so ONE
//     driver measures DB<Lock> and ShardedDB<Lock>, whatever the lock
//     algorithm (the adapters below erase the template).
//   * TrafficScenario — an operation mix (percentages, Zipfian skew,
//     scan depth, periodic write bursts) plus the four named
//     scenarios the bench sweeps: read-heavy, scan-heavy, hot-key,
//     write-burst.
//   * ZipfianGenerator — YCSB-style skewed key popularity with
//     scrambled ranks, so "hot" keys spread across shards instead of
//     colliding in one.
//   * run_traffic() — the batched client loop: each client thread
//     composes batches of operations from the scenario mix and times
//     each batch, reporting aggregate throughput plus a merged
//     batch-latency histogram (µs).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "minikv/db.hpp"
#include "minikv/sharded_db.hpp"
#include "minikv/slice.hpp"
#include "minikv/status.hpp"
#include "runtime/prng.hpp"
#include "stats/histogram.hpp"

namespace hemlock::minikv {

/// Type-erased KV surface the traffic driver measures. Implementations
/// must be safe for concurrent calls from many client threads.
class KvBackend {
 public:
  virtual ~KvBackend() = default;

  virtual Status get(const Slice& key, std::string* value) = 0;
  virtual Status put(const Slice& key, const Slice& value) = 0;
  /// Remove `key`. Backends without native deletes (the central DB)
  /// degrade to an overwrite — still a write of the same weight, so
  /// the traffic mix stays comparable (and supports_delete() tells
  /// correctness tests which semantics to assert).
  virtual Status del(const Slice& key) = 0;
  virtual std::size_t scan(const Slice& start, std::size_t limit,
                           std::vector<std::pair<std::string, std::string>>*
                               out) = 0;
  virtual bool supports_delete() const = 0;
  /// Freeze buffered writes into tables (fill_backend calls this once
  /// after populating, matching the Figure-8 fillseq protocol).
  virtual void flush() = 0;
};

/// Central-mutex DB<Lock> as a traffic target (the baseline).
template <BasicLockable L>
class CentralBackend final : public KvBackend {
 public:
  explicit CentralBackend(DB<L>& db) : db_(db) {}

  Status get(const Slice& key, std::string* value) override {
    return db_.get(key, value);
  }
  Status put(const Slice& key, const Slice& value) override {
    return db_.put(key, value);
  }
  Status del(const Slice& key) override {
    return db_.put(key, Slice());  // no native delete: overwrite-empty
  }
  std::size_t scan(
      const Slice& start, std::size_t limit,
      std::vector<std::pair<std::string, std::string>>* out) override {
    return db_.scan(start, limit, out);
  }
  bool supports_delete() const override { return false; }
  void flush() override { db_.flush(); }

 private:
  DB<L>& db_;
};

/// Sharded serving layer as a traffic target.
template <BasicLockable L = AnyLock>
class ShardedBackend final : public KvBackend {
 public:
  explicit ShardedBackend(ShardedDB<L>& db) : db_(db) {}

  Status get(const Slice& key, std::string* value) override {
    return db_.get(key, value);
  }
  Status put(const Slice& key, const Slice& value) override {
    return db_.put(key, value);
  }
  Status del(const Slice& key) override { return db_.del(key); }
  std::size_t scan(
      const Slice& start, std::size_t limit,
      std::vector<std::pair<std::string, std::string>>* out) override {
    return db_.scan(start, limit, out);
  }
  bool supports_delete() const override { return true; }
  void flush() override { db_.flush(); }

 private:
  ShardedDB<L>& db_;
};

/// YCSB-style Zipfian key popularity (Gray et al.'s rejection-free
/// formula, as popularized by YCSB's ZipfianGenerator), with ranks
/// scrambled through SplitMix64 so popular keys land on unrelated
/// shards/blocks instead of clustering at the keyspace origin.
class ZipfianGenerator {
 public:
  /// Popularity over `items` keys with skew `theta` in (0,1); YCSB's
  /// default 0.99 concentrates ~50% of draws on <1% of keys.
  ZipfianGenerator(std::uint64_t items, double theta, std::uint64_t seed);

  /// Next key index in [0, items), scrambled.
  std::uint64_t next();

 private:
  std::uint64_t items_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  Xoshiro256 prng_;
};

/// One operation mix. Percentages are out of 100; the remainder after
/// scans/puts/deletes is reads.
struct TrafficScenario {
  std::string_view name;
  std::uint32_t scan_pct = 0;
  std::uint32_t put_pct = 0;
  std::uint32_t del_pct = 0;
  /// 0 = uniform key popularity; otherwise YCSB Zipfian skew.
  double zipf_theta = 0.0;
  /// Entries per scan.
  std::size_t scan_limit = 32;
  /// Every Nth batch is ALL writes (0 = never) — the write-burst
  /// pattern of upstream cache-fill / bulk-load traffic.
  std::uint32_t burst_every = 0;
};

/// The four scenarios the bench and CI sweep:
/// read-heavy (95/5 uniform), scan-heavy, hot-key (Zipf 0.99) and
/// write-burst (every 8th batch all-write, with deletes).
const std::vector<TrafficScenario>& default_traffic_scenarios();

/// By-name lookup into default_traffic_scenarios(); nullptr if absent.
const TrafficScenario* find_traffic_scenario(std::string_view name);

/// Client-harness knobs.
struct TrafficConfig {
  std::uint32_t threads = 1;
  std::int64_t duration_ms = 1000;
  std::uint64_t num_keys = 100000;  ///< keyspace (pre-filled by caller)
  std::size_t value_size = 100;
  std::size_t batch_size = 32;  ///< operations composed per batch
  std::uint64_t seed = 0x7AF1C0DE5EEDULL;
};

/// Aggregate outcome of one traffic run.
struct TrafficResult {
  std::uint64_t gets = 0;
  std::uint64_t scans = 0;
  std::uint64_t puts = 0;
  std::uint64_t dels = 0;
  std::uint64_t found = 0;  ///< gets that hit a live key
  std::int64_t elapsed_ns = 0;
  /// Per-batch latency, microseconds, merged across clients.
  Histogram batch_us;

  std::uint64_t total_ops() const { return gets + scans + puts + dels; }
  /// Millions of operations per second (a scan of k entries counts as
  /// one operation — it is one request).
  double mops_per_sec() const;
};

/// Run `scenario` against `kv` with `cfg.threads` batched clients for
/// the configured duration. The caller pre-fills the keyspace (see
/// fill_backend); client writes stay inside [0, num_keys).
TrafficResult run_traffic(KvBackend& kv, const TrafficScenario& scenario,
                          const TrafficConfig& cfg);

/// fillseq for any backend: keys [0, n) (bench_key format) from one
/// thread, then a flush if the backend buffers.
void fill_backend(KvBackend& kv, std::uint64_t n, std::size_t value_size);

}  // namespace hemlock::minikv
