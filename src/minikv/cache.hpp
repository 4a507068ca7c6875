// cache.hpp — sharded LRU block cache, LevelDB-style.
//
// LevelDB routes every table block read through a ShardedLRUCache;
// MiniKV reproduces that layer so the Figure-8 readrandom workload
// has the same memory behaviour (hot blocks served from cache, cold
// reads paying the decode cost). Shards each have their own
// reader-writer mutex — these are *internal* locks, distinct from the
// DB's central mutex that the benchmark contends on (and they use
// std::shared_mutex so cache overhead stays constant while the
// central lock algorithm varies).
//
// The lookup path is a SHARED acquisition: when DB<Lock>::get() runs
// with a shared-mode central lock, its whole read path — snapshot,
// memtable search, block-cache touch — now admits concurrent readers;
// previously the cache's exclusive std::mutex made every cache hit
// briefly re-serialize reads that the central lock had just let
// through together. A shared holder cannot splice the recency list,
// so recency is tracked with a per-entry "referenced" bit (set on
// hit) and eviction runs second-chance/CLOCK over the list: a
// referenced victim is recycled to the front with its bit cleared
// instead of evicted. The scan is bounded by the list length, so one
// insert cannot loop forever under a storm of concurrent touches.
//
// The DBs cache whole table blocks (ShardedLruCache<Block>; layout in
// table.hpp). A miss copies the block's one buffer (keys, values and
// offsets) out of its table, which is two allocations: the shared Block
// and that buffer. A block is charged Block::charge(), which is the
// Block object plus its buffer's bytes, so the byte budget counts what
// the cached blocks actually hold.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace hemlock::minikv {

/// Key for a cached block: (table id, block index).
struct BlockKey {
  std::uint64_t table_id;
  std::uint32_t block_index;

  bool operator==(const BlockKey& o) const {
    return table_id == o.table_id && block_index == o.block_index;
  }
};

struct BlockKeyHash {
  std::size_t operator()(const BlockKey& k) const {
    // 64-bit mix of the two fields (splitmix64 finalizer).
    std::uint64_t x = k.table_id * 0x9E3779B97F4A7C15ULL + k.block_index;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// One cache shard: hash map + recency list, byte-budgeted.
/// Lookups take the shard lock SHARED; mutations (insert/erase) take
/// it exclusive.
template <typename V>
class LruShard {
 public:
  /// Set the shard's byte capacity.
  void set_capacity(std::size_t bytes) { capacity_ = bytes; }

  /// Look up; marks the entry referenced (second-chance recency) on
  /// hit. Shared acquisition — concurrent lookups never serialize.
  std::shared_ptr<V> lookup(const BlockKey& key) {
    std::shared_lock<std::shared_mutex> g(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);  // mo: stats
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);  // mo: stats
    // mo: relaxed — recency hint; losing a race costs one LRU chance.
    it->second.referenced.store(true, std::memory_order_relaxed);
    return it->second.value;
  }

  /// Insert (replacing any existing entry), evicting entries until
  /// within capacity. Second-chance: a victim whose referenced bit is
  /// set gets recycled to the front (bit cleared) instead of evicted;
  /// the walk is bounded by the list length, after which eviction is
  /// unconditional.
  void insert(const BlockKey& key, std::shared_ptr<V> value,
              std::size_t charge) {
    std::lock_guard<std::shared_mutex> g(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      usage_ -= it->second.charge;
      lru_.erase(it->second.lru_pos);
      map_.erase(it);
    }
    lru_.push_front(key);
    auto [pos, inserted] =
        map_.try_emplace(key, std::move(value), charge, lru_.begin());
    (void)pos;
    (void)inserted;
    usage_ += charge;
    std::size_t chances = lru_.size();
    while (usage_ > capacity_ && !lru_.empty()) {
      const BlockKey victim = lru_.back();
      auto vit = map_.find(victim);
      // mo: relaxed — recency hint (exclusive lock held; readers
      // race only with the harmless store in lookup).
      if (chances > 0 &&
          vit->second.referenced.load(std::memory_order_relaxed)) {
        --chances;
        vit->second.referenced.store(false, std::memory_order_relaxed);  // mo: hint
        lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
        vit->second.lru_pos = lru_.begin();
        continue;
      }
      lru_.pop_back();
      usage_ -= vit->second.charge;
      map_.erase(vit);
      ++evictions_;
    }
  }

  /// Remove a specific key if present.
  void erase(const BlockKey& key) {
    std::lock_guard<std::shared_mutex> g(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return;
    usage_ -= it->second.charge;
    lru_.erase(it->second.lru_pos);
    map_.erase(it);
  }

  /// Bytes currently cached.
  std::size_t usage() const {
    std::shared_lock<std::shared_mutex> g(mu_);
    return usage_;
  }
  /// Hit/miss/eviction counters (monotone).
  // mo: relaxed — monotonic stats counters.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);  // mo: stats
  }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::shared_ptr<V> value;
    std::size_t charge;
    typename std::list<BlockKey>::iterator lru_pos;
    /// Set by lookups under the SHARED lock (hence atomic); consumed
    /// by the second-chance eviction walk under the exclusive lock.
    std::atomic<bool> referenced{false};

    Entry(std::shared_ptr<V> v, std::size_t c,
          typename std::list<BlockKey>::iterator pos)
        : value(std::move(v)), charge(c), lru_pos(pos) {}
  };

  mutable std::shared_mutex mu_;
  std::size_t capacity_ = 0;
  std::size_t usage_ = 0;  ///< mutated under exclusive mu_ only
  std::atomic<std::uint64_t> hits_{0}, misses_{0};
  std::uint64_t evictions_ = 0;  ///< exclusive mu_ only
  std::list<BlockKey> lru_;
  std::unordered_map<BlockKey, Entry, BlockKeyHash> map_;
};

/// Sharded LRU cache (16 shards, hash-partitioned) — the LevelDB
/// block-cache shape.
template <typename V>
class ShardedLruCache {
 public:
  static constexpr std::size_t kNumShards = 16;

  /// Total capacity in bytes, split evenly across shards.
  explicit ShardedLruCache(std::size_t capacity_bytes) {
    for (auto& s : shards_) s.set_capacity(capacity_bytes / kNumShards + 1);
  }

  /// Look up a block.
  std::shared_ptr<V> lookup(const BlockKey& key) {
    return shard(key).lookup(key);
  }
  /// Insert a block with its byte charge.
  void insert(const BlockKey& key, std::shared_ptr<V> value,
              std::size_t charge) {
    shard(key).insert(key, std::move(value), charge);
  }
  /// Drop a block.
  void erase(const BlockKey& key) { shard(key).erase(key); }

  /// Aggregate statistics across shards.
  std::uint64_t hits() const { return sum(&LruShard<V>::hits); }
  std::uint64_t misses() const { return sum(&LruShard<V>::misses); }
  std::uint64_t evictions() const { return sum(&LruShard<V>::evictions); }
  std::size_t usage() const {
    std::size_t u = 0;
    for (const auto& s : shards_) u += s.usage();
    return u;
  }

 private:
  LruShard<V>& shard(const BlockKey& key) {
    return shards_[BlockKeyHash{}(key) % kNumShards];
  }
  template <typename Fn>
  std::uint64_t sum(Fn fn) const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += (s.*fn)();
    return total;
  }

  LruShard<V> shards_[kNumShards];
};

}  // namespace hemlock::minikv
