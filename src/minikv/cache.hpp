// cache.hpp — the block cache: sharded CLOCK with epoch-protected,
// lock-free lookups and recycled entries.
//
// LevelDB routes every table block read through a ShardedLRUCache;
// MiniKV reproduces that layer so the Figure-8 readrandom workload has
// the same memory behaviour: hot blocks served from cache, cold reads
// paying a "decode" copy. The shape is LevelDB's (16 hash-partitioned
// shards splitting one byte budget), but a hit takes nothing shared:
//
//  * Lookups take no lock and do no read-modify-write on a shared
//    line. Each shard hangs its entries off a fixed bucket array in
//    singly linked chains; lookup walks one chain with acquire loads,
//    stores the entry's referenced bit only when the bit is clear, and
//    counts the hit or miss on the calling thread's own stripe
//    (runtime/striped_counters.hpp). It returns a `const V*` into the
//    entry.
//  * The epoch contract. That pointer stays valid until the caller's
//    EpochGuard on the cache's domain exits: every holder of a cached
//    value is inside such a guard. The domain is a constructor
//    argument (EpochDomain::global() by default). A lookup may run
//    outside a guard only while no thread inserts or erases
//    concurrently.
//  * Inserts and erases take the shard's std::mutex, which nothing
//    else takes. Eviction is CLOCK: live entries sit on a ring, and
//    the hand clears set referenced bits and evicts the first entry
//    whose bit is clear (after a full sweep, the hand's entry goes
//    unconditionally). An evicted or erased entry is unlinked from its
//    chain, and a lookup already standing on it walks on through its
//    unchanged next pointer.
//  * Recycling, by the rule MiniKV's memtable rows follow
//    (memtable.hpp). The unlinked entry is *dead*: kill() stamps it
//    with the domain's stamp() and appends it to the shard's dead
//    list. An insert copies its value into the oldest dead entry once
//    expired() passes that entry's stamp, reusing the entry's buffer,
//    so a warm miss neither allocates nor frees.
//  * The bound. A shard owns at most its live entries plus kSpareBound
//    dead ones, allocating an entry only below it. At the bound an
//    insert makes one try_advance() and looks again; if a reader still
//    pins the oldest dead entry, the insert is bypassed: it returns
//    nullptr, the caller keeps a copy of its own, and bypassed()
//    counts it. After a refused advance the shard stops trying until
//    the epoch moves, retrying every kRetryEvery-th insert at the
//    bound, so a stalled reader does not turn every miss into a
//    registry scan.
//  * Readers never reclaim. The cache retires nothing into the domain
//    and never drains it; an advance attempt at the bound is all a
//    miss does to the domain (reclaim/epoch.hpp).
//
// The DBs cache whole table blocks (ShardedLruCache<Block>; layout in
// table.hpp) at Block::charge(): the Block object plus its buffer's
// bytes, through the one miss path of minikv/storage.hpp.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "core/verify_hooks.hpp"
#include "reclaim/epoch.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/striped_counters.hpp"

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

/// Sharded CLOCK block cache (the name is LevelDB's). V must be
/// default-constructible and copy-assignable; an insert copy-assigns
/// into a recycled entry, so V should reuse its storage on assignment
/// (Block's buffer is a std::string).
template <typename V>
class ShardedLruCache {
 public:
  static constexpr std::size_t kNumShards = 16;
  /// Dead entries a shard may own beyond its live ones.
  static constexpr std::size_t kSpareBound = 64;
  /// After a refused advance, a shard at its bound tries again on every
  /// kRetryEvery-th insert until the epoch moves.
  static constexpr std::size_t kRetryEvery = 16;

  /// Total capacity in bytes, split evenly across shards; lookups are
  /// protected by EpochGuards on `domain`.
  explicit ShardedLruCache(
      std::size_t capacity_bytes,
      reclaim::EpochDomain& domain = reclaim::EpochDomain::global())
      : ShardedLruCache(capacity_bytes / kNumShards + 1, domain,
                        std::make_index_sequence<kNumShards>{}) {}

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// The cached value under `key`, or nullptr. Valid until the
  /// caller's EpochGuard on domain() exits (see the file comment).
  const V* lookup(const BlockKey& key) {
    const std::size_t h = BlockKeyHash{}(key);
    const V* v = shard(h).lookup(key, h);
    counts_.add(v != nullptr ? kHits : kMisses);
    return v;
  }

  /// Cache a copy of `value` under `key` at `charge` bytes, replacing
  /// any entry already there, and return the cached copy (valid as a
  /// lookup's). nullptr when the insert was bypassed: the shard is at
  /// its entry bound, or `charge` exceeds a shard's capacity.
  const V* insert(const BlockKey& key, const V& value, std::size_t charge) {
    const std::size_t h = BlockKeyHash{}(key);
    const V* v = shard(h).insert(key, h, value, charge, domain_);
    if (v == nullptr) counts_.add(kBypassed);
    return v;
  }
  /// As above, copying `*value`.
  void insert(const BlockKey& key, std::shared_ptr<V> value,
              std::size_t charge) {
    insert(key, *value, charge);
  }

  /// Drop a block.
  void erase(const BlockKey& key) {
    const std::size_t h = BlockKeyHash{}(key);
    shard(h).erase(key, h, domain_);
  }

  /// The domain whose EpochGuards protect lookups.
  reclaim::EpochDomain& domain() const { return domain_; }

  /// Lookups that hit / missed, and inserts that were bypassed.
  std::uint64_t hits() const { return counts_.sum(kHits); }
  std::uint64_t misses() const { return counts_.sum(kMisses); }
  std::uint64_t bypassed() const { return counts_.sum(kBypassed); }

  /// Entries the cache holds: `live` are cached, `owned` adds the dead
  /// ones (each shard's stay within kSpareBound), `allocated` counts
  /// every entry ever allocated. `usage` is the bytes cached,
  /// `evictions` the entries the CLOCK hand evicted.
  struct Footprint {
    std::size_t live = 0;
    std::size_t owned = 0;
    std::uint64_t allocated = 0;
    std::size_t usage = 0;
    std::uint64_t evictions = 0;
  };
  Footprint footprint() const {
    Footprint f;
    for (const Shard& s : shards_) s.add_footprint(&f);
    return f;
  }
  std::size_t usage() const { return footprint().usage; }
  std::uint64_t evictions() const { return footprint().evictions; }

 private:
  enum Count : std::size_t { kHits, kMisses, kBypassed, kNumCounts };

  /// A cached value with its chain link (read by lookups) and its
  /// writer-side state (under the shard's mutex).
  struct Entry {
    std::atomic<Entry*> chain{nullptr};  ///< next in the bucket chain
    BlockKey key{};
    std::atomic<bool> referenced{false};
    V value{};
    std::size_t hash = 0;
    std::size_t charge = 0;
    std::uint64_t stamp = 0;     ///< the domain's stamp() at kill()
    Entry* ring_prev = nullptr;  ///< CLOCK ring, while live
    Entry* ring_next = nullptr;  ///< CLOCK ring; while dead, the next younger
  };

  class alignas(kCacheLineSize) Shard {
   public:
    explicit Shard(std::size_t capacity)
        : capacity_(capacity),
          buckets_(std::make_unique<std::atomic<Entry*>[]>(
              bucket_count(capacity))),
          mask_(bucket_count(capacity) - 1) {}

    /// Requires that no thread uses the cache: frees the live and dead
    /// entries.
    ~Shard() {
      if (hand_ != nullptr) {
        hand_->ring_prev->ring_next = nullptr;  // open the ring
        while (hand_ != nullptr) delete std::exchange(hand_, hand_->ring_next);
      }
      while (oldest_dead_ != nullptr) {
        delete std::exchange(oldest_dead_, oldest_dead_->ring_next);
      }
    }

    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    const V* lookup(const BlockKey& key, std::size_t hash) {
      // mo: acquire — pairs with the release stores that link and
      // unlink entries: an entry's key and value are visible before
      // any pointer to it.
      for (Entry* e = bucket(hash).load(std::memory_order_acquire);
           e != nullptr;
           e = e->chain.load(std::memory_order_acquire)) {  // mo: as above
        if (e->key == key) {
          // mo: relaxed — a recency hint for the CLOCK hand. Stored
          // only when clear, so a hot entry's line stays shared.
          if (!e->referenced.load(std::memory_order_relaxed)) {
            e->referenced.store(true, std::memory_order_relaxed);  // mo: hint
          }
          return &e->value;
        }
      }
      return nullptr;
    }

    const V* insert(const BlockKey& key, std::size_t hash, const V& value,
                    std::size_t charge, reclaim::EpochDomain& domain) {
      if (charge > capacity_) return nullptr;
      std::lock_guard<std::mutex> lock(mu_);
      Entry* e = take_spare(domain);
      if (e == nullptr) return nullptr;  // at the bound: bypass
      if (Entry* old = find(key, hash)) kill(old, domain);
      // Make room. Each eviction adds a dead entry, and linking e takes
      // a spare away, so evicting only while spares are within the
      // bound keeps the shard within it once e is linked.
      while (usage_ + charge > capacity_ && owned_ - live_ <= kSpareBound) {
        ++evictions_;
        kill(clock_victim(), domain);
      }
      if (usage_ + charge > capacity_) {
        // The loop stopped one spare past the bound without making room
        // (larger blocks were evicting smaller ones): drop e, which no
        // reader can reach, back to the bound, and bypass.
        delete e;
        --owned_;
        return nullptr;
      }
      e->key = key;
      e->hash = hash;
      e->charge = charge;
      e->value = value;
      link(e);
      return &e->value;
    }

    void erase(const BlockKey& key, std::size_t hash,
               reclaim::EpochDomain& domain) {
      std::lock_guard<std::mutex> lock(mu_);
      if (Entry* e = find(key, hash)) kill(e, domain);
    }

    void add_footprint(Footprint* f) const {
      std::lock_guard<std::mutex> lock(mu_);
      f->live += live_;
      f->owned += owned_;
      f->allocated += allocations_;
      f->usage += usage_;
      f->evictions += evictions_;
    }

   private:
    /// One bucket per 2 KiB of capacity (a 16-entry block of 100-byte
    /// values charges about that), a power of two in [16, 4096].
    static std::size_t bucket_count(std::size_t capacity) {
      return std::clamp<std::size_t>(std::bit_ceil(capacity / 2048), 16, 4096);
    }
    std::atomic<Entry*>& bucket(std::size_t hash) {
      // The low bits picked the shard; the chain takes the next ones.
      return buckets_[(hash / kNumShards) & mask_];
    }

    // ---- under mu_ ---------------------------------------------------

    /// The entry an insert fills: the oldest dead one once the epoch
    /// has passed it; else a new one while the shard is below its
    /// bound; else, after one advance attempt, the oldest dead one if
    /// that attempt let it expire. nullptr: bypass.
    Entry* take_spare(reclaim::EpochDomain& domain) {
      if (Entry* e = take_expired(domain)) return e;
      if (owned_ - live_ < kSpareBound) {
        ++owned_;
        ++allocations_;
        return new Entry;
      }
      // After a refused advance (a reader in an older epoch), none can
      // succeed before the epoch moves: wait for that, retrying every
      // kRetryEvery-th insert in case the reader has left.
      const std::uint64_t epoch = domain.epoch();
      if (epoch == stuck_epoch_ && ++stuck_skips_ % kRetryEvery != 0) {
        return nullptr;
      }
      stuck_epoch_ = domain.try_advance() ? 0 : epoch;
      stuck_skips_ = 0;
      return take_expired(domain);
    }

    /// The oldest dead entry, taken off the dead list, if every reader
    /// that could still hold it has left its epoch; or nullptr.
    Entry* take_expired(const reclaim::EpochDomain& domain) {
      Entry* e = oldest_dead_;
      if (e == nullptr) return nullptr;
      if (!domain.expired(e->stamp) &&
          !HEMLOCK_VERIFY_MUTANT("cache:recycle-early")) {
        return nullptr;
      }
      oldest_dead_ = e->ring_next;
      if (oldest_dead_ == nullptr) newest_dead_ = nullptr;
      return e;
    }

    Entry* find(const BlockKey& key, std::size_t hash) {
      // mo: relaxed — the mutex orders every store to the chains.
      for (Entry* e = bucket(hash).load(std::memory_order_relaxed);
           e != nullptr;
           e = e->chain.load(std::memory_order_relaxed)) {  // mo: as above
        if (e->key == key) return e;
      }
      return nullptr;
    }

    /// Publish e (key, value and charge set) at its chain's head and
    /// just behind the hand, where the CLOCK sweep reaches it last.
    void link(Entry* e) {
      // mo: relaxed — a fresh entry starts unreferenced, as in LevelDB.
      e->referenced.store(false, std::memory_order_relaxed);
      std::atomic<Entry*>& head = bucket(e->hash);
      // mo: relaxed — the release store below publishes this link.
      e->chain.store(head.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      // mo: release — publishes e's key, value and link to lookups.
      head.store(e, std::memory_order_release);
      if (hand_ == nullptr) {
        e->ring_prev = e->ring_next = hand_ = e;
      } else {
        e->ring_next = hand_;
        e->ring_prev = hand_->ring_prev;
        hand_->ring_prev->ring_next = e;
        hand_->ring_prev = e;
      }
      ++live_;
      usage_ += e->charge;
    }

    /// The CLOCK victim: clear set referenced bits until the hand
    /// rests on a clear one, at most one sweep of the ring.
    Entry* clock_victim() {
      for (std::size_t chances = live_; chances > 0; --chances) {
        // mo: relaxed — recency hints; lookups race only to set them.
        if (!hand_->referenced.load(std::memory_order_relaxed)) break;
        hand_->referenced.store(false, std::memory_order_relaxed);  // mo: hint
        hand_ = hand_->ring_next;
      }
      return hand_;
    }

    /// Unlink e from its chain and the ring, stamp it after the unlink,
    /// as EpochDomain::retire() stamps, and append it to the dead list.
    void kill(Entry* e, reclaim::EpochDomain& domain) {
      std::atomic<Entry*>* link = &bucket(e->hash);
      // mo: relaxed — the mutex orders every store to the chains.
      while (link->load(std::memory_order_relaxed) != e) {
        link = &link->load(std::memory_order_relaxed)->chain;  // mo: as above
      }
      // mo: release — a lookup that reads the successor through this
      // store also sees the successor's key and value. e keeps its own
      // link, so a lookup standing on e walks on.
      link->store(e->chain.load(std::memory_order_relaxed),
                  std::memory_order_release);
      if (e->ring_next == e) {
        hand_ = nullptr;
      } else {
        if (hand_ == e) hand_ = e->ring_next;
        e->ring_prev->ring_next = e->ring_next;
        e->ring_next->ring_prev = e->ring_prev;
      }
      --live_;
      usage_ -= e->charge;
      e->stamp = domain.stamp();
      e->ring_next = nullptr;
      if (newest_dead_ != nullptr) {
        newest_dead_->ring_next = e;
      } else {
        oldest_dead_ = e;
      }
      newest_dead_ = e;
    }

    // Read by every lookup; written only by the constructor.
    const std::size_t capacity_;
    const std::unique_ptr<std::atomic<Entry*>[]> buckets_;
    const std::size_t mask_;

    // Written by inserts and erases, under mu_.
    alignas(kCacheLineSize) mutable std::mutex mu_;
    Entry* hand_ = nullptr;         ///< CLOCK hand on the ring of live entries
    Entry* oldest_dead_ = nullptr;  ///< the dead list, oldest first
    Entry* newest_dead_ = nullptr;
    std::uint64_t stuck_epoch_ = 0;  ///< epoch of the last refused advance; 0: none
    std::size_t stuck_skips_ = 0;    ///< advances skipped since
    std::size_t live_ = 0;
    std::size_t owned_ = 0;  ///< live + dead
    std::size_t usage_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t allocations_ = 0;
  };

  template <std::size_t... I>
  ShardedLruCache(std::size_t shard_capacity, reclaim::EpochDomain& domain,
                  std::index_sequence<I...>)
      : domain_(domain),
        shards_{(static_cast<void>(I), Shard(shard_capacity))...} {}

  Shard& shard(std::size_t hash) { return shards_[hash % kNumShards]; }

  reclaim::EpochDomain& domain_;
  Shard shards_[kNumShards];
  StripedCounters<kNumCounts> counts_;
};

}  // namespace hemlock::minikv
