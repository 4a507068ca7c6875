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
//    unchanged next pointer. It then joins the shard's filling batch.
//  * Recycling. A batch of kBatch entries goes through the domain's
//    allocation-free retire(). Once the grace period is over, the
//    batch's reclaim hook returns its entries to the shard's pool
//    instead of freeing them. An insert copies the value into a pooled
//    entry, reusing that entry's buffer, so a warm miss neither
//    allocates nor frees.
//  * The bound. Per shard, the entries the cache owns (live, filling,
//    retired and pooled) stay within the live ones plus kMaxBatches
//    batches. When the pool is empty, an insert first runs a bounded
//    drain() of the domain (which may run any retiree's reclaim hook,
//    the DB's memtable and version deleters too). If the shard is
//    still at its bound (a stalled reader pins its retired batches),
//    the insert is bypassed: it returns nullptr, the caller keeps a
//    copy of its own, and bypassed() counts it. A drain that brings
//    nothing back while the epoch stays put means a reader refused the
//    advance; the shard then skips drains until the epoch moves,
//    retrying once per kBatch inserts, so a stalled reader does not
//    turn every miss into a registry scan and a limbo walk. A retired
//    batch shares ownership of its pool, so a batch drained after the
//    cache is destroyed still frees its entries.
//  * Admission. A shard is full when a block of the charge it last
//    linked or unlinked would not fit: an insert there has to evict.
//    Each shard keeps that as one word beside the fields lookups load,
//    stored under the mutex only when it flips, so in steady state it
//    costs lookups nothing. A caller that can keep a miss's copy itself
//    asks admit() first: a miss on a shard with room is cached, and on
//    a full shard only every kAdmitEvery-th such miss of the calling
//    thread is. The rest are declined (declined() counts them): the
//    caller copies the block into its own buffer, so a declined miss
//    takes no mutex, evicts, retires and allocates nothing, and writes
//    no shared line. A cache that turns over every few milliseconds
//    would otherwise evict, on most misses, a block that would have
//    hit again; caching one full-shard miss in eight keeps the hit
//    ratio (a kv-zipf trace replay reads 0.565 against 0.548 for
//    caching every miss, and less from one in 16 on) at an eighth of
//    the inserts.
//
// The DBs cache whole table blocks (ShardedLruCache<Block>; layout in
// table.hpp) at Block::charge(): the Block object plus its buffer's
// bytes. minikv/storage.hpp holds the miss path: point lookups admit
// and keep declined copies in a per-thread buffer, scans insert every
// miss.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

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
  /// Evicted entries retired per retire() call.
  static constexpr std::size_t kBatch = 16;
  /// Spare entries a shard may own beyond its live ones, in batches.
  static constexpr std::size_t kMaxBatches = 4;
  /// A thread caches one of every kAdmitEvery of its misses on full
  /// shards (admit()).
  static constexpr std::uint32_t kAdmitEvery = 8;

  /// Total capacity in bytes, split evenly across shards; lookups are
  /// protected by EpochGuards on `domain`.
  explicit ShardedLruCache(
      std::size_t capacity_bytes,
      reclaim::EpochDomain& domain = reclaim::EpochDomain::global())
      : ShardedLruCache(capacity_bytes / kNumShards + 1, domain,
                        std::make_index_sequence<kNumShards>{}) {}

  /// Requires that no thread uses the cache. Frees the live and pooled
  /// entries; a retired batch keeps its pool alive until it drains.
  ~ShardedLruCache() {
    for (int i = 0; i < 2; ++i) domain_.drain(kNumShards * kMaxBatches);
  }

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

  /// Whether to cache a miss on `key`: always while its shard has
  /// room, and on a full shard (file comment) every kAdmitEvery-th such
  /// miss of the calling thread. false counts a declined miss; the
  /// caller then keeps its own copy and must not insert it.
  bool admit(const BlockKey& key) {
    if (!shard(BlockKeyHash{}(key)).full()) return true;
    thread_local std::uint32_t full_misses = 0;
    if (++full_misses % kAdmitEvery == 0) return true;
    counts_.add(kDeclined);
    return false;
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

  /// Lookups that hit / missed, misses admit() declined, and inserts
  /// that were bypassed.
  std::uint64_t hits() const { return counts_.sum(kHits); }
  std::uint64_t misses() const { return counts_.sum(kMisses); }
  std::uint64_t declined() const { return counts_.sum(kDeclined); }
  std::uint64_t bypassed() const { return counts_.sum(kBypassed); }

  /// Entries the cache holds: `live` are cached, `owned` adds the
  /// spares (filling, retired and pooled; each shard's stay within
  /// kMaxBatches * kBatch), `allocated` counts every entry ever
  /// allocated. `usage` is the bytes cached, `evictions` the entries
  /// the CLOCK hand evicted, `full_shards` the shards admit() reads as
  /// full.
  struct Footprint {
    std::size_t live = 0;
    std::size_t owned = 0;
    std::uint64_t allocated = 0;
    std::size_t usage = 0;
    std::uint64_t evictions = 0;
    std::size_t full_shards = 0;
  };
  Footprint footprint() const {
    Footprint f;
    for (const Shard& s : shards_) s.add_footprint(&f);
    return f;
  }
  std::size_t usage() const { return footprint().usage; }
  std::uint64_t evictions() const { return footprint().evictions; }

 private:
  enum Count : std::size_t {
    kHits,
    kMisses,
    kDeclined,
    kBypassed,
    kNumCounts
  };
  static constexpr std::size_t kSpareBound = kMaxBatches * kBatch;

  struct Pool;

  /// A cached value with its chain link (read by lookups) and its
  /// writer-side state (under the shard's mutex). The RetireNode base
  /// carries a retired batch through the domain; batch_pool keeps the
  /// batch's pool alive until its reclaim hook has run.
  struct Entry : reclaim::EpochDomain::RetireNode {
    std::atomic<Entry*> chain{nullptr};  ///< next in the bucket chain
    BlockKey key{};
    std::atomic<bool> referenced{false};
    V value{};
    std::size_t hash = 0;
    std::size_t charge = 0;
    Entry* ring_prev = nullptr;  ///< CLOCK ring, while live
    Entry* ring_next = nullptr;  ///< CLOCK ring; else batch or pool link
    std::shared_ptr<Pool> batch_pool;
  };

  /// Spare entries that have served their grace period, and the
  /// shard's mutex. Shared by the shard and its retired batches.
  struct Pool {
    std::mutex mu;
    Entry* free = nullptr;     ///< under mu
    std::size_t retired = 0;   ///< entries in retired batches; under mu

    Pool() = default;
    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;
    ~Pool() {
      while (free != nullptr) delete std::exchange(free, free->ring_next);
    }
  };

  class alignas(kCacheLineSize) Shard {
   public:
    explicit Shard(std::size_t capacity)
        : capacity_(capacity),
          buckets_(std::make_unique<std::atomic<Entry*>[]>(
              bucket_count(capacity))),
          mask_(bucket_count(capacity) - 1) {}

    ~Shard() {
      if (hand_ != nullptr) {
        hand_->ring_prev->ring_next = nullptr;  // open the ring
        while (hand_ != nullptr) delete std::exchange(hand_, hand_->ring_next);
      }
      while (filling_ != nullptr) {
        delete std::exchange(filling_, filling_->ring_next);
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

    /// Whether an insert here would have to evict (file comment).
    bool full() const {
      // mo: relaxed — an admission hint: a stale read caches or
      // declines one miss more, and inserts recheck under the mutex.
      return full_.load(std::memory_order_relaxed);
    }

    const V* insert(const BlockKey& key, std::size_t hash, const V& value,
                    std::size_t charge, reclaim::EpochDomain& domain) {
      if (charge > capacity_) return nullptr;
      std::unique_lock<std::mutex> lock(pool_->mu);
      if (pool_->free == nullptr && pool_->retired > 0 &&
          drain_may_help(domain)) {
        // A bounded drain may hand retired batches back to the pool.
        const std::uint64_t before = domain.epoch();
        lock.unlock();
        const std::size_t freed = domain.drain(kMaxBatches);
        lock.lock();
        // Nothing came back, nothing else was left to free, and the
        // epoch did not move: a reader in an older epoch refused the
        // advance, so no drain can help before the epoch moves.
        const bool stuck = pool_->free == nullptr && freed < kMaxBatches &&
                           domain.epoch() == before;
        stuck_epoch_ = stuck ? before : 0;
        stuck_skips_ = 0;
      }
      Entry* e = pool_->free;
      if (e != nullptr) {
        pool_->free = e->ring_next;
      } else if (owned_ - live_ < kSpareBound) {
        e = new Entry;
        ++owned_;
        ++allocations_;
      } else {
        return nullptr;  // at the bound: bypass
      }
      if (Entry* old = find(key, hash)) retire_entry(old, domain);
      // Make room. Each eviction adds a spare, and linking e takes one
      // away, so evicting only while spares are within the bound keeps
      // the shard within it once e is linked.
      while (usage_ + charge > capacity_ && owned_ - live_ <= kSpareBound) {
        ++evictions_;
        retire_entry(clock_victim(), domain);
      }
      if (usage_ + charge > capacity_) {
        // The loop stopped one spare past the bound without making room
        // (larger blocks were evicting smaller ones): drop e, back to the
        // bound, and bypass.
        delete e;
        --owned_;
        note_room(charge);
        return nullptr;
      }
      e->key = key;
      e->hash = hash;
      e->charge = charge;
      e->value = value;
      link(e);
      note_room(charge);
      return &e->value;
    }

    void erase(const BlockKey& key, std::size_t hash,
               reclaim::EpochDomain& domain) {
      std::lock_guard<std::mutex> lock(pool_->mu);
      if (Entry* e = find(key, hash)) {
        const std::size_t charge = e->charge;
        retire_entry(e, domain);  // may hand e to the domain
        note_room(charge);
      }
    }

    void add_footprint(Footprint* f) const {
      std::lock_guard<std::mutex> lock(pool_->mu);
      f->live += live_;
      f->owned += owned_;
      f->allocated += allocations_;
      f->usage += usage_;
      f->evictions += evictions_;
      f->full_shards += full() ? 1 : 0;
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

    // ---- under pool_->mu ---------------------------------------------

    /// Whether a drain is worth its advance attempt and limbo walk.
    /// After a stuck drain, the next waits for the epoch to move, or
    /// for kBatch inserts that would have drained, in case the reader
    /// that refused the advance has left.
    bool drain_may_help(const reclaim::EpochDomain& domain) {
      return domain.epoch() != stuck_epoch_ || ++stuck_skips_ % kBatch == 0;
    }

    /// After usage_ changed by a block of `charge`: the shard is full
    /// while another such block would not fit. Stored only when that
    /// flips, so lookups keep this line shared.
    void note_room(std::size_t charge) {
      const bool full = usage_ + charge > capacity_;
      // mo: relaxed — the mutex orders the writers; full() is a hint.
      if (full_.load(std::memory_order_relaxed) != full) {
        full_.store(full, std::memory_order_relaxed);  // mo: as above
      }
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

    /// Unlink e from its chain and the ring, and add it to the filling
    /// batch, retiring the batch once it is full.
    void retire_entry(Entry* e, reclaim::EpochDomain& domain) {
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
      e->ring_next = filling_;
      filling_ = e;
      if (++filling_count_ < kBatch) return;
      filling_->batch_pool = pool_;
      pool_->retired += kBatch;
      domain.retire(std::exchange(filling_, nullptr), &recycle);
      filling_count_ = 0;
    }

    /// A retired batch's reclaim hook: its grace period is over, so no
    /// lookup can still reach its entries; back to the pool with them.
    static void recycle(reclaim::EpochDomain::RetireNode* node) {
      Entry* head = static_cast<Entry*>(node);
      const std::shared_ptr<Pool> pool = std::move(head->batch_pool);
      Entry* tail = head;
      while (tail->ring_next != nullptr) tail = tail->ring_next;
      std::lock_guard<std::mutex> lock(pool->mu);
      tail->ring_next = pool->free;
      pool->free = head;
      pool->retired -= kBatch;
    }  // the last batch of a destroyed cache frees the pool here

    // Read by every lookup; written only by the constructor.
    const std::size_t capacity_;
    const std::unique_ptr<std::atomic<Entry*>[]> buckets_;
    const std::size_t mask_;
    // Read by misses; stored under pool_->mu when it flips (note_room).
    std::atomic<bool> full_{false};

    // Written by inserts and erases, under pool_->mu.
    alignas(kCacheLineSize) const std::shared_ptr<Pool> pool_ =
        std::make_shared<Pool>();
    Entry* hand_ = nullptr;     ///< CLOCK hand on the ring of live entries
    Entry* filling_ = nullptr;  ///< evicted entries not yet retired
    std::size_t filling_count_ = 0;
    std::uint64_t stuck_epoch_ = 0;  ///< epoch of the last stuck drain; 0: none
    std::size_t stuck_skips_ = 0;    ///< drains skipped since
    std::size_t live_ = 0;
    std::size_t owned_ = 0;  ///< live + spares (filling, retired, pooled)
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
