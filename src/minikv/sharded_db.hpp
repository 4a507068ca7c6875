// sharded_db.hpp — the sharded MiniKV serving layer: N hash-
// partitioned shards, per-shard runtime-chosen locks, and epoch-
// protected lock-free reads.
//
// DB<Lock> (db.hpp) reproduces LevelDB's single central mutex — the
// paper's Figure-8 bottleneck. ShardedDB is what a *serving system*
// built on the same storage shape looks like: the keyspace is hash-
// partitioned across shards, each shard is a miniature LevelDB
// (memtable + immutable table version + shared block cache) guarded
// by its own lock, and the default Get() path holds NO lock at all:
//
//   * Writers (put/del/flush/compact) hold the shard lock. They
//     replace the shard's memtable/version by PUBLISHING new pointers
//     (release stores) and retire the old structures to an epoch
//     domain (src/reclaim/epoch.hpp) instead of freeing them.
//   * Readers bracket their traversal with an EpochGuard and load the
//     published pointers (acquire). The publication order is load-
//     bearing: writers store the new version BEFORE the new memtable,
//     readers load the memtable BEFORE the version — so a reader that
//     observes the post-flush (empty) memtable is guaranteed to
//     observe the version holding the flushed table, and no key ever
//     vanishes mid-flush.
//   * A locked fallback (ShardedDbOptions::epoch_reads = false) takes
//     the shard lock in shared mode instead — the direct comparison
//     point for "when does QSBR beat a shared-mode lock" (README).
//     Its table reads still enter the epoch: the block cache's entries
//     are recycled through this DB's domain, so every holder of a
//     cached block is inside an EpochGuard (minikv/cache.hpp).
//
// Deletes exist at this layer (the central DB has none) via a 1-byte
// value tag: 'V' + payload for live values, 'T' for tombstones. The
// tag never touches the memtable/table formats; tombstones are elided
// during a shard's full-merge compaction, which is correct precisely
// because that compaction folds EVERY table of the shard into one
// (there is no older source left for a tombstone to shadow).
//
// The block cache, table search, flush and compaction are the storage
// core (minikv/storage.hpp) this layer shares with DB<Lock>. A get
// that reaches a table copies the found value, tag stripped, straight
// out of the pinned block into the caller's string.
//
// Every operation hashes its key once (detail::hash_key, slice.hpp):
// the router picks the shard from the hash's top bits by multiply-
// shift, so any shard count works, and the memtable's buckets and the
// tables' hash directories read its low bits, which the router leaves
// free within a shard.
//
// Cross-shard Scan() enters/exits the epoch once per shard, collects
// each shard's bounded prefix with the same merge_scan the central DB
// uses, then merges — shards partition the keyspace, so the global
// result is a sort of disjoint per-shard results.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/any_lock.hpp"
#include "locks/lockable.hpp"
#include "minikv/cache.hpp"
#include "minikv/memtable.hpp"
#include "minikv/scan.hpp"
#include "minikv/slice.hpp"
#include "minikv/status.hpp"
#include "minikv/storage.hpp"
#include "minikv/table.hpp"
#include "reclaim/epoch.hpp"
#include "runtime/annotations.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/striped_counters.hpp"

namespace hemlock::minikv {

/// Tuning knobs for the sharded serving layer.
struct ShardedDbOptions {
  /// Number of hash partitions (each with its own lock + memtable +
  /// table version); at least 1.
  std::size_t num_shards = 16;
  /// Per-shard memtable budget before an inline flush (also sizes the
  /// memtable's hash index).
  std::size_t write_buffer_bytes = MemTable::kDefaultWriteBufferBytes;
  /// Block cache capacity, shared across all shards (table ids are
  /// DB-unique, so one cache serves every shard).
  std::size_t block_cache_bytes = 256 << 20;  // 256 MiB
  /// Entries per table block (at least 1).
  std::size_t block_fanout = ImmutableTable::kDefaultBlockFanout;
  /// Per-shard full-merge compaction trigger (table count).
  std::size_t compaction_trigger = 8;
  /// true: Get()/Scan() run lock-free under epoch protection (the
  /// point of this layer). false: they take the shard lock in shared
  /// mode instead — the comparison baseline.
  bool epoch_reads = true;
  /// Reclamation work bound per write that triggered a flush.
  std::size_t drain_batch = reclaim::EpochDomain::kDefaultDrainBatch;
};

/// Operation counters + the reclamation domain's view.
struct ShardedDbStats {
  std::uint64_t epoch_gets = 0;   ///< lock-free gets served
  std::uint64_t locked_gets = 0;  ///< shared-mode fallback gets
  /// Gets (either tier) the memtable did not answer: they searched the
  /// tables, through the block cache.
  std::uint64_t table_gets = 0;
  std::uint64_t scans = 0;
  std::uint64_t puts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  reclaim::DomainStats reclaim;
};

/// Sharded MiniKV database. ShardLock is the per-shard lock type;
/// the default AnyLock selects its algorithm at run time by factory
/// name: ShardedDB<> db(opts, "hemlock-futex");
template <BasicLockable ShardLock = AnyLock>
class ShardedDB {
 public:
  /// Default-constructed shard locks; reclamation through `domain`
  /// (nullptr = the process-global EpochDomain). Every constructor
  /// throws std::invalid_argument for 0 shards or a block_fanout of 0.
  explicit ShardedDB(ShardedDbOptions options = ShardedDbOptions{},
                     reclaim::EpochDomain* domain = nullptr)
      : options_(checked(options)),
        domain_(domain != nullptr ? domain : &reclaim::EpochDomain::global()),
        cache_(options.block_cache_bytes, *domain_) {
    shards_.reserve(options_.num_shards);
    for (std::size_t i = 0; i < options_.num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(options_.write_buffer_bytes));
    }
  }

  /// As above, constructing every shard's lock from `lock_args` —
  /// how AnyLock shards name their algorithm:
  /// ShardedDB<> db(opts, nullptr, "mcs"); (args are reused per
  /// shard, hence taken by const reference rather than forwarded; the
  /// domain comes before the pack so the pack stays deducible).
  template <typename... LockArgs>
    requires(sizeof...(LockArgs) > 0)
  ShardedDB(ShardedDbOptions options, reclaim::EpochDomain* domain,
            const LockArgs&... lock_args)
      : options_(checked(options)),
        domain_(domain != nullptr ? domain : &reclaim::EpochDomain::global()),
        cache_(options.block_cache_bytes, *domain_) {
    shards_.reserve(options_.num_shards);
    for (std::size_t i = 0; i < options_.num_shards; ++i) {
      shards_.push_back(
          std::make_unique<Shard>(options_.write_buffer_bytes, lock_args...));
    }
  }

  /// Named/derived shard locks with the process-global domain:
  /// ShardedDB<> db(opts, "mcs"); (A first argument of EpochDomain*
  /// selects the overload above instead — exact non-template match.)
  template <typename... LockArgs>
    requires(sizeof...(LockArgs) > 0)
  explicit ShardedDB(ShardedDbOptions options, const LockArgs&... lock_args)
      : ShardedDB(options, static_cast<reclaim::EpochDomain*>(nullptr),
                  lock_args...) {}

  ShardedDB(const ShardedDB&) = delete;
  ShardedDB& operator=(const ShardedDB&) = delete;

  /// Requires external quiescence (no concurrent operations), like
  /// every destructor in the library. Frees the live structures and
  /// makes a bounded effort to drain this DB's retired garbage; any
  /// remainder (e.g. a stalled reader elsewhere in a shared domain)
  /// stays safely parked in the domain and is freed by later drains.
  ~ShardedDB() {
    for (auto& s : shards_) {
      // mo: relaxed — destructor requires external quiescence; no
      // concurrent publisher or reader exists to order against.
      delete s->mem.load(std::memory_order_relaxed);
      delete s->version.load(std::memory_order_relaxed);
    }
    for (int i = 0; i < 3; ++i) {  // two advances free everything retired
      domain_->drain(~std::size_t{0});
    }
  }

  /// Insert or overwrite key -> value.
  Status put(const Slice& key, const Slice& value) {
    std::string tagged;
    tagged.reserve(value.size() + 1);
    tagged.push_back(kValueTag);
    tagged.append(value.data(), value.size());
    ops_.add(kPuts);
    return write(key, Slice(tagged));
  }

  /// Delete key (tombstone write; the key disappears from gets and
  /// scans immediately, storage is reclaimed at compaction).
  Status del(const Slice& key) {
    const char tomb[1] = {kTombstoneTag};
    ops_.add(kDeletes);
    return write(key, Slice(tomb, 1));
  }

  /// Point lookup. Default: lock-free under epoch protection — the
  /// shard lock is untouched, writers retire rather than free, and
  /// the epoch guard keeps every structure this thread can reach
  /// alive. Fallback (epoch_reads=false): shard lock, shared mode.
  Status get(const Slice& key, std::string* value) {
    const std::uint64_t hash = detail::hash_key(key);
    Shard& s = shard_for(hash);
    if (options_.epoch_reads) {
      ops_.add(kEpochGets);
      reclaim::EpochGuard g(*domain_);
      return search_shard(s, key, hash, value);
    }
    ops_.add(kLockedGets);
    if constexpr (SharedLockable<ShardLock>) {
      SharedLockGuard<ShardLock> g(s.mu.value);
      return search_shard(s, key, hash, value);
    } else {  // exclusive-only algorithm: readers serialize
      LockGuard<ShardLock> g(s.mu.value);
      return search_shard(s, key, hash, value);
    }
  }

  /// Range scan: up to `limit` live entries with key >= `start`,
  /// ascending across the whole keyspace. Enters/exits the epoch (and
  /// in the locked tier the shard lock) once per shard; shards
  /// partition the keyspace, so the merged result is the sorted union
  /// of bounded per-shard prefixes.
  std::size_t scan(const Slice& start, std::size_t limit,
                   std::vector<std::pair<std::string, std::string>>* out) {
    out->clear();
    if (limit == 0) return 0;
    ops_.add(kScans);
    std::vector<std::pair<std::string, std::string>> all;
    for (auto& sp : shards_) {
      Shard& s = *sp;
      if (options_.epoch_reads) {
        reclaim::EpochGuard g(*domain_);
        collect_shard(s, start, limit, &all);
      } else if constexpr (SharedLockable<ShardLock>) {
        SharedLockGuard<ShardLock> g(s.mu.value);
        reclaim::EpochGuard pin(*domain_);  // the leg's cached blocks
        collect_shard(s, start, limit, &all);
      } else {
        LockGuard<ShardLock> g(s.mu.value);
        reclaim::EpochGuard pin(*domain_);  // the leg's cached blocks
        collect_shard(s, start, limit, &all);
      }
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      return Slice(a.first).compare(Slice(b.first)) < 0;
    });
    if (all.size() > limit) all.resize(limit);
    *out = std::move(all);
    return out->size();
  }

  /// Force every shard's memtable into an immutable table.
  void flush() {
    for (auto& sp : shards_) {
      LockGuard<ShardLock> g(sp->mu.value);
      flush_shard_locked(*sp);
    }
    domain_->drain(options_.drain_batch);
  }

  /// Bounded reclamation step (also runs automatically after flushes
  /// triggered by writes). Returns objects freed.
  std::size_t reclaim_drain(std::size_t max_frees) {
    return domain_->drain(max_frees);
  }

  /// Shard count.
  std::size_t num_shards() const { return shards_.size(); }
  /// Total immutable tables across shards (diagnostics).
  std::size_t num_tables() {
    std::size_t n = 0;
    for (auto& sp : shards_) {
      LockGuard<ShardLock> g(sp->mu.value);
      // mo: relaxed — mu is held, so the published pointer is stable.
      n += sp->version.load(std::memory_order_relaxed)->tables.size();
    }
    return n;
  }

  /// Block cache statistics.
  std::uint64_t cache_hits() const { return cache_.hits(); }
  std::uint64_t cache_misses() const { return cache_.misses(); }

  /// Operation + reclamation counters, exact once operations quiesce.
  ShardedDbStats stats() const {
    ShardedDbStats st;
    st.epoch_gets = ops_.sum(kEpochGets);
    st.locked_gets = ops_.sum(kLockedGets);
    st.table_gets = ops_.sum(kTableGets);
    st.scans = ops_.sum(kScans);
    st.puts = ops_.sum(kPuts);
    st.deletes = ops_.sum(kDeletes);
    // mo: relaxed — monotonic stats counters; no ordering implied.
    st.flushes = flushes_.load(std::memory_order_relaxed);
    st.compactions = compactions_.load(std::memory_order_relaxed);
    st.reclaim = domain_->stats();
    return st;
  }

  /// The epoch domain this DB retires into.
  reclaim::EpochDomain& domain() { return *domain_; }

  static constexpr char kValueTag = 'V';
  static constexpr char kTombstoneTag = 'T';

 private:
  struct Shard {
    CacheAligned<ShardLock> mu;
    /// Published structures: swung under mu, read lock-free by
    /// epoch-protected readers. Raw pointers (not shared_ptr) because
    /// lifetime is the epoch domain's job — readers must not touch a
    /// contended refcount on the hot path.
    std::atomic<MemTable*> mem;
    std::atomic<TableVersion*> version;

    template <typename... Args>
    explicit Shard(std::size_t write_buffer_bytes, const Args&... args)
        : mu(args...),
          mem(new MemTable(write_buffer_bytes)),
          version(new TableVersion()) {}
    ~Shard() = default;  // mem/version freed by ShardedDB's destructor
  };

  /// Keyspace router: the top 32 bits of the key's hash, scaled onto
  /// the shard count (multiply-shift). A shard's keys share only the
  /// hash's top ⌈log2 shards⌉ bits.
  Shard& shard_for(std::uint64_t hash) {
    return *shards_[((hash >> 32) * shards_.size()) >> 32];
  }

  Status write(const Slice& key, const Slice& tagged) {
    const std::uint64_t hash = detail::hash_key(key);
    Shard& s = shard_for(hash);
    bool flushed = false;
    {
      LockGuard<ShardLock> g(s.mu.value);
      // mo: relaxed — mu is held; only flush_shard_locked (also
      // under mu) swings this pointer.
      MemTable* mem = s.mem.load(std::memory_order_relaxed);
      mem->add(key, hash, tagged);
      if (mem->approximate_memory_usage() >= options_.write_buffer_bytes) {
        flush_shard_locked(s);
        flushed = true;
      }
    }
    // Reclamation piggybacks on the writes that generate garbage,
    // outside the shard lock and bounded, so a put() pays at most
    // drain_batch deleter calls.
    if (flushed) domain_->drain(options_.drain_batch);
    return Status::ok();
  }

  /// Lock-free (or locked) search of one shard for `key`, whose hash
  /// is `hash`: a live value is copied, tag stripped, into *value. The
  /// acquire loads pair with flush_shard_locked's release stores; mem
  /// is loaded FIRST (see the publication-order comment at the top). A
  /// hit is a view into the memtable or a pinned table block, copied
  /// here while the caller's epoch guard (or shard lock, plus a guard
  /// for the blocks) keeps it alive.
  Status search_shard(Shard& s, const Slice& key, std::uint64_t hash,
                      std::string* value) {
    // mo: acquire — pairs with the release publish in
    // flush_shard_locked; mem FIRST (publication-order invariant).
    MemTable* mem = s.mem.load(std::memory_order_acquire);
    TableVersion* version = s.version.load(std::memory_order_acquire);
    Slice tagged;
    if (mem->get(key, hash, &tagged)) return unwrap(tagged, value);
    ops_.add(kTableGets);
    Status st = Status::not_found();
    auto found = [&](const Slice& t) { st = unwrap(t, value); };
    if (options_.epoch_reads) {
      search_tables(cache_, *version, key, hash, found);  // get()'s guard pins
    } else {
      reclaim::EpochGuard pin(*domain_);  // the shard lock pins no block
      search_tables(cache_, *version, key, hash, found);
    }
    return st;
  }

  /// A stored value's payload, tag stripped, into *value; a tombstone
  /// reads as not found.
  static Status unwrap(const Slice& tagged, std::string* value) {
    if (tagged.empty() || tagged[0] == kTombstoneTag) {
      return Status::not_found();
    }
    value->assign(tagged.data() + 1, tagged.size() - 1);
    return Status::ok();
  }

  /// Bounded per-shard scan leg: first `limit` LIVE entries >= start.
  /// Tombstones are filtered here but still suppress older versions
  /// inside merge_scan (newest-wins saw them first).
  void collect_shard(Shard& s, const Slice& start, std::size_t limit,
                     std::vector<std::pair<std::string, std::string>>* all) {
    // mo: acquire — pairs with flush_shard_locked's release publish;
    // mem FIRST (publication-order invariant, file header).
    MemTable* mem = s.mem.load(std::memory_order_acquire);
    TableVersion* version = s.version.load(std::memory_order_acquire);
    auto fetch = [this](const ImmutableTable& t, std::size_t b) {
      return read_block_cached(cache_, t, b);
    };
    std::size_t taken = 0;
    merge_scan(*mem, *version, start, fetch,
               [&](const Slice& k, const Slice& v) {
                 if (v.size() >= 1 && v.data()[0] == kValueTag) {
                   all->emplace_back(k.to_string(),
                                     std::string(v.data() + 1, v.size() - 1));
                   ++taken;
                 }
                 return taken < limit;
               });
  }

  /// REQUIRES: s.mu held. Freeze the memtable into a table (a full-
  /// merge compaction past compaction_trigger, ELIDING tombstones —
  /// correct only because that merge consumes the memtable and all of
  /// the shard's tables, and the fresh memtable published with it is
  /// empty, so no older version of an elided key survives anywhere),
  /// publish the new version THEN the new memtable (release order
  /// readers rely on), retire the old structures to the epoch domain.
  void flush_shard_locked(Shard& s) HEMLOCK_REQUIRES(s.mu.value) {
    // mo: relaxed — mu is held; this function is the only writer.
    MemTable* old_mem = s.mem.load(std::memory_order_relaxed);
    if (old_mem->entries() == 0) return;
    // mo: relaxed — mu is held; the published pointer is stable.
    TableVersion* old_version = s.version.load(std::memory_order_relaxed);
    auto* next = new TableVersion();
    if (flush_to_version(
            *old_mem, *old_version,
            // mo: relaxed — unique-ID counter; uniqueness, not ordering.
            next_table_id_.fetch_add(1, std::memory_order_relaxed),
            options_.block_fanout, options_.compaction_trigger,
            [](const Slice& v) { return v.empty() || v[0] != kTombstoneTag; },
            next)) {
      compactions_.fetch_add(1, std::memory_order_relaxed);  // mo: stats
    }
    auto* fresh = new MemTable(options_.write_buffer_bytes);
    // mo: release ×2 — publish version THEN empty memtable; readers
    // acquire-load mem first, so seeing the new (empty) memtable
    // implies seeing the version that holds the flushed table.
    s.version.store(next, std::memory_order_release);
    s.mem.store(fresh, std::memory_order_release);
    // Retire AFTER unpublishing: in-epoch readers may still hold
    // these; the domain frees them two epochs from now.
    domain_->retire(old_version);
    domain_->retire(old_mem);
    flushes_.fetch_add(1, std::memory_order_relaxed);  // mo: stats
  }

  static ShardedDbOptions checked(ShardedDbOptions options) {
    if (options.num_shards == 0) {
      throw std::invalid_argument("minikv: num_shards must be at least 1");
    }
    ImmutableTable::checked_fanout(options.block_fanout);
    return options;
  }

  /// Operation counts, striped by thread (runtime/striped_counters.hpp):
  /// counting writes no line another client writes, and stats() sums
  /// them exactly.
  enum OpCount : std::size_t {
    kEpochGets,
    kLockedGets,
    kTableGets,
    kScans,
    kPuts,
    kDeletes,
    kNumOpCounts
  };

  ShardedDbOptions options_;
  reclaim::EpochDomain* domain_;
  ShardedLruCache<Block> cache_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_table_id_{1};  ///< DB-unique (cache keys)

  StripedCounters<kNumOpCounts> ops_;
  /// Bumped under the flushing shard's lock.
  std::atomic<std::uint64_t> flushes_{0}, compactions_{0};
};

}  // namespace hemlock::minikv
