// db.hpp — the MiniKV database: LevelDB's locking architecture with a
// pluggable central mutex.
//
// This is the Figure-8 substrate. The paper: "LevelDB uses
// coarse-grained locking, protecting the database with a single
// central mutex: DBImpl::Mutex. Profiling indicates contention on
// that lock via leveldb::DBImpl::Get()." DB<Lock> reproduces that
// architecture faithfully:
//
//  * ONE central mutex (the template parameter — Hemlock, MCS, CLH,
//    Ticket, ... are swapped in exactly where the paper's LD_PRELOAD
//    interposition swapped pthread_mutex implementations);
//  * Get() takes the central mutex *briefly* to snapshot the current
//    memtable + table-version (LevelDB: MakeRoomForWrite/Version
//    refs), then searches OUTSIDE the lock — so the benchmark's
//    critical sections are short and arrival-rate-bound, as in the
//    paper's profile;
//  * Put() serializes whole writes under the mutex (LevelDB's writer
//    queue collapses to this under db_bench's single-writer fill);
//  * memtable flushes happen inline under the mutex when the
//    memtable exceeds its budget (no background threads — determinism
//    for tests; the flush is off the readrandom hot path anyway).
//
// The block cache, table search, flush and compaction are the storage
// core (minikv/storage.hpp) it shares with ShardedDB. Its table reads
// run inside an EpochGuard on the cache's domain (the process-global
// one), which keeps the cached blocks they reach alive.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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

namespace hemlock::minikv {

/// DB tuning knobs (a small subset of leveldb::Options).
struct DbOptions {
  /// Memtable budget before an inline flush to an immutable table
  /// (also sizes the memtable's hash index).
  std::size_t write_buffer_bytes = MemTable::kDefaultWriteBufferBytes;
  /// Block cache capacity. Sized to hold db_bench-scale working sets:
  /// LevelDB's reads are effectively memory-speed in the paper's
  /// Figure-8 runs (the OS page cache holds the whole database), and
  /// the benchmark's subject is the central mutex, not disk I/O.
  std::size_t block_cache_bytes = 256 << 20;  // 256 MiB
  /// Entries per table block (at least 1).
  std::size_t block_fanout = ImmutableTable::kDefaultBlockFanout;
  /// Merge all immutable tables into one when their count exceeds
  /// this (MiniKV's stand-in for LevelDB's compaction, keeping the
  /// read path's table fan-out bounded).
  std::size_t compaction_trigger = 8;
};

// (TableVersion — the immutable table set snapshotted under the
// central mutex — now lives in minikv/table.hpp, shared with the
// sharded serving layer and the merge-scan helper.)

/// MiniKV database with central mutex of type CentralLock.
template <BasicLockable CentralLock>
class DB {
 public:
  /// Throws std::invalid_argument for a block_fanout of 0.
  explicit DB(DbOptions options = DbOptions{})
      : options_(checked(options)),
        cache_(options.block_cache_bytes),
        mem_(std::make_shared<MemTable>(options.write_buffer_bytes)),
        version_(std::make_shared<TableVersion>()) {}

  /// As above, forwarding `lock_args` to the central mutex's
  /// constructor — how a type-erased CentralLock (AnyLock) names its
  /// algorithm at run time: DB<AnyLock> db(DbOptions{}, "mcs");
  template <typename... LockArgs>
    requires(sizeof...(LockArgs) > 0)
  explicit DB(DbOptions options, LockArgs&&... lock_args)
      : options_(checked(options)),
        mu_(std::forward<LockArgs>(lock_args)...),
        cache_(options.block_cache_bytes),
        mem_(std::make_shared<MemTable>(options.write_buffer_bytes)),
        version_(std::make_shared<TableVersion>()) {}

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  /// Insert or overwrite key -> value.
  Status put(const Slice& key, const Slice& value) {
    const std::uint64_t hash = detail::hash_key(key);
    LockGuard<CentralLock> g(mu_.value);
    mem_->add(key, hash, value);
    if (mem_->approximate_memory_usage() >= options_.write_buffer_bytes) {
      flush_memtable_locked();
    }
    return Status::ok();
  }

  /// Point lookup. The central-mutex critical section is only the
  /// snapshot of (memtable, version); the search runs unlocked. When
  /// the central lock has a shared mode (an rwlock, or an AnyLock
  /// naming one), the snapshot is taken as a *reader* — concurrent
  /// gets no longer serialize on the paper's Figure-8 bottleneck; the
  /// two shared_ptr copies are safe under shared holds because every
  /// mutator of mem_/version_ runs under the exclusive mode.
  Status get(const Slice& key, std::string* value) {
    const std::uint64_t hash = detail::hash_key(key);  // memtable and tables
    std::shared_ptr<MemTable> mem;
    std::shared_ptr<TableVersion> version;
    if constexpr (SharedLockable<CentralLock>) {
      SharedLockGuard<CentralLock> g(mu_.value);  // DBImpl::Mutex, shared
      mem = mem_;
      version = version_;
    } else {
      LockGuard<CentralLock> g(mu_.value);  // DBImpl::Mutex
      mem = mem_;
      version = version_;
    }
    auto found = [&](const Slice& v) { value->assign(v.data(), v.size()); };
    Slice v;
    if (mem->get(key, hash, &v)) {
      found(v);
      return Status::ok();
    }
    reclaim::EpochGuard pin(cache_.domain());  // the blocks read below
    return search_tables(cache_, *version, key, hash, found)
               ? Status::ok()
               : Status::not_found();
  }

  /// Range scan: up to `limit` entries with key >= `start`, ascending,
  /// newest version per key. Same locking shape as get(): the central
  /// mutex covers only the (memtable, version) snapshot — shared mode
  /// when the lock has one — and the k-way merge runs unlocked over
  /// the immutable snapshot.
  std::size_t scan(const Slice& start, std::size_t limit,
                   std::vector<std::pair<std::string, std::string>>* out) {
    out->clear();
    if (limit == 0) return 0;
    std::shared_ptr<MemTable> mem;
    std::shared_ptr<TableVersion> version;
    if constexpr (SharedLockable<CentralLock>) {
      SharedLockGuard<CentralLock> g(mu_.value);
      mem = mem_;
      version = version_;
    } else {
      LockGuard<CentralLock> g(mu_.value);
      mem = mem_;
      version = version_;
    }
    auto fetch = [this](const ImmutableTable& t, std::size_t b) {
      return read_block_cached(cache_, t, b);
    };
    reclaim::EpochGuard pin(cache_.domain());  // the blocks fetched below
    merge_scan(*mem, *version, start, fetch,
               [&](const Slice& k, const Slice& v) {
                 out->emplace_back(k.to_string(), v.to_string());
                 return out->size() < limit;
               });
    return out->size();
  }

  /// Force the current memtable into an immutable table.
  void flush() {
    LockGuard<CentralLock> g(mu_.value);
    flush_memtable_locked();
  }

  /// Number of immutable tables (diagnostics/tests).
  std::size_t num_tables() {
    LockGuard<CentralLock> g(mu_.value);
    return version_->tables.size();
  }

  /// Entries currently buffered in the active memtable.
  std::size_t memtable_entries() {
    LockGuard<CentralLock> g(mu_.value);
    return mem_->entries();
  }

  /// Block cache statistics (hit ratio sanity in tests/benches).
  std::uint64_t cache_hits() const { return cache_.hits(); }
  std::uint64_t cache_misses() const { return cache_.misses(); }
  /// Number of merge compactions performed. Takes the central mutex:
  /// compactions_ is mu_-guarded, and a torn unlocked read of a
  /// 64-bit counter is exactly the discipline slip the analysis exists
  /// to catch.
  std::uint64_t compactions() {
    LockGuard<CentralLock> g(mu_.value);
    return compactions_;
  }

 private:
  static DbOptions checked(DbOptions options) {
    ImmutableTable::checked_fanout(options.block_fanout);
    return options;
  }

  /// Freeze the memtable into a table (folding every table into one
  /// when there are more than compaction_trigger). REQUIRES: central
  /// mutex held.
  void flush_memtable_locked() HEMLOCK_REQUIRES(mu_.value) {
    if (mem_->entries() == 0) return;
    // Copy-on-write version bump: concurrent readers keep their
    // snapshot; new readers see the new table first.
    auto next = std::make_shared<TableVersion>();
    if (flush_to_version(*mem_, *version_, next_table_id_++,
                         options_.block_fanout, options_.compaction_trigger,
                         [](const Slice&) { return true; }, next.get())) {
      ++compactions_;
    }
    version_ = std::move(next);
    mem_ = std::make_shared<MemTable>(options_.write_buffer_bytes);
  }

  DbOptions options_;
  CacheAligned<CentralLock> mu_;  ///< THE central mutex (DBImpl::Mutex)
  ShardedLruCache<Block> cache_;

  // All fields below are protected by mu_ (readers snapshot the two
  // shared_ptrs under mu_ and then operate on immutable state).
  std::shared_ptr<MemTable> mem_ HEMLOCK_GUARDED_BY(mu_.value);
  std::shared_ptr<TableVersion> version_ HEMLOCK_GUARDED_BY(mu_.value);
  std::uint64_t next_table_id_ HEMLOCK_GUARDED_BY(mu_.value) = 1;
  std::uint64_t compactions_ HEMLOCK_GUARDED_BY(mu_.value) = 0;
};

}  // namespace hemlock::minikv
