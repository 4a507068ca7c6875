// storage.hpp — the storage core DB<Lock> and ShardedDB share.
//
// Both databases are the same LevelDB shape: a memtable in front of a
// newest-first version of immutable tables, whose blocks are read
// through a ShardedLruCache. They differ in how a reader reaches its
// (memtable, version) snapshot — DB under its central mutex, ShardedDB
// lock-free under an epoch — not in what it does with it. What they do
// with it lives here, once:
//
//  * read_block_cached / search_tables: the one block-cache miss path,
//    point lookups' and scans', and the table search of a point
//    lookup. They take no lock; the caller holds an EpochGuard on the
//    cache's domain, which keeps every cached block it reaches alive
//    (cache.hpp). search_tables probes each table's hash directory
//    with the key's hash, newest table first, looks exactly the
//    candidate's block up in the cache (a miss pays the copy), and
//    compares one key in the table's own block (table.hpp), whose row
//    it hands the visitor: never the cache's copy, which a later miss
//    may recycle, nor a bypassed miss's copy, which the get frees. A
//    lookup thus reads one copy of its row.
//  * flush_to_version: the one fold behind every flush and full-merge
//    compaction (under the writer's lock).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "core/verify_hooks.hpp"
#include "minikv/cache.hpp"
#include "minikv/memtable.hpp"
#include "minikv/scan.hpp"
#include "minikv/slice.hpp"
#include "minikv/table.hpp"

namespace hemlock::minikv {

/// A table block pinned for reading: a cached block, valid while the
/// caller's EpochGuard on the cache's domain lasts, or, for a miss the
/// cache bypassed, a copy this ref owns.
class BlockRef {
 public:
  BlockRef() = default;
  explicit BlockRef(const Block* pinned) : block_(pinned) {}
  explicit BlockRef(std::shared_ptr<Block> copy)
      : block_(copy.get()), copy_(std::move(copy)) {}

  const Block& operator*() const { return *block_; }
  const Block* operator->() const { return block_; }

 private:
  const Block* block_ = nullptr;
  std::shared_ptr<Block> copy_;  ///< set only for a bypassed miss
};

/// Block `idx` of `table` through `cache`. A miss copies the block's
/// buffer (the deliberate "decode" cost) into a recycled cache entry at
/// its charge(), and when the cache bypasses that insert, into a copy
/// of the reader's own (read_block).
/// REQUIRES: an EpochGuard on cache.domain() (cache.hpp).
inline BlockRef read_block_cached(ShardedLruCache<Block>& cache,
                                  const ImmutableTable& table,
                                  std::size_t idx) {
  const BlockKey bkey{table.id(), static_cast<std::uint32_t>(idx)};
  if (const Block* hit = cache.lookup(bkey)) {
    HEMLOCK_VERIFY_YIELD("cache:hit");
    return BlockRef(hit);
  }
  const Block& stored = table.block(idx);
  if (const Block* cached = cache.insert(bkey, stored, stored.charge())) {
    return BlockRef(cached);
  }
  return BlockRef(table.read_block(idx));
}

/// Point lookup over a version's tables, newest first, through
/// `cache`; `hash` is detail::hash_key(key). Stops at the first table
/// holding `key` and calls found(row) with the key's row (row.hpp) in
/// that table's own block, valid while the table lives; returns
/// whether it did.
/// REQUIRES: an EpochGuard on cache.domain().
template <typename Found>
bool search_tables(ShardedLruCache<Block>& cache, const TableVersion& version,
                   const Slice& key, std::uint64_t hash, Found&& found) {
  for (const auto& table : version.tables) {  // newest first
    const bool hit = table->probe(hash, [&](std::size_t b, std::size_t e) {
      read_block_cached(cache, *table, b);  // a hit, or a miss's copy
      const char* row = table->block(b).row(e);
      if (detail::entry_key(row) != key) return false;  // fingerprint collision
      found(row);
      return true;
    });
    if (hit) return true;
  }
  return false;
}

/// The flush step of both databases, and the one fold that builds
/// tables. Fills `*next` (empty on entry) with `mem` frozen into a new
/// table `table_id` in front of `current`'s tables — or, when that
/// would leave more than `compaction_trigger` tables, with one table
/// folding `mem` and every table of `current` together: a full-merge
/// compaction, reported by returning true.
///
/// Either way a single merge_scan pass over (mem, tables) yields the
/// entries ascending, newest version per key, de-duplicated, straight
/// into the table builder, reading table blocks in place (no
/// block-cache traffic). A full merge keeps only the entries whose
/// value passes `live(value)`: with nothing older left for a tombstone
/// to shadow, that is where a layer that stores tombstones drops them.
///
/// REQUIRES: the caller excludes other writers of `mem` (its lock) and
/// keeps `current` alive.
template <typename Live>
bool flush_to_version(const MemTable& mem, const TableVersion& current,
                      std::uint64_t table_id, std::size_t block_fanout,
                      std::size_t compaction_trigger, Live&& live,
                      TableVersion* next) {
  const bool compact = current.tables.size() + 1 > compaction_trigger;
  const TableVersion none;
  ImmutableTable::Builder built(block_fanout);
  merge_scan(
      mem, compact ? current : none, Slice(),
      [](const ImmutableTable& t, std::size_t b) { return &t.block(b); },
      [&](const Slice& k, const Slice& v) {
        if (!compact || live(v)) built.add(k, v);
        return true;
      });
  next->tables.reserve(compact ? 1 : current.tables.size() + 1);
  next->tables.push_back(
      std::make_shared<ImmutableTable>(table_id, std::move(built)));
  if (!compact) {
    next->tables.insert(next->tables.end(), current.tables.begin(),
                        current.tables.end());
  }
  return compact;
}

}  // namespace hemlock::minikv
