// storage.hpp — the storage core DB<Lock> and ShardedDB share.
//
// Both databases are the same LevelDB shape: a memtable in front of a
// newest-first version of immutable tables, whose blocks are read
// through a ShardedLruCache. They differ in how a reader reaches its
// (memtable, version) snapshot — DB under its central mutex, ShardedDB
// lock-free under an epoch — not in what it does with it. What they do
// with it lives here, once:
//
//  * read_block_cached / search_tables: the block-cache read and the
//    table search of a point lookup. They take no lock, and the caller
//    holds an EpochGuard on the cache's domain, which keeps every
//    cached block it reaches alive (cache.hpp). A hit returns the
//    cached block itself. A miss copies the table's block (the
//    deliberate "decode" cost) either into a recycled cache entry or
//    into a buffer the reader owns. A point lookup passes its thread's
//    buffer (reader_block()) and asks the cache to admit the miss
//    first: a full cache shard caches one miss in eight, and a
//    declined miss, like a bypassed one, is copied into that buffer,
//    touching nothing shared. Scans pass no buffer, because merge_scan
//    pins several blocks at once: they cache every miss, and only a
//    bypassed one allocates a copy of its own (read_block).
//    search_tables probes each table's hash directory with the key's
//    hash, newest table first, reads exactly the candidate's block and
//    compares one key (table.hpp); it hands the found value to a
//    visitor while its block is pinned, so a point lookup through the
//    tables allocates nothing, on a miss either.
//  * flush_to_version: the one fold behind every flush and full-merge
//    compaction (under the writer's lock).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "minikv/cache.hpp"
#include "minikv/memtable.hpp"
#include "minikv/scan.hpp"
#include "minikv/slice.hpp"
#include "minikv/table.hpp"

namespace hemlock::minikv {

/// A table block pinned for reading: a cached block, valid while the
/// caller's EpochGuard on the cache's domain lasts; the reader's own
/// buffer, valid until the reader next fills it; or, for a bypassed
/// miss without a buffer, a copy this ref owns.
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
/// buffer (the deliberate "decode" cost). Without `own`, every miss is
/// inserted: the copy goes into a recycled cache entry at its charge(),
/// and when the cache bypasses that insert, into a copy of the
/// reader's own (read_block). With a reader-owned `own`, the cache
/// admits the miss first (cache.hpp), and a declined or bypassed miss
/// is copied into *own, whose buffer the reader reuses: no allocation
/// once it has grown to the table's largest block.
/// REQUIRES: an EpochGuard on cache.domain() (cache.hpp).
inline BlockRef read_block_cached(ShardedLruCache<Block>& cache,
                                  const ImmutableTable& table,
                                  std::size_t idx, Block* own = nullptr) {
  const BlockKey bkey{table.id(), static_cast<std::uint32_t>(idx)};
  if (const Block* hit = cache.lookup(bkey)) return BlockRef(hit);
  const Block& stored = table.block(idx);
  if (own == nullptr || cache.admit(bkey)) {
    if (const Block* cached = cache.insert(bkey, stored, stored.charge())) {
      return BlockRef(cached);
    }
    if (own == nullptr) return BlockRef(table.read_block(idx));
  }
  *own = stored;  // declined or bypassed: the reader's own copy
  return BlockRef(own);
}

/// The calling thread's buffer for point lookups' uncached misses.
inline Block& reader_block() {
  thread_local Block block;
  return block;
}

/// Point lookup over a version's tables, newest first, through
/// `cache`; `hash` is detail::hash_key(key). Stops at the first table
/// holding `key` and calls found(value) while the value's block is
/// pinned; returns whether it did. A block the cache does not keep is
/// read into reader_block(), so `found` must not search again.
/// REQUIRES: an EpochGuard on cache.domain().
template <typename Found>
bool search_tables(ShardedLruCache<Block>& cache, const TableVersion& version,
                   const Slice& key, std::uint64_t hash, Found&& found) {
  for (const auto& table : version.tables) {  // newest first
    const bool hit = table->probe(hash, [&](std::size_t b, std::size_t e) {
      const BlockRef block =
          read_block_cached(cache, *table, b, &reader_block());
      if (block->key(e) != key) return false;  // a fingerprint collision
      found(block->value(e));
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
