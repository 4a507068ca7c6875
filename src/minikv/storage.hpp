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
//    table search of a point lookup (unlocked);
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

/// Block `idx` of `table` through `cache`. A hit shares the cached
/// block; a miss copies the block's buffer out of the table
/// (read_block) and caches it at its charge(). Unlocked: the cache's
/// lookup path is a shared acquisition, so a hit never re-serializes
/// concurrent readers.
inline std::shared_ptr<Block> read_block_cached(ShardedLruCache<Block>& cache,
                                                const ImmutableTable& table,
                                                std::size_t idx) {
  const BlockKey bkey{table.id(), static_cast<std::uint32_t>(idx)};
  std::shared_ptr<Block> block = cache.lookup(bkey);
  if (block == nullptr) {
    block = table.read_block(idx);
    cache.insert(bkey, block, block->charge());
  }
  return block;
}

/// Point lookup over a version's tables, newest first, through
/// `cache`. Stops at the first table holding `key`.
inline bool search_tables(ShardedLruCache<Block>& cache,
                          const TableVersion& version, const Slice& key,
                          std::string* value) {
  for (const auto& table : version.tables) {  // newest first
    // Key-range filter, as LevelDB's Version::Get does per table
    // file — fillseq produces disjoint table ranges, so this keeps
    // the read path at ~one candidate table per lookup.
    if (key.compare(table->smallest()) < 0 ||
        key.compare(table->largest()) > 0) {
      continue;
    }
    const std::int64_t idx = table->block_for(key);
    if (idx < 0) continue;
    if (read_block_cached(cache, *table, static_cast<std::size_t>(idx))
            ->get(key, value)) {
      return true;
    }
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
