// scan.hpp — newest-wins merge scan over one (memtable, version)
// snapshot.
//
// Both DB<Lock>::scan() and ShardedDB's per-shard scan leg walk the
// same shape of snapshot: one mutable memtable plus a newest-first
// list of immutable tables, each individually sorted and de-duplicated.
// merge_scan() is the single k-way merge over those sources: ascending
// key order, and where several sources carry the same key the newest
// source wins (memtable, then tables in version order) — the scan
// twin of the point-lookup search order.
//
// The caller supplies the block fetch (so table blocks flow through
// the owning DB's block cache) and a visitor that returns false to
// stop — which is how bounded scans avoid materializing whole tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "minikv/memtable.hpp"
#include "minikv/slice.hpp"
#include "minikv/table.hpp"

namespace hemlock::minikv {

namespace detail {

/// Forward cursor over one ImmutableTable from the first key >=
/// start, fetching blocks through the caller's hook.
template <typename Fetch>
class TableCursor {
 public:
  TableCursor(const ImmutableTable& table, const Slice& start, Fetch& fetch)
      : table_(&table), fetch_(&fetch) {
    if (table.num_entries() == 0 || start.compare(table.largest()) > 0) {
      block_idx_ = table.num_blocks();  // invalid
      return;
    }
    const std::int64_t idx = table.block_for(start);
    block_idx_ = idx < 0 ? 0 : static_cast<std::size_t>(idx);
    load_block();
    // Position at the first entry >= start inside the block; the
    // block's first key can still be < start when block_for matched.
    entry_idx_ = block_->lower_bound(start);
    skip_exhausted_blocks();
  }

  bool valid() const { return block_idx_ < table_->num_blocks(); }
  Slice key() const { return block_->key(entry_idx_); }
  Slice value() const { return block_->value(entry_idx_); }

  void next() {
    ++entry_idx_;
    skip_exhausted_blocks();
  }

 private:
  void load_block() { block_ = (*fetch_)(*table_, block_idx_); }
  void skip_exhausted_blocks() {
    while (valid() && entry_idx_ >= block_->size()) {
      ++block_idx_;
      entry_idx_ = 0;
      if (valid()) load_block();
    }
  }

  const ImmutableTable* table_;
  Fetch* fetch_;
  /// What the fetch returns: a BlockRef from the block cache
  /// (storage.hpp) or a `const Block*`, either one pinned by the caller
  /// (its epoch guard, or the table it keeps alive).
  std::invoke_result_t<Fetch&, const ImmutableTable&, std::size_t> block_{};
  std::size_t block_idx_ = 0;
  std::size_t entry_idx_ = 0;
};

}  // namespace detail

/// Merge-scan the snapshot (mem, version) from the first key >=
/// `start`, ascending, invoking fn(key, value) for the NEWEST version
/// of each key until fn returns false or the snapshot is exhausted.
/// `fetch(table, block_idx)` materializes table blocks: normally a
/// BlockRef through the DB's block cache, with the caller inside an
/// EpochGuard on the cache's domain; a fold that holds the tables alive
/// may return `const Block*` instead (table.block()).
///
/// Values are handed through verbatim — a layer that encodes
/// tombstones in its values (ShardedDB) filters them in its visitor,
/// where a suppressed key still consumed its older versions here.
template <typename Fetch, typename Fn>
void merge_scan(const MemTable& mem, const TableVersion& version,
                const Slice& start, Fetch&& fetch, Fn&& fn) {
  MemTable::Cursor mem_cursor(mem, start);
  // Fetch deduces as an lvalue reference for lvalue hooks; the cursor
  // stores a pointer, so strip the reference.
  std::vector<detail::TableCursor<std::remove_reference_t<Fetch>>>
      table_cursors;
  table_cursors.reserve(version.tables.size());
  for (const auto& t : version.tables) {  // newest first
    table_cursors.emplace_back(*t, start, fetch);
  }

  std::string yielded;  // reused owning copy of the key being advanced past
  for (;;) {
    // Minimum key across sources; among equal keys the first source
    // in (mem, tables newest-first) order is the newest version —
    // strict < keeps the first-seen winner on ties.
    Slice best_key, best_value;
    bool have = false;
    auto consider = [&](Slice k, Slice v) {
      if (!have || k.compare(best_key) < 0) {
        best_key = k;
        best_value = v;
        have = true;
      }
    };
    if (mem_cursor.valid()) consider(mem_cursor.key(), mem_cursor.value());
    for (auto& c : table_cursors) {
      if (c.valid()) consider(c.key(), c.value());
    }
    if (!have) return;
    if (!fn(best_key, best_value)) return;
    // Advance every source sitting on this key (older versions of it
    // must not surface later). Compare against an owning copy:
    // advancing a table cursor can release the block best_key points
    // into.
    yielded.assign(best_key.data(), best_key.size());
    const Slice done(yielded);
    if (mem_cursor.valid() && mem_cursor.key() == done) mem_cursor.next();
    for (auto& c : table_cursors) {
      if (c.valid() && c.key() == done) c.next();
    }
  }
}

}  // namespace hemlock::minikv
