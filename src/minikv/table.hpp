// table.hpp — immutable sorted tables ("SSTables") for flushed data.
//
// When the memtable reaches its flush threshold the DB freezes it
// into an ImmutableTable: entries packed into fixed-fanout blocks
// with an index block of block-first-keys, plus a hash directory
// built once with the table. A point lookup probes the directory with
// the key's hash (detail::hash_key, computed once per operation),
// fetches exactly the candidate's block (through the DB's block cache
// — cache.hpp) and compares one key. Seeks and scans binary search the
// index, then the block. This mirrors LevelDB's table/block/cache
// structure closely enough that the Figure-8 readrandom workload
// exercises the same code shape: a short central-mutex critical
// section, then block-cache + search work outside it.
//
// Hash directory. Open addressing with linear probing over a power-of-
// two array of 32-bit slots, at most half full. A slot's low
// ⌈log2(n+1)⌉ bits (n entries) hold the entry's ordinal plus 1, its
// other bits a fingerprint of the key's hash; 0 is empty. Ordinal o is
// entry o % fanout of block o / fanout: every block but the last holds
// exactly `fanout` entries. A slot's index takes the hash's low bits
// and the fingerprint the bits just above them, all below bit 33, so
// the sharded router's top bits (sharded_db.hpp) never reach them.
// Fingerprints can collide: a candidate's key is always compared, and
// the probe walks on past a mismatch.
//
// Block layout. As in LevelDB, a block is ONE contiguous byte buffer:
//
//   row_0 row_1 ... row_{n-1} | off_0 ... off_{n-1}
//
// Each row is encoded as a memtable entry is (row.hpp): varint key
// length, key, varint value length, value (NUL bytes, the empty key and
// empty values are fine). The tail is n native-endian 32-bit offsets
// into the buffer, one per row; a row's own varints give its extent.
// Blocks live only in memory, so the offsets are never byte-swapped. A
// point lookup hands out row(i)'s address in the table's own block,
// which read promotion links into a memtable slot without copying
// (memtable.hpp): the row stays valid while the table lives. A
// block-cache miss copies the whole buffer into a recycled cache entry;
// read_block's standalone copy costs two allocations, the shared Block
// and its buffer, whatever the block's entry count.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "minikv/row.hpp"
#include "minikv/slice.hpp"

namespace hemlock::minikv {

/// A sorted run of key/value pairs in one buffer (layout above).
/// Immutable once built; the block cache copies blocks into recycled
/// entries by assignment, which reuses the entry's buffer.
class Block {
 public:
  class Builder;

  /// A block with no entries.
  Block() = default;

  /// Number of entries.
  std::size_t size() const { return n_; }
  /// Row i (i < size()), encoded as row.hpp describes; points into
  /// this block.
  const char* row(std::size_t i) const {
    std::uint32_t off;
    std::memcpy(&off, rep_.data() + offsets_at_ + 4 * i, sizeof(off));
    return rep_.data() + off;
  }
  /// Key of entry i (i < size()); points into this block.
  Slice key(std::size_t i) const { return detail::entry_key(row(i)); }
  /// Value of entry i (i < size()); points into this block.
  Slice value(std::size_t i) const { return detail::entry_value(row(i)); }

  /// Index of the first entry whose key is >= `key` (size() if none):
  /// the binary search of seeks and scans.
  std::size_t lower_bound(const Slice& key) const;

  /// Cache charge: the bytes this block holds, i.e. the Block object
  /// plus its buffer (rows and offsets).
  std::size_t charge() const { return sizeof(Block) + rep_.size(); }

 private:
  Block(std::string rep, std::uint32_t n)
      : rep_(std::move(rep)),
        n_(n),
        offsets_at_(static_cast<std::uint32_t>(rep_.size() - 4 * n)) {}

  std::string rep_;
  std::uint32_t n_ = 0;
  std::uint32_t offsets_at_ = 0;  ///< where the offset array starts in rep_
};

/// Appends entries in ascending key order, then seals them into a
/// Block. Its scratch buffers are reused from one block to the next.
class Block::Builder {
 public:
  /// Append one entry; keys must arrive in strictly ascending order.
  void add(const Slice& key, const Slice& value);
  /// Entries added since the last finish().
  std::size_t size() const { return offsets_.size(); }
  /// Seal the added entries into a block (exactly sized, one buffer)
  /// and start over empty.
  Block finish();

 private:
  std::string payload_;
  std::vector<std::uint32_t> offsets_;
};

/// Immutable sorted table built from a memtable snapshot.
class ImmutableTable {
 public:
  class Builder;

  /// Build from sorted, de-duplicated entries. `id` must be process-
  /// unique (block-cache key space). Throws std::invalid_argument when
  /// `block_fanout` is 0.
  ImmutableTable(std::uint64_t id,
                 const std::vector<std::pair<std::string, std::string>>& sorted,
                 std::size_t block_fanout = kDefaultBlockFanout);
  /// Seal the entries streamed into `built` as table `id`. Throws
  /// std::length_error past 2^32 - 2 entries (the directory's ordinals
  /// are 32-bit).
  ImmutableTable(std::uint64_t id, Builder&& built);

  ImmutableTable(const ImmutableTable&) = delete;
  ImmutableTable& operator=(const ImmutableTable&) = delete;

  /// Process-unique table id.
  std::uint64_t id() const { return id_; }
  /// Number of blocks.
  std::size_t num_blocks() const { return blocks_.size(); }
  /// Total number of entries.
  std::size_t num_entries() const { return entries_; }

  /// Point-lookup candidates for the key whose detail::hash_key() is
  /// `hash`: calls at(block, entry) for each entry whose directory
  /// fingerprint matches, in probe order, until `at` returns true, and
  /// returns whether it did. A candidate may hold another key (the
  /// fingerprint collided), so `at` compares the key and returns false
  /// to walk on.
  template <typename At>
  bool probe(std::uint64_t hash, At&& at) const {
    const std::uint32_t fp = fingerprint(hash);
    for (std::size_t i = hash & dir_mask_;; i = (i + 1) & dir_mask_) {
      const std::uint32_t slot = dir_[i];
      if (slot == 0) return false;
      if ((slot & ~ordinal_mask_) == fp) {
        const std::uint32_t ordinal = (slot & ordinal_mask_) - 1;
        if (at(std::size_t{ordinal / fanout_}, std::size_t{ordinal % fanout_})) {
          return true;
        }
      }
    }
  }

  /// Index of the block that could contain `key`, or -1 when out of
  /// range (key below the table's first key or table empty): the start
  /// of a seek.
  std::int64_t block_for(const Slice& key) const;

  /// A standalone copy of block `idx` (in LevelDB a cache miss is a
  /// disk read + decode; here it is a copy of the block's one buffer,
  /// preserving the cost asymmetry vs. a cache hit). The cache's miss
  /// path copies into a recycled entry instead, and falls back to this
  /// only when the cache bypasses the insert.
  std::shared_ptr<Block> read_block(std::size_t idx) const;

  /// The table's own block `idx`, read in place (no copy, no cache):
  /// for folds that hold the table alive while they read it, the
  /// source of a cache miss's copy, and the rows a point lookup hands
  /// out (storage.hpp).
  const Block& block(std::size_t idx) const { return blocks_[idx]; }

  /// `block_fanout`, or std::invalid_argument when it is 0 (the block
  /// building loop would never advance).
  static std::size_t checked_fanout(std::size_t block_fanout);

  /// Last key of the table (empty if no entries); points into it.
  Slice largest() const {
    return blocks_.empty() ? Slice()
                           : blocks_.back().key(blocks_.back().size() - 1);
  }

  /// Bytes the hash directory holds.
  std::size_t directory_bytes() const {
    return dir_.size() * sizeof(std::uint32_t);
  }

  static constexpr std::size_t kDefaultBlockFanout = 16;

 private:
  /// The directory fingerprint of `hash`: the hash bits above the slot
  /// index, in the slot bits above the ordinal.
  std::uint32_t fingerprint(std::uint64_t hash) const {
    return static_cast<std::uint32_t>((hash >> dir_bits_) << ordinal_bits_);
  }

  std::uint64_t id_;
  std::size_t entries_;
  /// block_fanout, clamped to 32 bits: every ordinal is below 2^32 - 1,
  /// so a larger fanout puts every entry in block 0 either way.
  std::uint32_t fanout_;
  Block index_;  ///< key i = first key of blocks_[i]; values empty
  std::vector<Block> blocks_;
  // The hash directory (file comment).
  std::vector<std::uint32_t> dir_;
  std::size_t dir_mask_ = 0;
  unsigned dir_bits_ = 0;      ///< log2(dir_.size())
  unsigned ordinal_bits_ = 0;  ///< ⌈log2(entries_ + 1)⌉
  std::uint32_t ordinal_mask_ = 0;
};

/// Streams entries, in strictly ascending key order, into blocks of
/// `block_fanout` entries for an ImmutableTable.
class ImmutableTable::Builder {
 public:
  /// Throws std::invalid_argument when `block_fanout` is 0.
  explicit Builder(std::size_t block_fanout);

  /// Append one entry.
  void add(const Slice& key, const Slice& value);

 private:
  friend class ImmutableTable;

  std::size_t fanout_;
  std::vector<std::uint64_t> hashes_;  ///< detail::hash_key of each key
  Block::Builder block_, index_;
  std::vector<Block> blocks_;
};

/// Version: the immutable set of tables current at some instant.
/// Snapshotted under a DB's central (or shard) lock, searched outside
/// it — newest table first, exactly LevelDB's read path across
/// levels. (Declared here, next to the tables it aggregates, so the
/// single-lock DB, the sharded DB and the merge-scan helper all share
/// one definition.)
struct TableVersion {
  std::vector<std::shared_ptr<ImmutableTable>> tables;  // newest first
};

}  // namespace hemlock::minikv
