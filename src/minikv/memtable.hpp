// memtable.hpp — in-memory write buffer: one slot per key, found by
// hash, ordered by a skiplist.
//
// Entries are encoded into arena storage as
//   varint32 key_size | key bytes | varint32 value_size | value bytes
// Each distinct key owns one slot: an atomic pointer to the key's
// newest entry plus the link of its hash chain. A bucket array sized
// from the owner's write budget (about one bucket per KiB, carved from
// the arena so the flush threshold counts it) finds slots by the low
// bits of the key's hash (detail::hash_key, slice.hpp, which the DBs
// compute once per operation), so a point get walks one short chain.
// A skiplist holding one node per slot keeps the keys ordered for
// cursors, merge scans, flushes and compactions.
//
// Only the newest version of a key is kept. leveldb::MemTable keeps
// every version, ordered by sequence number, because its snapshots can
// read old ones. MiniKV has no snapshots, and its flushes and scans
// read only the newest version, so an overwrite swings the slot's entry
// pointer instead of inserting a node: only a new key pays for a
// skiplist insert.
//
// Publication contract: one writer at a time, serialized by the owner
// (a DB's central mutex or a shard lock), and any number of lock-free
// readers. The writer fills entry bytes and slot fields before the
// release store that publishes them — the bucket head for a new slot,
// the slot's entry pointer for an overwrite, the skiplist links for
// the ordered view — and readers acquire-load those pointers. Arena
// memory lives as long as the memtable, so an entry a reader loaded
// stays readable after an overwrite replaces it.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>

#include "minikv/arena.hpp"
#include "minikv/skiplist.hpp"
#include "minikv/slice.hpp"
#include "runtime/cacheline.hpp"

namespace hemlock::minikv {

namespace detail {

/// Varint32 encode (LevelDB wire format); returns past-the-end.
inline char* encode_varint32(char* dst, std::uint32_t v) {
  auto* ptr = reinterpret_cast<std::uint8_t*>(dst);
  static constexpr int kMsb = 128;
  while (v >= kMsb) {
    *(ptr++) = static_cast<std::uint8_t>(v | kMsb);
    v >>= 7;
  }
  *(ptr++) = static_cast<std::uint8_t>(v);
  return reinterpret_cast<char*>(ptr);
}

/// Varint32 decode; advances *p.
inline std::uint32_t decode_varint32(const char** p) {
  const auto* ptr = reinterpret_cast<const std::uint8_t*>(*p);
  std::uint32_t result = 0;
  for (int shift = 0; shift <= 28; shift += 7) {
    const std::uint32_t byte = *ptr++;
    result |= (byte & 127) << shift;
    if ((byte & 128) == 0) break;
  }
  *p = reinterpret_cast<const char*>(ptr);
  return result;
}

/// Bytes needed to varint32-encode v.
inline std::size_t varint32_length(std::uint32_t v) {
  std::size_t len = 1;
  while (v >= 128) {
    v >>= 7;
    ++len;
  }
  return len;
}

/// Key view of an encoded entry.
inline Slice entry_key(const char* entry) {
  const char* p = entry;
  const std::uint32_t klen = decode_varint32(&p);
  return Slice(p, klen);
}

/// Value view of an encoded entry.
inline Slice entry_value(const char* entry) {
  const char* p = entry;
  const std::uint32_t klen = decode_varint32(&p);
  p += klen;
  const std::uint32_t vlen = decode_varint32(&p);
  return Slice(p, vlen);
}

}  // namespace detail

/// In-memory write buffer holding the newest value of each key. Writers
/// must be serialized externally (the DB's central mutex or a shard
/// lock); get() and Cursor are safe concurrently with one writer.
class MemTable {
 private:
  // Declared up front: Cursor (below) embeds an Index::Iterator.
  struct Slot {
    Slot(const char* e, Slot* n, std::uint64_t h)
        : entry(e), next(n), hash(h) {}

    /// The key's newest encoded entry.
    const char* newest() const {
      // mo: acquire — pairs with add()'s release store of an
      // overwrite; the entry's bytes were written before it.
      return entry.load(std::memory_order_acquire);
    }
    Slice key() const { return detail::entry_key(newest()); }

    std::atomic<const char*> entry;
    /// Next slot in the same bucket; set before the slot is published
    /// and never changed.
    Slot* const next;
    const std::uint64_t hash;
  };

  /// Orders slots by key; also compares a slot against a bare key,
  /// which is how a cursor seeks.
  struct SlotOrder {
    int operator()(const Slot* a, const Slot* b) const {
      return a->key().compare(b->key());
    }
    int operator()(const Slot* a, const Slice& key) const {
      return a->key().compare(key);
    }
  };

  using Index = SkipList<const Slot*, SlotOrder>;

 public:
  /// The DBs' default write budget (DbOptions, ShardedDbOptions).
  static constexpr std::size_t kDefaultWriteBufferBytes = std::size_t{1} << 20;

  /// A memtable its owner flushes once approximate_memory_usage()
  /// reaches `write_buffer_bytes`. The budget sizes the bucket array:
  /// one bucket per KiB, as a power of two in [16, 2^20].
  explicit MemTable(std::size_t write_buffer_bytes = kDefaultWriteBufferBytes)
      : index_(SlotOrder{}, &arena_),
        mask_(bucket_count(write_buffer_bytes) - 1),
        buckets_(new_buckets(arena_, mask_ + 1)) {}
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Make `value` the newest value of `key`, whose detail::hash_key()
  /// is `hash`: the caller hashes the key once per operation, and the
  /// bucket array takes the hash's low bits.
  void add(const Slice& key, std::uint64_t hash, const Slice& value) {
    const std::size_t klen = key.size();
    const std::size_t vlen = value.size();
    const std::size_t bytes = detail::varint32_length(klen) + klen +
                              detail::varint32_length(vlen) + vlen;
    char* buf = arena_.allocate(bytes);
    char* p = detail::encode_varint32(buf, static_cast<std::uint32_t>(klen));
    std::memcpy(p, key.data(), klen);
    p += klen;
    p = detail::encode_varint32(p, static_cast<std::uint32_t>(vlen));
    std::memcpy(p, value.data(), vlen);

    std::atomic<Slot*>& bucket = buckets_[hash & mask_];
    if (Slot* s = find(bucket, hash, key)) {
      // mo: release — publishes the new entry's bytes to readers that
      // acquire it through Slot::newest().
      s->entry.store(buf, std::memory_order_release);
    } else {
      // mo: relaxed — only this (serialized) writer stores bucket heads.
      Slot* head = bucket.load(std::memory_order_relaxed);
      Slot* slot =
          new (arena_.allocate_aligned(sizeof(Slot))) Slot(buf, head, hash);
      // mo: release — publishes the slot's fields and its entry to
      // get()'s acquire walk of the chain.
      bucket.store(slot, std::memory_order_release);
      index_.insert(slot);
    }
    // mo: relaxed — a count for stats and the empty-flush skip, not a
    // publication point; the stores above publish the entry.
    entries_.fetch_add(1, std::memory_order_relaxed);
  }

  /// As above, hashing `key` here. `seq` is the writer's sequence
  /// number; the writer applies adds in order and only the newest value
  /// is kept, so it is not stored.
  void add(std::uint64_t /*seq*/, const Slice& key, const Slice& value) {
    add(key, detail::hash_key(key), value);
  }

  /// Newest value for `key`, whose detail::hash_key() is `hash`, if
  /// present, as a view into the memtable's arena: valid while the
  /// memtable lives.
  bool get(const Slice& key, std::uint64_t hash, Slice* value) const {
    const Slot* s = find(buckets_[hash & mask_], hash, key);
    if (s == nullptr) return false;
    *value = detail::entry_value(s->newest());
    return true;
  }

  /// Newest value for key, if present, copied into *value.
  bool get(const Slice& key, std::string* value) const {
    Slice found;
    if (!get(key, detail::hash_key(key), &found)) return false;
    value->assign(found.data(), found.size());
    return true;
  }

  /// Forward cursor over the keys, ascending, starting from the first
  /// key >= `start`, each with its newest value as of when the cursor
  /// reached it. Safe concurrently with one writer: keys inserted after
  /// a position was taken may or may not be observed, which is the
  /// usual "scan concurrent with writes" semantics.
  class Cursor {
   public:
    Cursor(const MemTable& mem, const Slice& start) : it_(&mem.index_) {
      it_.seek(start);
      settle();
    }

    bool valid() const { return entry_ != nullptr; }
    Slice key() const { return detail::entry_key(entry_); }
    Slice value() const { return detail::entry_value(entry_); }
    void next() {
      it_.next();
      settle();
    }

   private:
    /// Pin the current slot's newest entry, so key() and value() read
    /// one version even if the writer overwrites the key meanwhile.
    void settle() { entry_ = it_.valid() ? it_.key()->newest() : nullptr; }

    Index::Iterator it_;
    const char* entry_ = nullptr;
  };

  /// Adds applied, overwrites included.
  std::size_t entries() const {
    return entries_.load(std::memory_order_relaxed);  // mo: stats
  }
  /// Approximate heap footprint (flush threshold input), bucket array
  /// included.
  std::size_t approximate_memory_usage() const {
    return arena_.memory_usage();
  }

 private:
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
  static constexpr std::size_t kBytesPerBucket = 1024;

  static std::size_t bucket_count(std::size_t write_buffer_bytes) {
    std::size_t n = kMinBuckets;
    while (n < kMaxBuckets && n * kBytesPerBucket < write_buffer_bytes) n <<= 1;
    return n;
  }

  static std::atomic<Slot*>* new_buckets(Arena& arena, std::size_t n) {
    char* mem = arena.allocate_aligned(n * sizeof(std::atomic<Slot*>));
    auto* buckets = reinterpret_cast<std::atomic<Slot*>*>(mem);
    for (std::size_t i = 0; i < n; ++i) {
      new (&buckets[i]) std::atomic<Slot*>(nullptr);
    }
    return buckets;
  }

  /// The slot for `key` in `bucket`'s chain, or nullptr.
  static Slot* find(const std::atomic<Slot*>& bucket, std::uint64_t h,
                    const Slice& key) {
    // mo: acquire — pairs with add()'s release store of a new head;
    // every slot down the chain was published before it.
    for (Slot* s = bucket.load(std::memory_order_acquire); s != nullptr;
         s = s->next) {
      if (s->hash == h && s->key() == key) return s;
    }
    return nullptr;
  }

  Arena arena_;
  Index index_;
  std::atomic<std::size_t> entries_{0};
  // Read by every get() and written only by the constructor, so kept
  // off the lines the writer's adds dirty (arena cursor, skiplist
  // state, count).
  alignas(kCacheLineSize) const std::size_t mask_;
  std::atomic<Slot*>* const buckets_;
};

}  // namespace hemlock::minikv
