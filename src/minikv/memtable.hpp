// memtable.hpp — in-memory write buffer: one slot per key, found by
// hash, ordered by a skiplist.
//
// Entries are encoded into arena storage as rows (row.hpp):
//   varint32 key_size | key bytes | varint32 value_size | value bytes
// the same bytes a table block stores. Each distinct key owns one
// slot: an atomic pointer to the key's newest row plus the link of its
// hash chain. A bucket array sized from the owner's write budget (about
// one bucket per KiB, carved from the arena so the flush threshold
// counts it) finds slots by the low bits of the key's hash
// (detail::hash_key, slice.hpp, which the DBs compute once per
// operation), so a point get walks one short chain. A skiplist holding
// one node per written slot keeps the written keys ordered for
// cursors, merge scans, flushes and compactions.
//
// Only the newest version of a key is kept. leveldb::MemTable keeps
// every version, ordered by sequence number, because its snapshots can
// read old ones. MiniKV has no snapshots, and its flushes and scans
// read only the newest version, so an overwrite swings the slot's entry
// pointer instead of inserting a node: only a new key pays for a
// skiplist insert.
//
// The row lifecycle. add() makes a *written* row: a value the
// owner's tables do not hold yet, encoded into the arena. promote()
// makes a *clean* row: a slot pointing at the row the owner's table
// already holds for a key, put here by a get that found it there
// (ShardedDB's read promotion), so the next get of the key stops at the
// memtable. Nothing is copied: the row's bytes stay the table's, and
// the owner keeps that table alive as long as this memtable can be read
// (ShardedDB retires the two together, sharded_db.hpp). get() finds
// both kinds. A clean row is not linked into the ordered index and not
// counted by entries(); the first add() of its key points the slot at a
// new arena entry and links it, as a written row. So cursors, merge
// scans and flushes see only written rows, and a table built from a
// memtable holds only what was written to it. The live clean rows'
// slots are counted apart from the written rows' footprint,
// written_memory_usage(), which the owner flushes on, so read traffic
// never moves a flush; they are capped at an eighth of the write
// budget, so a memtable's footprint stays within about 9/8 of it. A
// clean row that add() overwrites leaves the cap: its slot counts as
// written from then on.
//
// The entry an overwrite of a written row replaces is *dead*: no slot
// points to it any more, but a reader that loaded it before the
// overwrite may still be copying it. add() stamps it with the
// memtable's epoch domain (EpochDomain::stamp(), as retire() stamps)
// and lists it by its encoded size. A later entry of the same size is
// *reused*: encoded into the oldest dead entry of its size once the
// domain's epoch has passed that entry's stamp (EpochDomain::expired(),
// the rule drain() frees by), and into fresh arena bytes otherwise. So
// a key overwritten with values of one size holds about one entry, plus
// the few written in the last two epochs, and its memtable flushes only
// when new keys fill it. A stalled reader only stops the reuse:
// overwrites then grow the footprint and the memtable flushes as it
// would without reuse. The row a clean slot pointed at never dies here:
// it is the table's, so add() neither lists nor reuses it.
//
// Publication contract: one writer at a time, serialized by the owner
// (a DB's central mutex or a shard lock), and any number of lock-free
// readers. The writer fills entry bytes and slot fields before the
// release store that publishes them — the bucket head for a new slot,
// the slot's entry pointer for an overwrite, the skiplist links for
// the ordered view — and readers acquire-load those pointers. Slots,
// buckets and index nodes live as long as the memtable. An entry does
// too, unless an overwrite kills it and a later write reuses it; so
// every lock-free reader (get(), Cursor) runs inside an EpochGuard on
// the memtable's domain, and a reader that excludes the writer (holds
// the owner's lock) needs none. Nothing here advances the epoch: a
// memtable whose domain nobody drains reuses nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <string>

#include "core/verify_hooks.hpp"
#include "minikv/arena.hpp"
#include "minikv/row.hpp"
#include "minikv/skiplist.hpp"
#include "minikv/slice.hpp"
#include "reclaim/epoch.hpp"
#include "runtime/cacheline.hpp"

namespace hemlock::minikv {

/// In-memory write buffer holding the newest value of each key. Writers
/// must be serialized externally (the DB's central mutex or a shard
/// lock); get() and Cursor are safe concurrently with one writer inside
/// an EpochGuard on the memtable's domain (file header).
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
    /// Linked into the ordered index: set by the key's first add(). A
    /// clean (promoted) row stays unlinked until then. Only the writer
    /// reads or writes it.
    bool written = false;
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

  /// A memtable its owner flushes once written_memory_usage() reaches
  /// `write_buffer_bytes`. The budget sizes the bucket array (one
  /// bucket per KiB, as a power of two in [16, 2^20]) and caps the
  /// clean rows at an eighth of it. Dead entries are reused by
  /// `domain`'s epoch, which every lock-free reader of the memtable
  /// pins (file header).
  explicit MemTable(
      std::size_t write_buffer_bytes = kDefaultWriteBufferBytes,
      reclaim::EpochDomain& domain = reclaim::EpochDomain::global())
      : index_(SlotOrder{}, &arena_),
        clean_budget_(write_buffer_bytes / 8),
        domain_(domain),
        mask_(bucket_count(write_buffer_bytes) - 1),
        buckets_(new_buckets(arena_, mask_ + 1)) {}
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Make `value` the newest value of `key`, whose detail::hash_key()
  /// is `hash`: the caller hashes the key once per operation, and the
  /// bucket array takes the hash's low bits. The row is written: a
  /// clean row of the key becomes written here. The entry an overwrite
  /// of a written row replaces is dead, kept for reuse (file header).
  /// Returns whether the new entry reused a dead one.
  bool add(const Slice& key, std::uint64_t hash, const Slice& value) {
    bool reused = false;
    const char* entry = encode(key, value, &reused);
    std::atomic<Slot*>& bucket = buckets_[hash & mask_];
    Slot* s = find(bucket, hash, key);
    if (s != nullptr) {
      // mo: relaxed — only this serialized writer stores the pointer.
      const char* dead = s->entry.load(std::memory_order_relaxed);
      // mo: release — publishes the new entry's bytes to readers that
      // acquire it through Slot::newest().
      s->entry.store(entry, std::memory_order_release);
      if (!s->written) {  // the clean row's slot leaves the cap
        // mo: relaxed ×2 — stored only by this serialized writer; see
        // promote().
        clean_bytes_.store(
            clean_bytes_.load(std::memory_order_relaxed) - sizeof(Slot),
            std::memory_order_relaxed);
      }
      // A clean row's entry is its table's row: only a written one dies.
      if (s->written || HEMLOCK_VERIFY_MUTANT("memtable:kill-clean")) {
        kill(dead);
      }
    } else {
      s = link(bucket, entry, hash);
    }
    if (!s->written) {  // a new key, or a clean row's first write
      s->written = true;
      index_.insert(s);
    }
    // mo: relaxed — a count for stats and the empty-flush skip, not a
    // publication point; the stores above publish the entry.
    entries_.fetch_add(1, std::memory_order_relaxed);
    return reused;
  }

  /// Whether the clean rows have room for one more slot within an
  /// eighth of the write budget: promote()'s cap. Callable without the
  /// writer's serialization, so a reader can skip taking the owner's
  /// lock for a row promote() would refuse.
  bool has_clean_room() const {
    // mo: relaxed — a stale read admits at worst a row promote() then
    // refuses under the writer's lock, or skips one promotion.
    return clean_bytes_.load(std::memory_order_relaxed) + sizeof(Slot) <=
           clean_budget_;
  }

  /// Publish `row`, a row of the owner's table (row.hpp) whose key's
  /// detail::hash_key() is `hash`, as a clean row: a slot pointing at
  /// the row where the table stores it, so get() finds it here without
  /// a copy. The row must stay valid while this memtable can be read:
  /// the owner retires the table no earlier than the memtable (file
  /// header). Returns false, publishing nothing, when the memtable
  /// already has a row for the key (a written row is newer than the
  /// tables, and a clean one is already there) or has no clean room for
  /// it (has_clean_room()). Same writer serialization as add().
  bool promote(const char* row, std::uint64_t hash) {
    std::atomic<Slot*>& bucket = buckets_[hash & mask_];
    if (!has_clean_room() ||
        find(bucket, hash, detail::entry_key(row)) != nullptr) {
      return false;
    }
    // mo: relaxed ×2 — stored only by this serialized writer, read by
    // written_memory_usage(), an approximate footprint; link()
    // publishes the row.
    clean_bytes_.store(
        clean_bytes_.load(std::memory_order_relaxed) + sizeof(Slot),
        std::memory_order_relaxed);
    link(bucket, row, hash);
    return true;
  }

  /// As above, hashing `key` here. `seq` is the writer's sequence
  /// number; the writer applies adds in order and only the newest value
  /// is kept, so it is not stored.
  bool add(std::uint64_t /*seq*/, const Slice& key, const Slice& value) {
    return add(key, detail::hash_key(key), value);
  }

  /// Newest value for `key`, whose detail::hash_key() is `hash`, if
  /// present, as a view into the memtable's arena (a written row) or
  /// into the owner's table (a clean one). The view stays valid
  /// while the caller's EpochGuard on the memtable's domain lasts, or
  /// while the caller excludes the writer: after that an overwrite's
  /// reuse may rewrite its bytes (file header).
  bool get(const Slice& key, std::uint64_t hash, Slice* value) const {
    const Slot* s = find(buckets_[hash & mask_], hash, key);
    if (s == nullptr) return false;
    *value = detail::entry_value(s->newest());
    return true;
  }

  /// Newest value for key, if present, copied into *value. Same reader
  /// contract as above.
  bool get(const Slice& key, std::string* value) const {
    Slice found;
    if (!get(key, detail::hash_key(key), &found)) return false;
    value->assign(found.data(), found.size());
    return true;
  }

  /// Forward cursor over the written keys (clean rows are not in the
  /// ordered index), ascending, starting from the first key >= `start`,
  /// each with its newest value as of when the cursor reached it. Safe
  /// concurrently with one writer while the cursor's owner stays inside
  /// an EpochGuard on the memtable's domain, as get() is: keys inserted
  /// after a position was taken may or may not be observed, which is
  /// the usual "scan concurrent with writes" semantics.
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

  /// Adds applied, overwrites included; promotions are not adds.
  std::size_t entries() const {
    return entries_.load(std::memory_order_relaxed);  // mo: stats
  }
  /// Approximate heap footprint, bucket array and dead entries
  /// included; a clean row adds its slot (kSlotBytes) and no row bytes.
  std::size_t approximate_memory_usage() const {
    return arena_.memory_usage();
  }
  /// The footprint less the live clean rows' slots (at most an eighth
  /// of the write budget): the written rows' share, dead entries
  /// included, the flush threshold input. Equal to
  /// approximate_memory_usage() while nothing was promoted.
  std::size_t written_memory_usage() const {
    // mo: relaxed — an approximate footprint, as memory_usage() is.
    return arena_.memory_usage() -
           clean_bytes_.load(std::memory_order_relaxed);
  }

  /// The bytes a key's slot takes, and all a clean row adds.
  static constexpr std::size_t kSlotBytes = sizeof(Slot);

 private:
  static constexpr std::size_t kMinBuckets = 16;
  /// Buckets of the dead lists, by encoded size: a memtable sees few
  /// distinct entry sizes, so a bucket's chain is mostly one list.
  static constexpr std::size_t kDeadBuckets = 16;
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

  /// (key, value) encoded as one entry: into the oldest dead entry of
  /// its size once the epoch has passed it (setting *reused), else
  /// into fresh arena bytes.
  const char* encode(const Slice& key, const Slice& value, bool* reused) {
    const std::size_t n = detail::encoded_size(key, value);
    char* buf = take_expired(n);
    *reused = buf != nullptr;
    if (buf == nullptr) buf = arena_.allocate(n);
    detail::encode_entry(buf, key, value);
    return buf;
  }

  /// An entry an overwrite replaced, awaiting reuse.
  struct Dead {
    char* entry;
    std::uint64_t stamp;  ///< the domain's stamp() after the overwrite
    Dead* next;           ///< the next younger dead entry of its size
  };
  /// The dead entries of one encoded size, oldest first.
  struct DeadList {
    DeadList(std::size_t n, DeadList* next) : size(n), next_size(next) {}
    const std::size_t size;
    Dead* oldest = nullptr;
    Dead* newest = nullptr;
    DeadList* const next_size;  ///< another size of the same dead_ bucket
  };

  /// The dead list of entries of `n` bytes, or nullptr.
  DeadList* dead_list(std::size_t n) const {
    DeadList* l = dead_[n % kDeadBuckets];
    while (l != nullptr && l->size != n) l = l->next_size;
    return l;
  }

  /// List `entry`, which an overwrite has just unlinked, as dead: stamp
  /// it after the unlink, as EpochDomain::retire() stamps.
  void kill(const char* entry) {
    const std::size_t n = detail::entry_size(entry);
    DeadList* l = dead_list(n);
    if (l == nullptr) {
      DeadList*& head = dead_[n % kDeadBuckets];
      l = new (arena_.allocate_aligned(sizeof(DeadList))) DeadList(n, head);
      head = l;
    }
    Dead* d = spare_;
    if (d != nullptr) {
      spare_ = d->next;
    } else {
      d = new (arena_.allocate_aligned(sizeof(Dead))) Dead;
    }
    *d = Dead{const_cast<char*>(entry), domain_.stamp(), nullptr};
    if (l->newest != nullptr) {
      l->newest->next = d;
    } else {
      l->oldest = d;
    }
    l->newest = d;
  }

  /// The oldest dead entry of `n` bytes if every reader that could
  /// still hold it has left its epoch, taken off its list; or nullptr.
  char* take_expired(std::size_t n) {
    DeadList* l = dead_list(n);
    if (l == nullptr || l->oldest == nullptr) return nullptr;
    Dead* d = l->oldest;
    if (!domain_.expired(d->stamp) &&
        !HEMLOCK_VERIFY_MUTANT("memtable:recycle-early")) {
      return nullptr;
    }
    l->oldest = d->next;
    if (l->oldest == nullptr) l->newest = nullptr;
    d->next = spare_;  // the record serves the next kill()
    spare_ = d;
    return d->entry;
  }

  /// A new slot for `entry`, published at the head of `bucket`'s chain.
  Slot* link(std::atomic<Slot*>& bucket, const char* entry,
             std::uint64_t hash) {
    // mo: relaxed — only this (serialized) writer stores bucket heads.
    Slot* head = bucket.load(std::memory_order_relaxed);
    Slot* slot =
        new (arena_.allocate_aligned(sizeof(Slot))) Slot(entry, head, hash);
    // mo: release — publishes the slot's fields and its entry to
    // get()'s acquire walk of the chain.
    bucket.store(slot, std::memory_order_release);
    return slot;
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
  std::atomic<std::size_t> clean_bytes_{0};  ///< the live clean rows' slots
  const std::size_t clean_budget_;           ///< promote()'s limit
  reclaim::EpochDomain& domain_;             ///< stamps and expires dead entries
  DeadList* dead_[kDeadBuckets] = {};        ///< writer-only
  Dead* spare_ = nullptr;  ///< records of reused entries; writer-only
  // Read by every get() and written only by the constructor, so kept
  // off the lines the writer's adds dirty (arena cursor, skiplist
  // state, count).
  alignas(kCacheLineSize) const std::size_t mask_;
  std::atomic<Slot*>* const buckets_;
};

}  // namespace hemlock::minikv
