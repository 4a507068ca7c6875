// memtable.hpp — in-memory write buffer, LevelDB-style.
//
// Entries are encoded into arena storage as
//   varint32 key_size | key bytes | varint32 value_size | value bytes
// and indexed by a skiplist keyed on the encoded entry pointer, the
// same layout leveldb::MemTable uses (minus sequence numbers/value
// tags — MiniKV's DB layer serializes writers and replaces via
// last-writer-wins on flush, which preserves the Figure-8 workload's
// locking behaviour while staying simpler).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "minikv/arena.hpp"
#include "minikv/skiplist.hpp"
#include "minikv/slice.hpp"

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

/// Orders encoded entries by their keys, then by insertion sequence
/// (embedded after the value) so that later writes of the same key
/// sort *before* earlier ones — Get returns the newest.
struct EntryComparator {
  int operator()(const char* a, const char* b) const {
    const Slice ka = entry_key(a), kb = entry_key(b);
    const int c = ka.compare(kb);
    if (c != 0) return c;
    // Tie-break on the descending sequence trailer.
    const std::uint64_t sa = entry_seq(a), sb = entry_seq(b);
    if (sa > sb) return -1;
    if (sa < sb) return +1;
    return 0;
  }

  static std::uint64_t entry_seq(const char* entry) {
    const char* p = entry;
    const std::uint32_t klen = decode_varint32(&p);
    p += klen;
    const std::uint32_t vlen = decode_varint32(&p);
    p += vlen;
    std::uint64_t seq;
    std::memcpy(&seq, p, sizeof(seq));
    return seq;
  }
};

}  // namespace detail

/// In-memory sorted write buffer. Writers must be serialized
/// externally (the DB's central mutex); reads are safe concurrently
/// with one writer (the skiplist contract).
class MemTable {
 private:
  // Declared up front: Cursor (below) embeds an Index::Iterator.
  using Index = SkipList<const char*, detail::EntryComparator>;

 public:
  MemTable() : table_(detail::EntryComparator(), &arena_) {}
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Insert key -> value with a sequence number (monotone per DB).
  void add(std::uint64_t seq, const Slice& key, const Slice& value) {
    const std::size_t klen = key.size();
    const std::size_t vlen = value.size();
    const std::size_t bytes = detail::varint32_length(klen) + klen +
                              detail::varint32_length(vlen) + vlen +
                              sizeof(std::uint64_t);
    char* buf = arena_.allocate(bytes);
    char* p = detail::encode_varint32(buf, static_cast<std::uint32_t>(klen));
    std::memcpy(p, key.data(), klen);
    p += klen;
    p = detail::encode_varint32(p, static_cast<std::uint32_t>(vlen));
    std::memcpy(p, value.data(), vlen);
    p += vlen;
    std::memcpy(p, &seq, sizeof(seq));
    table_.insert(buf);
    // mo: relaxed — the counter is a fast-path hint (and a
    // diagnostic), not a publication point; the skiplist's own release
    // stores publish the entry to lock-free readers.
    entries_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Newest value for key, if present.
  bool get(const Slice& key, std::string* value) const {
    // mo: relaxed — emptiness hint; a racing insert is published by
    // the skiplist's release stores, not this counter.
    if (entries_.load(std::memory_order_relaxed) == 0) {
      return false;  // common post-flush fast path
    }
    Index::Iterator it(&table_);
    const std::string probe = seek_probe(key);
    it.seek(probe.data());
    if (!it.valid()) return false;
    const Slice found = detail::entry_key(it.key());
    if (found != key) return false;
    *value = detail::entry_value(it.key()).to_string();
    return true;
  }

  /// Forward cursor over the *newest* version of each key, ascending,
  /// starting from the first key >= `start`. Safe concurrently with
  /// one writer (the skiplist iteration contract): entries inserted
  /// after a position was taken may or may not be observed, which is
  /// the usual "scan concurrent with writes" semantics.
  class Cursor {
   public:
    Cursor(const MemTable& mem, const Slice& start) : it_(&mem.table_) {
      const std::string probe = mem.seek_probe(start);
      it_.seek(probe.data());
    }

    bool valid() const { return it_.valid(); }
    Slice key() const { return detail::entry_key(it_.key()); }
    Slice value() const { return detail::entry_value(it_.key()); }

    /// Advance to the next distinct key (skipping the current key's
    /// superseded older versions, which sort immediately after).
    void next() {
      const Slice cur = key();  // arena-backed; stays valid across next()
      do {
        it_.next();
      } while (it_.valid() && detail::entry_key(it_.key()) == cur);
    }

   private:
    Index::Iterator it_;
  };

  /// Entries inserted (including superseded versions).
  std::size_t entries() const {
    return entries_.load(std::memory_order_relaxed);  // mo: stats
  }
  /// Approximate heap footprint (flush threshold input).
  std::size_t approximate_memory_usage() const {
    return arena_.memory_usage();
  }

 private:
  /// Encoded entry that sorts as (key, +inf seq) — i.e. immediately
  /// before the newest real entry for `key` under EntryComparator's
  /// descending-sequence tie-break. Shared by get() and Cursor.
  std::string seek_probe(const Slice& key) const {
    const std::size_t klen = key.size();
    std::string probe;
    probe.resize(detail::varint32_length(klen) + klen +
                 detail::varint32_length(0) + sizeof(std::uint64_t));
    char* p = detail::encode_varint32(probe.data(),
                                      static_cast<std::uint32_t>(klen));
    std::memcpy(p, key.data(), klen);
    p += klen;
    p = detail::encode_varint32(p, 0);  // empty value
    const std::uint64_t max_seq = ~0ULL;
    std::memcpy(p, &max_seq, sizeof(max_seq));
    return probe;
  }

  Arena arena_;
  Index table_;
  std::atomic<std::size_t> entries_{0};
};

}  // namespace hemlock::minikv
