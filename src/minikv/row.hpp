// row.hpp — the one row encoding MiniKV stores.
//
// A memtable entry and a table block's row are the same bytes
// (LevelDB's memtable wire format):
//
//   varint32 key_size | key bytes | varint32 value_size | value bytes
//
// A row is addressed by its first byte and describes its own extent,
// so a pointer to a table's row can stand wherever a memtable entry
// pointer does: read promotion (memtable.hpp) links the table's row
// into the memtable instead of copying it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "minikv/slice.hpp"

namespace hemlock::minikv::detail {

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

/// Encoded size of the row (key, value).
inline std::size_t encoded_size(const Slice& key, const Slice& value) {
  return varint32_length(static_cast<std::uint32_t>(key.size())) + key.size() +
         varint32_length(static_cast<std::uint32_t>(value.size())) +
         value.size();
}

/// Encode (key, value) at dst, which has encoded_size() bytes.
inline void encode_entry(char* dst, const Slice& key, const Slice& value) {
  char* p = encode_varint32(dst, static_cast<std::uint32_t>(key.size()));
  std::memcpy(p, key.data(), key.size());
  p = encode_varint32(p + key.size(), static_cast<std::uint32_t>(value.size()));
  std::memcpy(p, value.data(), value.size());
}

/// Key view of an encoded row.
inline Slice entry_key(const char* entry) {
  const char* p = entry;
  const std::uint32_t klen = decode_varint32(&p);
  return Slice(p, klen);
}

/// Value view of an encoded row.
inline Slice entry_value(const char* entry) {
  const char* p = entry;
  const std::uint32_t klen = decode_varint32(&p);
  p += klen;
  const std::uint32_t vlen = decode_varint32(&p);
  return Slice(p, vlen);
}

/// Encoded size of a row: its key's and value's varints and bytes.
inline std::size_t entry_size(const char* entry) {
  const Slice v = entry_value(entry);
  return static_cast<std::size_t>(v.data() + v.size() - entry);
}

}  // namespace hemlock::minikv::detail
