// slice.hpp — non-owning byte-string view, LevelDB-style, and the
// one key hash.
//
// MiniKV is this repository's stand-in for the paper's LevelDB 1.20
// workload (Figure 8, §5.4). Slice mirrors leveldb::Slice: a cheap
// (pointer, length) view used across the memtable, table and cache
// layers so lookups never copy keys. detail::hash_key is computed once
// per operation: the sharded router takes its top bits, the memtable's
// bucket array and a table's hash directory its low ones.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace hemlock::minikv {

/// Non-owning view of a byte string. The referenced storage must
/// outlive the Slice (typical sources: arena-allocated entries,
/// std::string locals held across the call).
class Slice {
 public:
  Slice() : data_(""), size_(0) {}
  Slice(const char* d, std::size_t n) : data_(d), size_(n) {}
  Slice(const std::string& s) : data_(s.data()), size_(s.size()) {}  // NOLINT
  Slice(const char* s) : data_(s), size_(std::strlen(s)) {}          // NOLINT

  /// Pointer to the first byte.
  const char* data() const { return data_; }
  /// Length in bytes.
  std::size_t size() const { return size_; }
  /// True when empty.
  bool empty() const { return size_ == 0; }

  /// Byte at index i (no bounds check beyond assertions in callers).
  char operator[](std::size_t i) const { return data_[i]; }

  /// Drop the first n bytes from the view.
  void remove_prefix(std::size_t n) {
    data_ += n;
    size_ -= n;
  }

  /// Owned copy.
  std::string to_string() const { return std::string(data_, size_); }
  /// std::string_view of the same bytes.
  std::string_view view() const { return std::string_view(data_, size_); }

  /// Three-way byte-wise comparison (<0, 0, >0), memcmp semantics.
  int compare(const Slice& b) const {
    const std::size_t n = size_ < b.size_ ? size_ : b.size_;
    int r = std::memcmp(data_, b.data_, n);
    if (r == 0) {
      if (size_ < b.size_) r = -1;
      else if (size_ > b.size_) r = +1;
    }
    return r;
  }

  /// True when `x` is a prefix of this slice.
  bool starts_with(const Slice& x) const {
    return size_ >= x.size_ && std::memcmp(data_, x.data_, x.size_) == 0;
  }

 private:
  const char* data_;
  std::size_t size_;
};

inline bool operator==(const Slice& a, const Slice& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size()) == 0;
}
inline bool operator!=(const Slice& a, const Slice& b) { return !(a == b); }

namespace detail {

/// 64-bit hash of a key, eight bytes per multiply, splitmix-finalized
/// so every output bit depends on every key byte. The length seeds it:
/// keys that differ only in trailing NULs differ.
inline std::uint64_t hash_key(const Slice& key) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  const char* p = key.data();
  std::size_t n = key.size();
  std::uint64_t h = n * kMul;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    h = (h ^ w) * kMul;
    h ^= h >> 32;
  }
  if (n > 0) {
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < n; ++i) {
      w |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    }
    h = (h ^ w) * kMul;
    h ^= h >> 32;
  }
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

}  // namespace detail

}  // namespace hemlock::minikv
