// arena.hpp — bump allocator backing the memtable: its entries, key
// slots, hash buckets and skiplist nodes.
//
// Mirrors leveldb::Arena: allocation is a pointer bump within 4KB
// blocks; memory is reclaimed wholesale when the memtable is dropped.
// Entries allocated here are immutable once published to readers, and
// nothing is freed while the memtable lives, which is what lets Get()
// run outside the DB's central mutex.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace hemlock::minikv {

/// Block-based bump allocator. Allocation is NOT thread-safe (MiniKV
/// serializes writers under the DB mutex, as LevelDB does); memory
/// usage accounting is readable concurrently.
class Arena {
 public:
  Arena();
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocate `bytes` (unaligned tail packing within the block).
  char* allocate(std::size_t bytes);

  /// Allocate with pointer alignment (for node structures).
  char* allocate_aligned(std::size_t bytes);

  /// Total heap footprint (for flush-threshold decisions); safe to
  /// read from any thread.
  std::size_t memory_usage() const {
    // mo: relaxed — approximate footprint read; see arena.cpp.
    return memory_usage_.load(std::memory_order_relaxed);
  }

 private:
  char* allocate_fallback(std::size_t bytes);
  char* allocate_new_block(std::size_t block_bytes);

  static constexpr std::size_t kBlockSize = 4096;

  char* alloc_ptr_ = nullptr;
  std::size_t alloc_remaining_ = 0;
  std::vector<char*> blocks_;
  std::atomic<std::size_t> memory_usage_{0};
};

}  // namespace hemlock::minikv
