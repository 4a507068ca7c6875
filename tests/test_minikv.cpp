// test_minikv.cpp — unit and integration tests for the MiniKV
// substrate (the Figure-8 LevelDB substitute): slice, varint
// encoding, arena, skiplist, memtable, the block format, immutable
// tables, the epoch-protected block cache, the DB facade with its
// pluggable central mutex, and ShardedDB's read promotion.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iterator>
#include <map>
#include <new>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/factory.hpp"
#include "core/hemlock.hpp"
#include "locks/mcs.hpp"
#include "locks/system.hpp"
#include "minikv/arena.hpp"
#include "minikv/cache.hpp"
#include "minikv/db.hpp"
#include "minikv/db_bench.hpp"
#include "minikv/memtable.hpp"
#include "minikv/scan.hpp"
#include "minikv/sharded_db.hpp"
#include "minikv/skiplist.hpp"
#include "minikv/slice.hpp"
#include "minikv/status.hpp"
#include "minikv/storage.hpp"
#include "minikv/table.hpp"
#include "reclaim/epoch.hpp"

// Allocation counting for CacheTest.WarmMissesNeitherAllocateNorFree
// and DbTest.ShardedScanCopiesOnlyItsResults: while a thread arms it, the replaced global operator new / delete
// count that thread's calls. They stay out of line: where GCC inlines this
// malloc-backed new and free-backed delete into one caller (a
// std::string temporary), it warns -Wmismatched-new-delete, which
// HEMLOCK_WERROR turns into a build failure.
namespace {
thread_local bool t_count_allocs = false;
thread_local std::size_t t_news = 0;
thread_local std::size_t t_deletes = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  if (t_count_allocs) ++t_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (t_count_allocs && p != nullptr) ++t_deletes;
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace hemlock::minikv {
namespace {

// ---------------------------------------------------------- Slice --
TEST(Slice, BasicViewsAndCompare) {
  Slice a("abc");
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.to_string(), "abc");
  EXPECT_TRUE(Slice("") .empty());
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);   // prefix sorts first
  EXPECT_TRUE(Slice("abcdef").starts_with(Slice("abc")));
  EXPECT_FALSE(Slice("ab").starts_with(Slice("abc")));
  Slice b("hello world");
  b.remove_prefix(6);
  EXPECT_EQ(b.to_string(), "world");
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

// --------------------------------------------------------- varint --
TEST(Varint, RoundTripsAllWidths) {
  for (std::uint32_t v : {0u, 1u, 127u, 128u, 300u, 16383u, 16384u,
                          2097151u, 268435455u, 4294967295u}) {
    char buf[8];
    char* end = detail::encode_varint32(buf, v);
    EXPECT_EQ(static_cast<std::size_t>(end - buf),
              detail::varint32_length(v));
    const char* p = buf;
    EXPECT_EQ(detail::decode_varint32(&p), v);
    EXPECT_EQ(p, end);
  }
}

// ----------------------------------------------------------- Arena --
TEST(Arena, AllocatesAndAccountsMemory) {
  Arena arena;
  EXPECT_EQ(arena.memory_usage(), 0u);
  char* p1 = arena.allocate(100);
  ASSERT_NE(p1, nullptr);
  std::memset(p1, 0xAB, 100);
  EXPECT_GT(arena.memory_usage(), 0u);
  // Aligned allocations are pointer-aligned.
  for (int i = 0; i < 50; ++i) {
    arena.allocate(3);  // misalign the bump pointer
    char* q = arena.allocate_aligned(16);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % alignof(void*), 0u);
  }
  // Large allocations get dedicated blocks.
  char* big = arena.allocate(8192);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xCD, 8192);
}

// -------------------------------------------------------- SkipList --
struct IntCmp {
  int operator()(std::uint64_t a, std::uint64_t b) const {
    return a < b ? -1 : (a > b ? 1 : 0);
  }
};

TEST(SkipListTest, InsertAndContains) {
  Arena arena;
  SkipList<std::uint64_t, IntCmp> list(IntCmp{}, &arena);
  std::mt19937 rng(42);
  std::set<std::uint64_t> inserted;
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t v = rng() % 10000 + 1;  // avoid 0 (head key)
    if (inserted.insert(v).second) list.insert(v);
  }
  for (std::uint64_t v = 1; v <= 10000; ++v) {
    EXPECT_EQ(list.contains(v), inserted.count(v) == 1) << v;
  }
}

TEST(SkipListTest, IterationIsSorted) {
  Arena arena;
  SkipList<std::uint64_t, IntCmp> list(IntCmp{}, &arena);
  for (std::uint64_t v : {5u, 1u, 9u, 3u, 7u}) list.insert(v);
  SkipList<std::uint64_t, IntCmp>::Iterator it(&list);
  std::vector<std::uint64_t> got;
  for (it.seek_to_first(); it.valid(); it.next()) got.push_back(it.key());
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 3, 5, 7, 9}));
  it.seek(4);
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), 5u);
  it.seek(10);
  EXPECT_FALSE(it.valid());
}

TEST(SkipListTest, ConcurrentReadersWithOneWriter) {
  Arena arena;
  SkipList<std::uint64_t, IntCmp> list(IntCmp{}, &arena);
  constexpr std::uint64_t kMax = 20000;
  std::atomic<std::uint64_t> watermark{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    // r by value: the thread outlives the loop iteration's scope.
    readers.emplace_back([&, r] {
      std::mt19937 rng(r + 1);
      while (watermark.load(std::memory_order_acquire) < kMax) {
        const std::uint64_t w = watermark.load(std::memory_order_acquire);
        if (w == 0) continue;
        const std::uint64_t probe = rng() % w + 1;
        // Everything at or below the watermark must be present.
        if (!list.contains(probe)) failed.store(true);
      }
    });
  }
  for (std::uint64_t v = 1; v <= kMax; ++v) {
    list.insert(v);
    watermark.store(v, std::memory_order_release);
  }
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
}

// -------------------------------------------------------- MemTable --
TEST(MemTableTest, AddGetNewestWins) {
  MemTable mem;
  std::string v;
  EXPECT_FALSE(mem.get("k", &v));
  mem.add(1, "k", "v1");
  ASSERT_TRUE(mem.get("k", &v));
  EXPECT_EQ(v, "v1");
  mem.add(2, "k", "v2");  // overwrite: newest must win
  ASSERT_TRUE(mem.get("k", &v));
  EXPECT_EQ(v, "v2");
  EXPECT_FALSE(mem.get("other", &v));
  EXPECT_EQ(mem.entries(), 2u);
}

TEST(MemTableTest, DistinctKeysAndEmptyValues) {
  MemTable mem;
  mem.add(1, "a", "");
  mem.add(2, "ab", "x");
  mem.add(3, "b", std::string(1000, 'z'));
  std::string v;
  ASSERT_TRUE(mem.get("a", &v));
  EXPECT_EQ(v, "");
  ASSERT_TRUE(mem.get("ab", &v));
  EXPECT_EQ(v, "x");
  ASSERT_TRUE(mem.get("b", &v));
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_FALSE(mem.get("aa", &v));
}

TEST(MemTableTest, CursorYieldsNewestVersionOnce) {
  MemTable mem;
  mem.add(1, "b", "old-b");
  mem.add(2, "a", "va");
  mem.add(3, "b", "new-b");
  mem.add(4, "c", "vc");
  std::vector<std::pair<std::string, std::string>> got;
  for (MemTable::Cursor c(mem, Slice()); c.valid(); c.next()) {
    got.emplace_back(c.key().to_string(), c.value().to_string());
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::pair<std::string, std::string>{"a", "va"}));
  EXPECT_EQ(got[1], (std::pair<std::string, std::string>{"b", "new-b"}));
  EXPECT_EQ(got[2], (std::pair<std::string, std::string>{"c", "vc"}));
}

// Seeded model check: the memtable against a std::map holding the
// newest value per key, through both the hashing forms and the ones
// that take the caller's hash. A 1 KiB budget gets the minimum bucket
// count (16), so the ~40 keys share chains several deep.
TEST(MemTableTest, MatchesMapModel) {
  MemTable mem(1024);
  std::map<std::string, std::string> model;
  std::vector<std::string> keys = {
      "",  "a", "ab", "abc", "abcd", std::string(1, '\0'),
      std::string(2, '\0'), std::string("a\0", 2), std::string("a\0b", 3),
      std::string("ab\0", 3), "b", std::string(40, 'k')};
  std::mt19937_64 rng(0x5EED14);
  while (keys.size() < 40) keys.push_back("key" + std::to_string(rng() % 100000));
  std::size_t adds = 0;
  for (int i = 0; i < 6000; ++i) {
    // Three adds in four overwrite one of four hot keys.
    const std::string& k = keys[i % 4 != 0 ? rng() % 4 : rng() % keys.size()];
    const std::string v = rng() % 8 == 0 ? "" : "v" + std::to_string(i);
    if (i % 2 == 0) {
      mem.add(static_cast<std::uint64_t>(i) + 1, k, v);
    } else {
      mem.add(k, detail::hash_key(k), v);
    }
    model[k] = v;
    ++adds;
  }
  EXPECT_EQ(mem.entries(), adds);

  std::vector<std::string> probes = keys;
  for (const char* absent : {"aa", "abcde", "c", "key", "\x7f"}) {
    probes.emplace_back(absent);
  }
  probes.emplace_back("a\0\0", 3);
  std::string v;
  Slice view;
  for (const std::string& k : probes) {
    const auto it = model.find(k);
    ASSERT_EQ(mem.get(k, &v), it != model.end()) << ::testing::PrintToString(k);
    ASSERT_EQ(mem.get(k, detail::hash_key(k), &view), it != model.end());
    if (it == model.end()) continue;
    EXPECT_EQ(v, it->second);
    EXPECT_EQ(view.to_string(), it->second);
  }

  for (const std::string& start : probes) {
    std::vector<std::pair<std::string, std::string>> got;
    for (MemTable::Cursor c(mem, start); c.valid(); c.next()) {
      got.emplace_back(c.key().to_string(), c.value().to_string());
    }
    const std::vector<std::pair<std::string, std::string>> want(
        model.lower_bound(start), model.end());
    ASSERT_EQ(got, want) << "start " << ::testing::PrintToString(start);
  }
}

// One writer overwrites keys with increasing counters while readers
// probe keys below the watermark (every one must be found, and a key's
// counter must never go down for a reader) and walk cursors (keys
// strictly ascending, every key published before the walk present).
TEST(MemTableTest, ConcurrentReadersSeeNewestValuesOnly) {
  MemTable mem(16 * 1024);  // 16 buckets: 64 keys, chains of ~4
  constexpr std::uint64_t kKeys = 64;
  constexpr std::uint64_t kAdds = 200000;
  auto key_of = [](std::uint64_t k) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%03u", static_cast<unsigned>(k));
    return std::string(buf);
  };
  std::atomic<std::uint64_t> watermark{0};  // keys 0..watermark-1 added
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 prng(r + 7);
      std::vector<std::uint64_t> last(kKeys, 0);
      std::string v;
      auto observe = [&](std::uint64_t k, const std::string& value) {
        const std::uint64_t n = std::stoull(value);
        if (n < last[k]) failed.store(true);
        last[k] = n;
      };
      for (unsigned i = 0; !done.load(std::memory_order_acquire); ++i) {
        const std::uint64_t w = watermark.load(std::memory_order_acquire);
        if (w == 0) continue;
        // Lock-free readers pin the memtable's domain (memtable.hpp).
        reclaim::EpochGuard pin(reclaim::EpochDomain::global());
        if (i % 64 != 0) {
          const std::uint64_t k = prng.below64(w);
          if (!mem.get(key_of(k), &v)) {
            failed.store(true);
          } else {
            observe(k, v);
          }
          continue;
        }
        std::string prev;
        std::uint64_t seen = 0;
        for (MemTable::Cursor c(mem, Slice()); c.valid(); c.next()) {
          const std::string k = c.key().to_string();
          if (seen > 0 && Slice(prev).compare(Slice(k)) >= 0) failed.store(true);
          observe(std::stoull(k.substr(1)), c.value().to_string());
          prev = k;
          ++seen;
        }
        if (seen < w) failed.store(true);
      }
    });
  }
  for (std::uint64_t n = 1; n <= kAdds; ++n) {
    const std::uint64_t k = (n - 1) % kKeys;
    mem.add(n, key_of(k), std::to_string(n));
    if (n <= kKeys) watermark.store(n, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(mem.entries(), kAdds);
}

// ----------------------------------------------------------- Block --
TEST(BlockTest, AccessorsOverOneBuffer) {
  Block::Builder b;
  b.add("a", "1");
  b.add(Slice("b\0c", 3), "");
  b.add("d", Slice("x\0y", 3));
  const Block blk = b.finish();
  ASSERT_EQ(blk.size(), 3u);
  EXPECT_EQ(blk.key(1), Slice("b\0c", 3));
  EXPECT_TRUE(blk.value(1).empty());
  EXPECT_EQ(blk.value(2), Slice("x\0y", 3));
  EXPECT_EQ(blk.lower_bound(""), 0u);
  EXPECT_EQ(blk.lower_bound("b"), 1u);
  EXPECT_EQ(blk.lower_bound("c"), 2u);
  EXPECT_EQ(blk.lower_bound("e"), 3u);
  // Rows are encoded as memtable entries are: 4 + 5 + 6 bytes (each
  // key and value plus two 1-byte varints), then one offset per row.
  EXPECT_EQ(blk.charge(), sizeof(Block) + 15 + 3 * sizeof(std::uint32_t));
  std::string entry(detail::encoded_size("d", Slice("x\0y", 3)), '\0');
  detail::encode_entry(entry.data(), "d", Slice("x\0y", 3));
  EXPECT_EQ(Slice(blk.row(2), detail::entry_size(blk.row(2))), Slice(entry));
  // The builder starts over empty after finish().
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.finish().size(), 0u);
  EXPECT_EQ(Block().size(), 0u);
}

// Random bytes over an alphabet with NUL and 0xff, short enough that
// keys share prefixes.
std::string random_bytes(std::mt19937& rng, std::size_t min_len,
                         std::size_t max_len) {
  static constexpr char kAlphabet[] = {'\0', '\x01', 'a', 'b', '\xff'};
  std::uniform_int_distribution<std::size_t> len(min_len, max_len);
  std::uniform_int_distribution<std::size_t> pick(0, sizeof(kAlphabet) - 1);
  std::string s(len(rng), '\0');
  for (char& c : s) c = kAlphabet[pick(rng)];
  return s;
}

/// Where `key` sits in `t` — (block, entry) — found through the
/// table's hash directory, reading blocks in place; nullopt when the
/// directory has no entry holding it. Candidates that hold another key
/// (a fingerprint collision) are counted in *collisions.
std::optional<std::pair<std::size_t, std::size_t>> locate(
    const ImmutableTable& t, const Slice& key, std::size_t* collisions = nullptr) {
  std::optional<std::pair<std::size_t, std::size_t>> at;
  t.probe(detail::hash_key(key), [&](std::size_t b, std::size_t e) {
    if (b >= t.num_blocks() || e >= t.block(b).size()) {
      ADD_FAILURE() << "candidate (" << b << ", " << e << ") out of range";
      return true;
    }
    if (t.block(b).key(e) != key) {
      if (collisions != nullptr) ++*collisions;
      return false;
    }
    at.emplace(b, e);
    return true;
  });
  return at;
}

TEST(BlockFormatProperty, SeededTablesAcrossFanouts) {
  constexpr std::size_t kFanouts[] = {1, 7, 16};
  for (unsigned run = 0; run < 2 * std::size(kFanouts); ++run) {
    const std::size_t fanout = kFanouts[run / 2];
    const bool with_empty_key = run % 2 == 1;
    SCOPED_TRACE("fanout " + std::to_string(fanout) +
                 (with_empty_key ? ", empty key stored" : ""));
    std::mt19937 rng(static_cast<std::uint32_t>(1000 + fanout + with_empty_key));
    // Distinct keys, non-empty unless the empty key is stored; the
    // count leaves the last block exactly one entry. std::string orders
    // bytes as unsigned, like Slice.
    const std::size_t n = 9 * fanout + 1;
    std::set<std::string> keys{std::string("a\0b", 3)};
    if (with_empty_key) keys.insert("");
    while (keys.size() < n) keys.insert(random_bytes(rng, 1, 6));
    std::vector<std::pair<std::string, std::string>> rows;
    for (const auto& k : keys) rows.emplace_back(k, random_bytes(rng, 0, 24));
    rows[0].second.clear();                    // an empty value
    rows[1].second = std::string("\0v\0", 3);  // NULs inside a value

    const ImmutableTable t(7, rows, fanout);
    ASSERT_EQ(t.num_entries(), n);
    ASSERT_EQ(t.num_blocks(), (n + fanout - 1) / fanout);
    EXPECT_EQ(t.largest(), rows.back().first);

    // Block shapes, contents and charges.
    for (std::size_t b = 0; b < t.num_blocks(); ++b) {
      const auto blk = t.read_block(b);
      const std::size_t want = b + 1 == t.num_blocks() ? 1 : fanout;
      ASSERT_EQ(blk->size(), want);
      std::size_t bytes = 0;
      for (std::size_t i = 0; i < blk->size(); ++i) {
        const auto& [k, v] = rows[b * fanout + i];
        EXPECT_EQ(blk->key(i), Slice(k));
        EXPECT_EQ(blk->value(i), Slice(v));
        bytes += k.size() + v.size();
      }
      EXPECT_GE(blk->charge(), bytes);
      // A miss copies: the block handed out is not the table's own.
      EXPECT_NE(blk->key(0).data(), t.block(b).key(0).data());
    }

    // The directory finds every present key at its own (block, entry),
    // and a seek's block_for lands on that block.
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [k, want] = rows[i];
      const auto at = locate(t, k);
      ASSERT_TRUE(at.has_value()) << ::testing::PrintToString(k);
      EXPECT_EQ(*at, std::make_pair(i / fanout, i % fanout));
      EXPECT_EQ(t.block(at->first).value(at->second), Slice(want));
      EXPECT_EQ(t.block_for(k), static_cast<std::int64_t>(i / fanout));
    }

    // Absent keys: below the smallest, between neighbours, beyond the
    // largest. The directory finds none of them.
    std::vector<std::string> absent{"", rows.back().first + "\xff"};
    for (const auto& [k, unused] : rows) absent.push_back(k + '\0');
    std::erase_if(absent, [&](const std::string& k) { return keys.count(k); });
    for (const auto& k : absent) {
      EXPECT_FALSE(locate(t, k).has_value()) << ::testing::PrintToString(k);
    }
    EXPECT_EQ(t.block_for(""), with_empty_key ? 0 : -1);

    // A merge scan from every start key returns the input's suffix.
    MemTable empty;
    TableVersion version;
    version.tables.push_back(std::make_shared<ImmutableTable>(8, rows, fanout));
    auto fetch = [](const ImmutableTable& table, std::size_t b) {
      return table.read_block(b);
    };
    std::vector<std::string> starts = absent;
    for (const auto& [k, unused] : rows) starts.push_back(k);
    for (const auto& start : starts) {
      std::vector<std::pair<std::string, std::string>> got;
      merge_scan(empty, version, start, fetch,
                 [&](const Slice& k, const Slice& val) {
                   got.emplace_back(k.to_string(), val.to_string());
                   return true;
                 });
      const auto from = std::lower_bound(
          rows.begin(), rows.end(), start,
          [](const auto& row, const std::string& k) { return row.first < k; });
      EXPECT_EQ(got, (std::vector<std::pair<std::string, std::string>>(
                         from, rows.end())));
    }
  }
}

// --------------------------------------------------- ImmutableTable --
std::vector<std::pair<std::string, std::string>> make_sorted(int n) {
  std::vector<std::pair<std::string, std::string>> v;
  for (int i = 0; i < n; ++i) {
    v.emplace_back(bench_key(static_cast<std::uint64_t>(i) * 2),
                   "val" + std::to_string(i * 2));
  }
  return v;
}

TEST(ImmutableTableTest, BlockLookupFindsEveryKey) {
  ImmutableTable t(1, make_sorted(100), /*block_fanout=*/7);
  EXPECT_EQ(t.num_entries(), 100u);
  EXPECT_EQ(t.num_blocks(), (100 + 6) / 7);
  for (int i = 0; i < 100; ++i) {
    const auto key = bench_key(static_cast<std::uint64_t>(i) * 2);
    const auto at = locate(t, key);
    ASSERT_TRUE(at.has_value()) << key;
    EXPECT_EQ(*at, std::make_pair(static_cast<std::size_t>(i) / 7,
                                  static_cast<std::size_t>(i) % 7));
    EXPECT_EQ(t.read_block(at->first)->value(at->second).to_string(),
              "val" + std::to_string(i * 2));
    EXPECT_FALSE(locate(t, bench_key(static_cast<std::uint64_t>(i) * 2 + 1)));
  }
}

// At 2^17 keys a directory slot carries 14 fingerprint bits at load
// 0.5, so some probes meet a slot whose fingerprint matches another
// key's: the key compare must reject it and the probe walk on.
TEST(ImmutableTableTest, DirectoryWalksPastFingerprintCollisions) {
  constexpr std::size_t kN = std::size_t{1} << 17;
  std::vector<std::pair<std::string, std::string>> rows;
  rows.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) rows.emplace_back(bench_key(2 * i), "");
  const ImmutableTable t(1, rows, ImmutableTable::kDefaultBlockFanout);
  // At most half full, in a power-of-two array of 4-byte slots.
  EXPECT_EQ(t.directory_bytes(), 2 * kN * sizeof(std::uint32_t));
  std::size_t collisions = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    const auto at = locate(t, rows[i].first, &collisions);
    ASSERT_TRUE(at.has_value()) << rows[i].first;
    ASSERT_EQ(at->first * ImmutableTable::kDefaultBlockFanout + at->second, i);
    ASSERT_FALSE(locate(t, bench_key(2 * i + 1), &collisions));
  }
  EXPECT_GT(collisions, 0u);
}

TEST(ImmutableTableTest, MissesFallInTheRightPlaces) {
  ImmutableTable t(2, make_sorted(50), 8);
  // Key below the smallest: no candidate block.
  EXPECT_EQ(t.block_for("0000000000000000"), 0);  // equals first key -> block 0
  ImmutableTable t2(3, {{"b", "1"}, {"d", "2"}}, 8);
  EXPECT_EQ(t2.block_for("a"), -1);
  EXPECT_EQ(t2.block_for("c"), 0);
  EXPECT_FALSE(locate(t2, "a"));
  EXPECT_FALSE(locate(t2, "c"));
  EXPECT_FALSE(locate(t2, "e"));
  EXPECT_EQ(locate(t2, "b"), std::make_pair(std::size_t{0}, std::size_t{0}));
  EXPECT_EQ(locate(t2, "d"), std::make_pair(std::size_t{0}, std::size_t{1}));
}

TEST(ImmutableTableTest, EmptyTableHasNoBlocks) {
  const ImmutableTable t(4, {});
  EXPECT_EQ(t.num_blocks(), 0u);
  EXPECT_EQ(t.block_for("a"), -1);
  EXPECT_FALSE(locate(t, "a"));
  EXPECT_FALSE(locate(t, ""));
}

// A fanout of 0 would never advance the block-building loop; every
// build type rejects it (asserts are compiled out of release builds).
TEST(ImmutableTableTest, RejectsZeroFanout) {
  EXPECT_THROW(ImmutableTable(1, make_sorted(3), 0), std::invalid_argument);
  EXPECT_THROW(ImmutableTable::Builder(0), std::invalid_argument);
  DbOptions opt;
  opt.block_fanout = 0;
  EXPECT_THROW(DB<PthreadMutex> db(opt), std::invalid_argument);
}

TEST(ShardedDbOptionsTest, RejectsZeroShardsAndZeroFanout) {
  ShardedDbOptions no_shards;
  no_shards.num_shards = 0;
  EXPECT_THROW(ShardedDB<> db(no_shards), std::invalid_argument);
  EXPECT_THROW(ShardedDB<> db(no_shards, "mcs"), std::invalid_argument);
  ShardedDbOptions no_fanout;
  no_fanout.block_fanout = 0;
  EXPECT_THROW(ShardedDB<> db(no_fanout), std::invalid_argument);
}

// ------------------------------------------------------------ Cache --
TEST(CacheTest, HitMissPromoteEvict) {
  ShardedLruCache<Block> cache(16 * 1024);
  auto mkblock = [](int tag) {
    Block::Builder b;
    b.add("k" + std::to_string(tag), "v");
    return std::make_shared<Block>(b.finish());
  };
  const BlockKey k1{1, 0}, k2{1, 1};
  EXPECT_EQ(cache.lookup(k1), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(k1, mkblock(1), 100);
  auto got = cache.lookup(k1);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->key(0), Slice("k1"));
  EXPECT_EQ(cache.hits(), 1u);
  cache.insert(k2, mkblock(2), 100);
  EXPECT_NE(cache.lookup(k2), nullptr);
  EXPECT_GT(cache.usage(), 0u);
  cache.erase(k1);
  EXPECT_EQ(cache.lookup(k1), nullptr);
}

/// `n` block keys that land in the same cache shard.
std::vector<BlockKey> keys_in_one_shard(std::size_t n) {
  std::vector<BlockKey> keys;
  for (std::uint32_t i = 0; keys.size() < n; ++i) {
    const BlockKey k{1, i};
    if (BlockKeyHash{}(k) % ShardedLruCache<Block>::kNumShards == 0) {
      keys.push_back(k);
    }
  }
  return keys;
}

TEST(CacheTest, EvictsLeastRecentlyUsedUnderPressure) {
  // One shard of 250 bytes (the cache splits its budget evenly across
  // shards): inserting beyond capacity evicts what CLOCK saw least
  // recently used.
  ShardedLruCache<Block> cache(250 * ShardedLruCache<Block>::kNumShards);
  const std::vector<BlockKey> k = keys_in_one_shard(3);
  cache.insert(k[0], Block(), 100);
  cache.insert(k[1], Block(), 100);
  // Touch k[0] so k[1] is the victim.
  EXPECT_NE(cache.lookup(k[0]), nullptr);
  cache.insert(k[2], Block(), 100);  // forces eviction of k[1]
  EXPECT_EQ(cache.lookup(k[1]), nullptr);
  EXPECT_NE(cache.lookup(k[0]), nullptr);
  EXPECT_NE(cache.lookup(k[2]), nullptr);
  EXPECT_GE(cache.evictions(), 1u);
}

TEST(CacheTest, ReplacingSameKeyUpdatesCharge) {
  ShardedLruCache<Block> cache(1000 * ShardedLruCache<Block>::kNumShards);
  const BlockKey k{7, 7};
  cache.insert(k, Block(), 400);
  EXPECT_EQ(cache.usage(), 400u);
  cache.insert(k, Block(), 100);
  EXPECT_EQ(cache.usage(), 100u);
}

/// A table of 400 blocks of the same charge for the concurrent cache
/// tests, with every key and value kept aside to check blocks against.
struct StressTable {
  static constexpr std::size_t kBlocks = 400;
  static constexpr std::size_t kFanout = 16;

  StressTable() {
    std::vector<std::pair<std::string, std::string>> rows;
    for (std::size_t k = 0; k < kBlocks * kFanout; ++k) {
      std::string value = "value-" + std::to_string(k);
      value.resize(40, '.');
      rows.emplace_back(bench_key(k), std::move(value));
    }
    table = std::make_shared<ImmutableTable>(1, rows, kFanout);
    entries = std::move(rows);
  }

  /// Whether `got` holds exactly the entries of block `b`.
  bool holds(const Block& got, std::size_t b) const {
    if (got.size() != kFanout) return false;
    for (std::size_t i = 0; i < kFanout; ++i) {
      const auto& [k, v] = entries[b * kFanout + i];
      if (got.key(i) != Slice(k) || got.value(i) != Slice(v)) return false;
    }
    return true;
  }

  std::shared_ptr<ImmutableTable> table;
  std::vector<std::pair<std::string, std::string>> entries;
};

using Cache = ShardedLruCache<Block>;
/// Spare entries the whole cache may own beyond its live ones.
constexpr std::size_t kCacheSpareBound = Cache::kNumShards * Cache::kSpareBound;

// Readers under EpochGuards race inserts, CLOCK evictions and entry
// recycling; every block they get back must be the block they asked
// for, whole. (TSan in CI checks the memory-model side.)
TEST(CacheTest, ConcurrentLookupOrInsertStress) {
  reclaim::EpochDomain domain;
  const StressTable st;
  Cache cache(64 << 10, domain);  // holds ~1/8 of the blocks
  constexpr int kThreads = 3;
  constexpr int kOpsEach = 30000;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t + 1);
      for (int i = 0; i < kOpsEach; ++i) {
        const std::size_t b = rng.below(StressTable::kBlocks);
        reclaim::EpochGuard g(domain);
        const BlockRef got = read_block_cached(cache, *st.table, b);
        if (!st.holds(*got, b)) bad.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  // Striped counts are exact: one hit or miss per lookup.
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kOpsEach);
  EXPECT_GT(cache.evictions(), 0u);
  const Cache::Footprint f = cache.footprint();
  EXPECT_LE(f.owned, f.live + kCacheSpareBound);
  // Misses reuse entries: every cached miss takes an entry, so more
  // cached misses than entries ever allocated means at least one took
  // a recycled one. (How many depends on how often preempted readers
  // let the epoch advance; WarmMissesNeitherAllocateNorFree pins the
  // steady state single-threaded.)
  EXPECT_GT(cache.misses() - cache.bypassed(), f.allocated);
}

// Once the dead entries circulate, a miss copies into a recycled
// entry: it allocates and frees nothing. Only a bypassed miss (its own
// copy, two allocations and two frees) or a shard still growing toward
// its bound (a new entry and its buffer) may allocate.
TEST(CacheTest, WarmMissesNeitherAllocateNorFree) {
  reclaim::EpochDomain domain;
  const StressTable st;
  Cache cache(64 << 10, domain);
  Xoshiro256 rng(3);
  auto op = [&] {
    const std::size_t b = rng.below(StressTable::kBlocks);
    reclaim::EpochGuard g(domain);
    const BlockRef got = read_block_cached(cache, *st.table, b);
    return st.holds(*got, b);
  };
  for (int i = 0; i < 20000; ++i) ASSERT_TRUE(op());  // warm the shards
  const std::uint64_t misses0 = cache.misses();
  const std::uint64_t bypassed0 = cache.bypassed();
  const std::uint64_t allocated0 = cache.footprint().allocated;
  bool ok = true;
  t_news = t_deletes = 0;
  t_count_allocs = true;
  for (int i = 0; i < 20000; ++i) ok = op() && ok;
  t_count_allocs = false;
  EXPECT_TRUE(ok);
  const std::uint64_t bypassed = cache.bypassed() - bypassed0;
  const std::uint64_t grown = cache.footprint().allocated - allocated0;
  const std::uint64_t recycled = cache.misses() - misses0 - bypassed - grown;
  EXPECT_LE(t_news, 2 * (bypassed + grown));
  EXPECT_LE(t_deletes, 2 * bypassed);
  EXPECT_GT(recycled, 10000u);  // most of the window's misses
}

// A reader stalled inside its epoch pins every entry that died after
// it entered. The cache must stop growing at its bound (bypassing
// misses, which still return their blocks), and once the reader
// leaves, misses must recycle the dead entries rather than allocate
// new ones.
TEST(CacheTest, StalledReaderBoundsOwnedEntries) {
  reclaim::EpochDomain domain;
  const StressTable st;
  Cache cache(64 << 10, domain);
  std::atomic<int> bad{0};
  std::atomic<bool> pinned{false}, release{false};
  std::thread reader([&] {
    reclaim::EpochGuard g(domain);
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();

  // Two threads churn misses until `stop` (or `ops` each, if nonzero).
  std::atomic<bool> stop{false};
  auto churn = [&](std::uint64_t seed, int ops) {
    Xoshiro256 rng(seed);
    for (int i = 0; ops == 0 ? !stop.load() : i < ops; ++i) {
      const std::size_t b = rng.below(StressTable::kBlocks);
      reclaim::EpochGuard g(domain);
      const BlockRef got = read_block_cached(cache, *st.table, b);
      if (!st.holds(*got, b)) bad.fetch_add(1);
    }
  };

  // Stalled phase: run until every shard owns its full set of spares.
  std::vector<std::thread> churners;
  for (int t = 0; t < 2; ++t) churners.emplace_back(churn, 10 + t, 0);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  Cache::Footprint f = cache.footprint();
  while (f.owned < f.live + kCacheSpareBound &&
         std::chrono::steady_clock::now() < deadline) {
    EXPECT_LE(f.owned, f.live + kCacheSpareBound);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    f = cache.footprint();
  }
  stop.store(true);
  for (auto& t : churners) t.join();
  f = cache.footprint();
  EXPECT_EQ(f.owned, f.live + kCacheSpareBound);  // at the bound, not past it
  EXPECT_GT(cache.bypassed(), 0u);
  EXPECT_EQ(bad.load(), 0);  // bypassed misses returned their blocks too
  // A refused advance pauses a shard's advances until the epoch moves
  // (which it does at most once while the reader stays), retrying
  // every kRetryEvery-th insert: misses do not each scan the registry.
  const reclaim::DomainStats stalled = domain.stats();
  EXPECT_LE(stalled.advances + stalled.advance_blocked,
            cache.misses() / Cache::kRetryEvery + 2 * Cache::kNumShards);

  // The reader leaves: the dead entries expire and are reused.
  release.store(true);
  reader.join();
  const std::uint64_t misses0 = cache.misses();
  const std::uint64_t bypassed0 = cache.bypassed();
  churners.clear();
  for (int t = 0; t < 2; ++t) churners.emplace_back(churn, 20 + t, 20000);
  for (auto& t : churners) t.join();
  const Cache::Footprint after = cache.footprint();
  EXPECT_EQ(after.allocated, f.allocated);  // no entry allocated...
  EXPECT_LE(after.owned, after.live + kCacheSpareBound);
  // ...so every miss cached now went into a recycled entry, and more of
  // them than the stall left spares: the entries went round again.
  const std::uint64_t cached =
      (cache.misses() - misses0) - (cache.bypassed() - bypassed0);
  EXPECT_GT(cached, kCacheSpareBound);
  EXPECT_EQ(bad.load(), 0);
}

// A cache larger than its table never evicts, and so misses each block
// at most once.
TEST(CacheTest, CacheLargerThanTheTableNeverEvicts) {
  reclaim::EpochDomain domain;
  const StressTable st;
  Cache cache(1 << 20, domain);  // ~2.5x the table
  Xoshiro256 rng(9);
  bool ok = true;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t b = rng.below(StressTable::kBlocks);
    reclaim::EpochGuard g(domain);
    ok = st.holds(*read_block_cached(cache, *st.table, b), b) && ok;
  }
  EXPECT_TRUE(ok);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_LE(cache.misses(), StressTable::kBlocks);  // each block once
}

// One reader missing through a cache smaller than its table moves the
// epoch itself: an insert whose oldest dead entry has not expired makes
// one advance attempt before it allocates, so a shard owns its live
// entries plus the last two misses' victims, not kSpareBound spares.
// kv-zipf's shape: a 1 MiB cache over 20,000 rows of 16-byte keys and
// 101-byte values, about 2.5 MiB of blocks.
TEST(CacheTest, SingleReaderMissStreamReusesDeadEntries) {
  reclaim::EpochDomain domain;
  std::vector<std::pair<std::string, std::string>> rows;
  for (std::uint64_t k = 0; k < 20000; ++k) {
    rows.emplace_back(bench_key(k), "V" + std::string(100, 'a' + k % 26));
  }
  const ImmutableTable table(1, rows, ImmutableTable::kDefaultBlockFanout);
  Cache cache(1 << 20, domain);
  Xoshiro256 rng(5);
  bool ok = true;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t b = rng.below(static_cast<std::uint32_t>(table.num_blocks()));
    reclaim::EpochGuard g(domain);
    const BlockRef got = read_block_cached(cache, table, b);
    ok = got->size() == table.block(b).size() &&
         got->key(0) == table.block(b).key(0) && ok;
  }
  EXPECT_TRUE(ok);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_EQ(cache.bypassed(), 0u);
  const Cache::Footprint f = cache.footprint();
  EXPECT_LE(f.owned, f.live + 2 * Cache::kNumShards) << f.live << " live";
  EXPECT_EQ(f.allocated, f.owned);  // nothing is freed while the cache lives
}

// --------------------------------------------------------------- DB --
TEST(DbTest, PutGetAcrossFlushes) {
  DbOptions opt;
  opt.write_buffer_bytes = 16 * 1024;  // force frequent flushes
  DB<PthreadMutex> db(opt);
  constexpr int kKeys = 5000;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db.put(bench_key(i), "value" + std::to_string(i)).is_ok());
  }
  EXPECT_GT(db.num_tables(), 0u);  // flushes happened
  std::string v;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db.get(bench_key(i), &v).is_ok()) << i;
    EXPECT_EQ(v, "value" + std::to_string(i));
  }
  EXPECT_TRUE(db.get(bench_key(kKeys + 1), &v).is_not_found());
}

TEST(DbTest, OverwritesResolveToNewestAcrossTables) {
  DbOptions opt;
  opt.write_buffer_bytes = 8 * 1024;
  DB<PthreadMutex> db(opt);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 500; ++i) {
      db.put(bench_key(i), "r" + std::to_string(round));
    }
    db.flush();
  }
  std::string v;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db.get(bench_key(i), &v).is_ok());
    EXPECT_EQ(v, "r4") << "key " << i;
  }
}

// Every flush past the trigger folds the memtable and all tables into
// one; the newest write of each key must survive, exactly once.
TEST(DbTest, CompactionKeepsNewestVersionOnce) {
  DbOptions opt;
  opt.block_fanout = 3;
  opt.compaction_trigger = 2;
  DB<PthreadMutex> db(opt);
  std::map<std::string, std::string> model;
  for (int round = 0; round < 6; ++round) {
    for (int i = round; i < 300; i += round + 1) {
      const std::string value = "r" + std::to_string(round);
      db.put(bench_key(i), value);
      model[bench_key(i)] = value;
    }
    db.flush();
    EXPECT_LE(db.num_tables(), 2u);
  }
  EXPECT_EQ(db.compactions(), 2u);  // flushes 3 and 5 fold mem + 2 tables
  std::string v;
  for (const auto& [k, want] : model) {
    ASSERT_TRUE(db.get(k, &v).is_ok()) << k;
    EXPECT_EQ(v, want) << k;
  }
  std::vector<std::pair<std::string, std::string>> all;
  EXPECT_EQ(db.scan(Slice(), model.size() + 1, &all), model.size());
  EXPECT_EQ(all, (std::vector<std::pair<std::string, std::string>>(
                     model.begin(), model.end())));
}

// Seeded model check of the table path, newest table first. A tiny
// write buffer flushes every few dozen writes and compaction_trigger 4
// keeps up to four tables per shard, so a key's older values (and, in
// ShardedDB, the live values its tombstones shadow) sit in older tables
// while the newest sits in a newer one or the memtable. After every
// flush each key's get must match a std::map model: a directory that
// answered from an older table, or a tombstone that stopped shadowing,
// fails it. So must one bounded scan, from a random key with a random
// limit: a merge that let an older source win a key, kept a shadowed
// value, or lost the order across shards fails it. `flushed()` says
// whether the last write flushed.
template <typename Db, typename Flushed>
void check_newest_first(Db& db, std::uint32_t seed, Flushed&& flushed,
                        std::size_t* checks, std::size_t* max_tables) {
  constexpr std::uint64_t kKeys = 64;  // plus 8 never written
  std::mt19937 rng(seed);
  std::mt19937 scan_rng(seed + 1);  // leaves the writes' sequence alone
  std::map<std::string, std::string> model;
  std::vector<std::pair<std::string, std::string>> rows;
  std::string v;
  for (int i = 0; i < 4000; ++i) {
    const std::string key = bench_key(rng() % kKeys);
    bool deleted = false;
    if constexpr (requires { db.del(Slice()); }) {
      if (rng() % 5 == 0) {
        db.del(key);
        model.erase(key);
        deleted = true;
      }
    }
    if (!deleted) {
      const std::string value = "v" + std::to_string(i) + std::string(rng() % 40, 'x');
      db.put(key, value);
      model[key] = value;
    }
    if (!flushed()) continue;
    ++*checks;
    *max_tables = std::max(*max_tables, db.num_tables());
    for (std::uint64_t k = 0; k < kKeys + 8; ++k) {
      const std::string probe = bench_key(k);
      const auto it = model.find(probe);
      const Status st = db.get(probe, &v);
      ASSERT_EQ(st.is_ok(), it != model.end()) << probe << " after write " << i;
      if (it != model.end()) {
        ASSERT_EQ(v, it->second) << probe << " after write " << i;
      }
    }
    const std::string start = bench_key(scan_rng() % (kKeys + 8));
    const std::size_t limit = 1 + scan_rng() % 80;
    std::vector<std::pair<std::string, std::string>> want(
        model.lower_bound(start), model.end());
    if (want.size() > limit) want.resize(limit);
    ASSERT_EQ(db.scan(start, limit, &rows), want.size())
        << "scan from " << start << " after write " << i;
    ASSERT_EQ(rows, want) << "scan from " << start << " after write " << i;
  }
}

TEST(NewestFirstModel, CentralDbOverwrites) {
  DbOptions opt;
  opt.write_buffer_bytes = 8 * 1024;
  opt.block_fanout = 4;
  opt.compaction_trigger = 4;
  opt.block_cache_bytes = 64 * 1024;
  DB<PthreadMutex> db(opt);
  std::size_t checks = 0, max_tables = 0;
  check_newest_first(db, 0x5EED20,
                     [&] { return db.memtable_entries() == 0; },
                     &checks, &max_tables);
  EXPECT_GE(checks, 20u);
  EXPECT_EQ(max_tables, 4u);
  EXPECT_GT(db.compactions(), 0u);
}

TEST(NewestFirstModel, ShardedDbOverwritesAndTombstones) {
  ShardedDbOptions opt;
  opt.num_shards = 4;
  opt.write_buffer_bytes = 8 * 1024;
  opt.block_fanout = 4;
  opt.compaction_trigger = 4;
  opt.block_cache_bytes = 64 * 1024;
  ShardedDB<> db(opt);
  std::uint64_t flushes = 0;
  std::size_t checks = 0, max_tables = 0;
  check_newest_first(db, 0x5EED21,
                     [&] {
                       const std::uint64_t now = db.stats().flushes;
                       return std::exchange(flushes, now) != now;
                     },
                     &checks, &max_tables);
  EXPECT_GE(checks, 20u);
  EXPECT_GE(max_tables, 2 * opt.num_shards);  // several tables per shard
  const ShardedDbStats st = db.stats();
  EXPECT_GT(st.compactions, 0u);
  EXPECT_GT(st.deletes, 0u);
  EXPECT_GT(st.table_gets, 0u);
  EXPECT_LE(st.table_gets, st.epoch_gets);
}

// --------------------------------------------------- Read promotion --
// A lock-free ShardedDB get that finds a live row in the tables copies
// it into the shard's memtable as a clean row (sharded_db.hpp,
// memtable.hpp).

std::vector<std::pair<std::string, std::string>> cursor_rows(const MemTable& mem) {
  std::vector<std::pair<std::string, std::string>> rows;
  for (MemTable::Cursor c(mem, Slice()); c.valid(); c.next()) {
    rows.emplace_back(c.key().to_string(), c.value().to_string());
  }
  return rows;
}

/// Promote (key, value) into `mem` as a table would hand it over: a
/// row encoded as row.hpp describes, here kept for the whole test
/// program (a deque never moves its strings), so it outlives `mem`.
bool promote(MemTable& mem, const std::string& key, const std::string& value) {
  static std::deque<std::string> rows;
  std::string& row = rows.emplace_back(detail::encoded_size(key, value), '\0');
  detail::encode_entry(row.data(), key, value);
  return mem.promote(row.data(), detail::hash_key(key));
}

// A clean row answers get() but stays out of the ordered index and the
// entry count until an add() of its key writes it; a key the memtable
// already has is never promoted over.
TEST(ReadPromotion, CleanRowsAreFoundButNotOrderedOrCounted) {
  MemTable mem;
  EXPECT_TRUE(promote(mem, "b", "clean-b"));
  EXPECT_TRUE(promote(mem, "c", "clean-c"));
  EXPECT_FALSE(promote(mem, "b", "again"));  // already clean
  mem.add(1, "a", "va");
  EXPECT_FALSE(promote(mem, "a", "stale"));  // a written row is newer
  std::string v;
  ASSERT_TRUE(mem.get("a", &v));
  EXPECT_EQ(v, "va");
  ASSERT_TRUE(mem.get("b", &v));
  EXPECT_EQ(v, "clean-b");
  EXPECT_EQ(mem.entries(), 1u);
  using Rows = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(cursor_rows(mem), (Rows{{"a", "va"}}));
  mem.add(2, "b", "vb");  // writes the clean row, linking it
  EXPECT_EQ(mem.entries(), 2u);
  EXPECT_EQ(cursor_rows(mem), (Rows{{"a", "va"}, {"b", "vb"}}));
  ASSERT_TRUE(mem.get("c", &v));
  EXPECT_EQ(v, "clean-c");
}

// A promoted row is a slot pointing at the table's own row: it adds
// MemTable::kSlotBytes to the clean rows' footprint and copies none of
// the row's bytes, so get() answers with a view into the table. Through
// ShardedDB the slot must not point at the block cache's copy, which
// later misses recycle, and the key must still read right after a
// compacting flush retires the memtable and its table together and
// three drains free them (the ASan legs run this test).
TEST(ReadPromotion, PromotedRowsAreSlots) {
  constexpr std::size_t kRows = 4096, kFanout = 16;
  std::vector<std::pair<std::string, std::string>> rows;
  for (std::uint64_t k = 0; k < kRows; ++k) {
    rows.emplace_back(bench_key(k), std::string(100, 'a' + k % 26));
  }
  std::vector<std::pair<std::string, std::string>> tagged = rows;
  for (auto& [k, v] : tagged) v.insert(0, "V");  // as ShardedDB stores them
  const ImmutableTable table(1, tagged, kFanout);
  MemTable mem;
  const std::size_t footprint0 = mem.approximate_memory_usage();
  constexpr std::size_t kPromoted = 256;
  for (std::size_t i = 0; i < kPromoted; ++i) {
    const Block& block = table.block(i / kFanout);
    const std::uint64_t hash = detail::hash_key(rows[i].first);
    ASSERT_TRUE(mem.promote(block.row(i % kFanout), hash));
    EXPECT_EQ(mem.approximate_memory_usage() - mem.written_memory_usage(),
              (i + 1) * MemTable::kSlotBytes);
    Slice v;
    ASSERT_TRUE(mem.get(rows[i].first, hash, &v));
    EXPECT_EQ(v.data(), block.value(i % kFanout).data());  // no copy
  }
  // The arena grew by the slots (in whole arena blocks): copies of the
  // 119-byte rows would have taken five times as much.
  EXPECT_LT(mem.approximate_memory_usage() - footprint0,
            kPromoted * 2 * MemTable::kSlotBytes);

  // A cache shard holds one block of the DB's 256, so the first pass
  // misses every block once and recycles every shard's entries.
  reclaim::EpochDomain domain;
  ShardedDbOptions opt;
  opt.num_shards = 1;
  opt.compaction_trigger = 1;  // every flush folds every table into one
  opt.block_cache_bytes = Cache::kNumShards * 2500;
  ShardedDB<> db(opt, &domain);
  for (const auto& [k, v] : rows) ASSERT_TRUE(db.put(k, v).is_ok());
  db.flush();
  std::string got;
  for (int pass = 0; pass < 2; ++pass) {  // the first promotes every row
    for (const auto& [k, v] : rows) {
      ASSERT_TRUE(db.get(k, &got).is_ok());
      ASSERT_EQ(got, v);
    }
  }
  ShardedDbStats st = db.stats();
  EXPECT_EQ(st.promotions, kRows);
  EXPECT_EQ(st.table_gets, kRows);
  EXPECT_EQ(db.cache_misses(), kRows / kFanout);
  ASSERT_TRUE(db.put(rows[1].first, "new").is_ok());
  db.flush();  // compacts: the promoted rows' table goes with the memtable
  for (int i = 0; i < 3; ++i) db.reclaim_drain(~std::size_t{0});
  EXPECT_EQ(domain.stats().pending, 0u);
  ASSERT_TRUE(db.get(rows[0].first, &got).is_ok());
  EXPECT_EQ(got, rows[0].second);
  ASSERT_TRUE(db.get(rows[1].first, &got).is_ok());
  EXPECT_EQ(got, "new");
  st = db.stats();
  EXPECT_EQ(st.compactions, 1u);
  EXPECT_EQ(st.promotions, kRows + 2);  // both again, from the new table
}

// A table built from a memtable holding clean rows holds only the rows
// written to it, and ShardedDB scans answer the same with promotion as
// without it (a CLH shard lock has no try path, so it never promotes).
TEST(ReadPromotion, TablesAndScansHoldOnlyWrittenRows) {
  MemTable mem;
  for (std::uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(promote(mem, bench_key(k), "clean"));
  }
  for (std::uint64_t k = 0; k < 100; k += 10) mem.add(k, bench_key(k), "written");
  mem.add(100, bench_key(1000), "written");
  const TableVersion none;
  TableVersion next;
  flush_to_version(mem, none, 1, 16, 8, [](const Slice&) { return true; }, &next);
  ASSERT_EQ(next.tables.size(), 1u);
  EXPECT_EQ(next.tables[0]->num_entries(), 11u);
  const MemTable empty;
  std::size_t rows = 0;
  merge_scan(empty, next, Slice(),
             [](const ImmutableTable& t, std::size_t b) { return &t.block(b); },
             [&](const Slice&, const Slice& v) {
               EXPECT_EQ(v.to_string(), "written");
               ++rows;
               return true;
             });
  EXPECT_EQ(rows, 11u);

  ShardedDbOptions opt;
  opt.num_shards = 4;
  opt.write_buffer_bytes = 16 * 1024;
  opt.block_fanout = 4;
  opt.compaction_trigger = 3;
  opt.block_cache_bytes = 64 * 1024;
  ShardedDB<> promoting(opt);
  ShardedDB<> plain(opt, "clh");
  constexpr std::uint64_t kKeys = 600;
  std::mt19937 rng(0x5EED26);
  std::string v1, v2;
  std::vector<std::pair<std::string, std::string>> a, b;
  for (int i = 0; i < 20000; ++i) {
    const std::string key = bench_key(rng() % kKeys);
    const unsigned roll = rng() % 100;
    if (roll < 8) {
      const std::string value = "v" + std::to_string(i);
      promoting.put(key, value);
      plain.put(key, value);
    } else if (roll < 10) {
      promoting.del(key);
      plain.del(key);
    } else if (roll < 12) {
      const std::size_t limit = 1 + rng() % 40;
      promoting.scan(key, limit, &a);
      plain.scan(key, limit, &b);
      ASSERT_EQ(a, b) << "scan from " << key << " at op " << i;
    } else {
      ASSERT_EQ(promoting.get(key, &v1).is_ok(), plain.get(key, &v2).is_ok());
      ASSERT_EQ(v1, v2);
      v1.clear();
      v2.clear();
    }
  }
  promoting.scan(Slice(), kKeys, &a);
  plain.scan(Slice(), kKeys, &b);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), kKeys / 2);
  EXPECT_GT(promoting.stats().promotions, 0u);
  EXPECT_GT(promoting.stats().flushes, 0u);
  EXPECT_EQ(plain.stats().promotions, 0u);
}

// Writers put strictly increasing versions of a few hot keys, each
// round followed by a flush, while readers get them. A get that starts
// after the put of version n returned must see n or newer: a promotion
// that lost its race with that put, or with the flush after it, would
// serve an older one.
TEST(ReadPromotion, GetsNeverSeeAVersionOlderThanACompletedPut) {
  ShardedDbOptions opt;
  opt.num_shards = 2;
  opt.write_buffer_bytes = 16 * 1024;
  opt.compaction_trigger = 4;
  opt.block_cache_bytes = 64 * 1024;
  ShardedDB<> db(opt);
  constexpr std::size_t kKeys = 4;
  constexpr std::size_t kWriters = 2;  // writer w owns keys w, w + 2
  constexpr std::uint64_t kVersions = 4000;
  std::array<std::atomic<std::uint64_t>, kKeys> done{};
  std::vector<std::string> keys;
  for (std::size_t k = 0; k < kKeys; ++k) keys.push_back(bench_key(k));
  for (const std::string& key : keys) db.put(key, "0");
  db.flush();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> stale{0}, gets{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 prng(r + 31);
      std::string v;
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t k = prng.below(kKeys);
        const std::uint64_t floor = done[k].load(std::memory_order_acquire);
        if (!db.get(keys[k], &v).is_ok() || std::stoull(v) < floor) {
          stale.fetch_add(1);
        }
        ++n;
      }
      gets.fetch_add(n);
    });
  }
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t ver = 1; ver <= kVersions; ++ver) {
        for (std::size_t k = w; k < kKeys; k += kWriters) {
          db.put(keys[k], std::to_string(ver));
          done[k].store(ver, std::memory_order_release);
        }
        db.flush();
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(stale.load(), 0u) << "of " << gets.load() << " gets";
  const ShardedDbStats st = db.stats();
  EXPECT_GT(st.flushes, kVersions);
  EXPECT_GT(st.promotions, 0u);
  std::string v;
  for (const std::string& key : keys) {
    ASSERT_TRUE(db.get(key, &v).is_ok());
    EXPECT_EQ(v, std::to_string(kVersions));
  }
}

// One put per 1000 gets over more keys than the clean-row cap holds:
// promotion stops at an eighth of the write budget, and clean rows do
// not count toward the budget the shard flushes on, so the gets add no
// flush to the same puts.
TEST(ReadPromotion, CleanRowsAreCappedAndAddNoFlushes) {
  constexpr std::size_t kBudget = 64 * 1024;
  constexpr std::uint64_t kKeys = 2000;  // ~300 KiB of rows
  constexpr int kPuts = 3000;
  std::vector<std::string> keys;
  for (std::uint64_t k = 0; k < kKeys; ++k) keys.push_back(bench_key(k));
  const std::string value(100, 'c');
  MemTable mem(kBudget);
  std::size_t refused = 0;
  for (const std::string& key : keys) refused += !promote(mem, key, value);
  EXPECT_GT(refused, 0u);
  const std::size_t clean =
      mem.approximate_memory_usage() - mem.written_memory_usage();
  EXPECT_LE(clean, kBudget / 8);
  EXPECT_GT(clean, kBudget / 16);

  auto run = [&](bool gets) {
    ShardedDbOptions opt;
    opt.num_shards = 1;
    opt.write_buffer_bytes = kBudget;
    opt.compaction_trigger = 1000;
    ShardedDB<> db(opt);
    for (const std::string& key : keys) db.put(key, value);
    db.flush();
    const std::uint64_t flushes0 = db.stats().flushes;
    Xoshiro256 put_keys(7), get_keys(8);  // the same puts in both runs
    std::string v;
    for (int p = 0; p < kPuts; ++p) {
      for (int g = 0; gets && g < 1000; ++g) {
        EXPECT_TRUE(db.get(keys[get_keys.below64(kKeys)], &v).is_ok());
      }
      db.put(keys[put_keys.below64(kKeys)], value);
    }
    const ShardedDbStats st = db.stats();
    EXPECT_EQ(st.promotions > 0, gets);
    return st.flushes - flushes0;
  };
  const std::uint64_t baseline = run(false);
  const std::uint64_t promoted = run(true);
  EXPECT_GT(baseline, 0u);
  EXPECT_LE(promoted, baseline) << "put-only baseline " << baseline;
  EXPECT_GE(promoted + 1, baseline) << "put-only baseline " << baseline;
}

// The cap counts live clean rows: once add() has overwritten every row
// of a full cap, those rows count as written, promote() admits new
// rows again, and the footprint stays within 9/8 of the budget.
TEST(ReadPromotion, OverwrittenCleanRowsLeaveTheCap) {
  constexpr std::size_t kBudget = 64 * 1024;
  const std::string value(100, 'c');
  MemTable mem(kBudget);
  std::uint64_t k = 0;
  while (promote(mem, bench_key(k), value)) ++k;
  const std::uint64_t capped = k;
  ASSERT_GT(capped, 0u);
  EXPECT_FALSE(promote(mem, bench_key(k + 1), value));  // the cap is full
  const std::size_t written0 = mem.written_memory_usage();
  for (std::uint64_t i = 0; i < capped; ++i) {
    mem.add(bench_key(i), detail::hash_key(bench_key(i)), value);
  }
  EXPECT_EQ(mem.approximate_memory_usage(), mem.written_memory_usage());
  EXPECT_GT(mem.written_memory_usage(), written0);
  std::uint64_t admitted = 0;
  for (std::uint64_t i = capped; promote(mem, bench_key(i), value); ++i) {
    ++admitted;
  }
  EXPECT_EQ(admitted, capped);  // the same rows fit the emptied cap
  EXPECT_LE(mem.approximate_memory_usage(), kBudget / 8 * 9);
  std::string v;
  for (std::uint64_t i = 0; i < 2 * capped; ++i) {
    ASSERT_TRUE(mem.get(bench_key(i), &v)) << i;
    EXPECT_EQ(v, value);
  }
}

// A Hemlock shard lock that counts its try_lock calls (one test at a
// time uses it, from one thread).
struct TryCountingHemlock : Hemlock {
  bool try_lock() noexcept HEMLOCK_TRY_ACQUIRE(true)
      HEMLOCK_NO_THREAD_SAFETY_ANALYSIS {
    ++tries;
    return Hemlock::try_lock();
  }
  static inline std::uint64_t tries = 0;
};

// Once a memtable's clean rows reach their cap, a get the tables answer
// asks the memtable for room and leaves the shard lock alone: no
// try_lock, no unlock on the word the writers use.
TEST(ReadPromotion, GetsPastTheCapLeaveTheShardLockAlone) {
  constexpr std::uint64_t kKeys = 200;  // ~30 KiB of rows, a 2 KiB cap
  std::vector<std::string> keys;
  for (std::uint64_t k = 0; k < kKeys; ++k) keys.push_back(bench_key(k));
  const std::string value(100, 'v');
  ShardedDbOptions opt;
  opt.num_shards = 1;
  opt.write_buffer_bytes = 16 * 1024;
  ShardedDB<TryCountingHemlock> db(opt);
  for (const std::string& key : keys) db.put(key, value);
  db.flush();
  TryCountingHemlock::tries = 0;
  std::string v;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& key : keys) ASSERT_TRUE(db.get(key, &v).is_ok());
  }
  const ShardedDbStats st = db.stats();
  EXPECT_GT(st.promotions, 0u);
  EXPECT_LT(st.promotions, kKeys);  // the cap refused the rest
  EXPECT_EQ(st.table_gets, 2 * kKeys - st.promotions);
  EXPECT_EQ(TryCountingHemlock::tries, st.promotions);
}

// What a get found must be a live row for it to be promoted; gets over
// a shard lock with no native try path never promote, so every repeat
// of them searches the tables again.
TEST(ReadPromotion, TombstonesAreNeverPromoted) {
  ShardedDbOptions opt;
  opt.num_shards = 1;
  ShardedDB<> db(opt);
  db.put("live", "v");
  db.put("gone", "v");
  db.flush();
  db.del("gone");
  db.flush();  // the tombstone sits in the newer table
  std::string v;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(db.get("gone", &v).is_not_found());
    EXPECT_TRUE(db.get("live", &v).is_ok());
  }
  const ShardedDbStats st = db.stats();
  EXPECT_EQ(st.promotions, 1u);  // "live", once
  EXPECT_EQ(st.table_gets, 4u);  // every "gone", the first "live"
}

void expect_no_promotion(ShardedDB<>& db) {
  db.put("k", "v");
  db.flush();
  std::string v;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(db.get("k", &v).is_ok());
  const ShardedDbStats st = db.stats();
  EXPECT_EQ(st.promotions, 0u);
  EXPECT_EQ(st.table_gets, 3u);
}

TEST(ReadPromotion, ShardLockWithoutTryPathNeverPromotes) {
  ShardedDbOptions opt;
  opt.num_shards = 1;
  ShardedDB<> db(opt, "clh");
  ASSERT_FALSE(LockFactory::instance().info("clh")->has_trylock);
  expect_no_promotion(db);
  ShardedDB<> hemlock(opt, "hemlock");  // the same gets do promote
  hemlock.put("k", "v");
  hemlock.flush();
  std::string v;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(hemlock.get("k", &v).is_ok());
  EXPECT_EQ(hemlock.stats().promotions, 1u);
  EXPECT_EQ(hemlock.stats().table_gets, 1u);
}

// ------------------------------------------------ Memtable recycling --
// An overwrite's dead entry is reused by a later write of its size once
// the epoch has passed it (memtable.hpp). A 64 KiB write budget makes
// "no flush" mean "the footprint stayed under 64 KiB".

ShardedDbOptions one_shard(std::size_t budget = 64 * 1024) {
  ShardedDbOptions opt;
  opt.num_shards = 1;
  opt.write_buffer_bytes = budget;
  opt.block_cache_bytes = 64 * 1024;
  return opt;
}

// Without reuse every overwrite leaves a dead 118-byte entry, and the
// memtable flushes every ~550 of them.
TEST(MemTableRecycling, OneKeyOverwrittenHoldsAboutOneEntry) {
  reclaim::EpochDomain domain;
  ShardedDB<> db(one_shard(), &domain);
  constexpr std::uint64_t kPuts = 100000;
  const std::string key = bench_key(1);
  for (std::uint64_t i = 0; i < kPuts; ++i) {
    char value[100];
    std::snprintf(value, sizeof(value), "%099llu",
                  static_cast<unsigned long long>(i));
    ASSERT_TRUE(db.put(key, value).is_ok());
  }
  const ShardedDbStats st = db.stats();
  EXPECT_EQ(st.flushes, 0u);
  EXPECT_GT(st.recycled, kPuts - 1000);  // all but the first epochs'
  std::string v;
  ASSERT_TRUE(db.get(key, &v).is_ok());
  EXPECT_EQ(v, std::string(94, '0') + "99999");
}

// A reader parked in an EpochGuard on the DB's domain stops reuse:
// overwrites grow the footprint and flushes resume. Once it leaves,
// the dead entries it held back are reused and the flushes stop.
TEST(MemTableRecycling, StalledReaderStopsReuseUntilItLeaves) {
  reclaim::EpochDomain domain;
  ShardedDB<> db(one_shard(), &domain);
  const std::string key = bench_key(2);
  const std::string value(100, 'v');
  ASSERT_TRUE(db.put(key, value).is_ok());
  std::atomic<bool> pinned{false}, leave{false};
  std::thread reader([&] {
    reclaim::EpochGuard g(db.domain());
    pinned.store(true, std::memory_order_release);
    while (!leave.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!pinned.load(std::memory_order_acquire)) std::this_thread::yield();
  constexpr int kPuts = 20000;
  for (int i = 0; i < kPuts; ++i) ASSERT_TRUE(db.put(key, value).is_ok());
  const ShardedDbStats stalled = db.stats();
  EXPECT_EQ(stalled.recycled, 0u);
  EXPECT_GT(stalled.flushes, 10u);
  leave.store(true, std::memory_order_release);
  reader.join();
  for (int i = 0; i < kPuts; ++i) ASSERT_TRUE(db.put(key, value).is_ok());
  const ShardedDbStats after = db.stats();
  EXPECT_GT(after.recycled, static_cast<std::uint64_t>(kPuts) - 1000);
  EXPECT_LE(after.flushes, stalled.flushes + 1);
}

// Entries of different sizes, tombstones among them, reuse within
// their own size: none waits behind another size's dead entries.
TEST(MemTableRecycling, SizesAndTombstonesReuseTheirOwnSize) {
  reclaim::EpochDomain domain;
  ShardedDB<> db(one_shard(), &domain);
  constexpr int kRounds = 30000;
  const std::string small(10, 's'), large(300, 'l');
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(db.put("small", small).is_ok());
    ASSERT_TRUE(db.put("large", large).is_ok());
    ASSERT_TRUE(db.put(i % 2 == 0 ? "both" : "other", i % 3 == 0 ? small : large)
                    .is_ok());
    ASSERT_TRUE(db.del("gone").is_ok());
  }
  const ShardedDbStats st = db.stats();
  EXPECT_EQ(st.flushes, 0u);
  EXPECT_GT(st.recycled, 4u * kRounds - 1000);
  std::string v;
  ASSERT_TRUE(db.get("small", &v).is_ok());
  EXPECT_EQ(v, small);
  ASSERT_TRUE(db.get("large", &v).is_ok());
  EXPECT_EQ(v, large);
  EXPECT_TRUE(db.get("gone", &v).is_not_found());
}

// Two writers overwrite four hot keys (writer w owns keys w and w + 2)
// while three readers get them. Every 8-byte word of a value holds its
// key and version, so a get that copied an entry a reuse was rewriting
// reads another key's words or two versions. Every get must return its
// own key's value, untorn, and no older than the last completed put of
// the key. A reuse that skipped the epoch check fails here.
TEST(MemTableRecycling, ConcurrentGetsSeeTheirOwnKeyUntorn) {
  reclaim::EpochDomain domain;
  ShardedDbOptions opt = one_shard(1 << 20);
  opt.num_shards = 2;
  ShardedDB<> db(opt, &domain);
  constexpr std::uint64_t kKeys = 4;
  constexpr std::uint64_t kWriters = 2;
  constexpr std::uint64_t kVersions = 20000;
  constexpr std::size_t kWords = 32;
  auto value_of = [](std::uint64_t k, std::uint64_t ver) {
    std::string v(kWords * 8, '\0');
    const std::uint64_t word = k << 32 | ver;
    for (std::size_t w = 0; w < kWords; ++w) {
      std::memcpy(&v[w * 8], &word, 8);
    }
    return v;
  };
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(db.put(bench_key(k), value_of(k, 0)).is_ok());
  }
  std::array<std::atomic<std::uint64_t>, kKeys> done{};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0}, gets{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 prng(r + 41);
      std::string v;
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t k = prng.below64(kKeys);
        const std::uint64_t floor = done[k].load(std::memory_order_acquire);
        bool ok = db.get(bench_key(k), &v).is_ok() && v.size() == kWords * 8;
        std::uint64_t first = 0;
        if (ok) std::memcpy(&first, v.data(), 8);
        ok = ok && first >> 32 == k && (first & 0xffffffffu) >= floor;
        for (std::size_t w = 1; ok && w < kWords; ++w) {
          std::uint64_t word;
          std::memcpy(&word, v.data() + w * 8, 8);
          ok = word == first;
        }
        if (!ok) bad.fetch_add(1);
        ++n;
      }
      gets.fetch_add(n);
    });
  }
  std::vector<std::thread> writers;
  for (std::uint64_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t ver = 1; ver <= kVersions; ++ver) {
        for (std::uint64_t k = w; k < kKeys; k += kWriters) {
          ASSERT_TRUE(db.put(bench_key(k), value_of(k, ver)).is_ok());
          done[k].store(ver, std::memory_order_release);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u) << "of " << gets.load() << " gets";
  EXPECT_GT(db.stats().recycled, 0u);
  std::string v;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(db.get(bench_key(k), &v).is_ok());
    EXPECT_EQ(v, value_of(k, kVersions));
  }
}

// DB<Lock> memtables reuse by the cache's domain, which get() pins
// before it searches the memtable: gets racing overwrites of one key
// with versions of one size see whole versions only. Alone, the writer
// reuses every dead entry two drains after its overwrite, so a fresh
// memtable takes the same overwrites without a flush.
TEST(MemTableRecycling, CentralDbGetsPinTheMemtable) {
  DbOptions opt;
  opt.write_buffer_bytes = 64 * 1024;
  DB<PthreadMutex> db(opt);
  auto& domain = reclaim::EpochDomain::global();
  constexpr int kPuts = 100000;
  auto put = [&](int i) {
    ASSERT_TRUE(
        db.put("k", std::string(256, static_cast<char>('a' + i % 26))).is_ok());
    if (i % 16 == 0) domain.drain();  // DB<Lock> writes do not drain
  };
  put(0);
  std::atomic<bool> stop{false}, torn{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::string v;
      while (!stop.load(std::memory_order_acquire)) {
        if (!db.get("k", &v).is_ok() || v.size() != 256 ||
            v.find_first_not_of(v.front()) != std::string::npos) {
          torn.store(true);
        }
      }
    });
  }
  for (int i = 1; i < kPuts; ++i) put(i);
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(torn.load());
  db.flush();
  for (int i = 0; i < kPuts; ++i) put(i);
  EXPECT_EQ(db.memtable_entries(), static_cast<std::size_t>(kPuts));
}

// ShardedDB's gets read tables through the block cache: at least one
// block lookup per table get (more on a fingerprint collision).
TEST(DbTest, ShardedTableGetsLookUpTheCache) {
  ShardedDbOptions opt;
  opt.num_shards = 4;
  opt.block_cache_bytes = 64 * 1024;
  ShardedDB<> db(opt);
  constexpr std::uint64_t kKeys = 4000;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    db.put(bench_key(k), "value-" + std::to_string(k));
  }
  db.flush();
  std::string v;
  Xoshiro256 rng(13);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.below64(kKeys);
    ASSERT_TRUE(db.get(bench_key(k), &v).is_ok()) << k;
    ASSERT_EQ(v, "value-" + std::to_string(k));
  }
  EXPECT_GT(db.stats().table_gets, 0u);
  EXPECT_GE(db.cache_hits() + db.cache_misses(), db.stats().table_gets);
}

/// A thread parked in an EpochGuard on `domain` from construction until
/// leave(): a reader that could still hold anything unlinked meanwhile.
class PinnedReader {
 public:
  explicit PinnedReader(reclaim::EpochDomain& domain)
      : thread_([this, &domain] {
          reclaim::EpochGuard g(domain);
          pinned_.store(true, std::memory_order_release);
          while (!leave_.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        }) {
    while (!pinned_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  ~PinnedReader() { leave(); }
  PinnedReader(const PinnedReader&) = delete;
  PinnedReader& operator=(const PinnedReader&) = delete;

  void leave() {
    leave_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> pinned_{false}, leave_{false};
  std::thread thread_;
};

// Readers never reclaim: gets pin the epoch and may advance it, but
// free nothing. A reader pinned across the second flush holds that
// flush's retirees back; they stay pending through a read-only phase
// after it leaves, and the next writes' drains free them.
TEST(DbTest, ShardedGetsNeverReclaim) {
  reclaim::EpochDomain domain;
  ShardedDbOptions opt;
  opt.num_shards = 4;
  opt.block_cache_bytes = 64 * 1024;
  ShardedDB<> db(opt, &domain);
  constexpr std::uint64_t kKeys = 4000;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    db.put(bench_key(k), "value-" + std::to_string(k));
    if (k == kKeys / 2 - 1) db.flush();
  }
  {
    PinnedReader reader(domain);
    db.flush();
  }
  // The second flush retired each shard's memtable and version, and
  // its drains could not free them past the pinned reader.
  const reclaim::DomainStats before = domain.stats();
  ASSERT_EQ(before.pending, 2 * opt.num_shards);
  std::string v;
  Xoshiro256 rng(17);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.below64(kKeys);
    ASSERT_TRUE(db.get(bench_key(k), &v).is_ok()) << k;
    ASSERT_EQ(v, "value-" + std::to_string(k));
  }
  const reclaim::DomainStats read = domain.stats();
  EXPECT_EQ(read.freed, before.freed);
  EXPECT_EQ(read.pending, before.pending);
  // 32 puts from this thread run two write-side drains
  // (ShardedDB::kDrainEveryWrites is 16): they free the flush's
  // retirees.
  for (std::uint64_t k = 0; k < 32; ++k) {
    ASSERT_TRUE(db.put(bench_key(k), "value-" + std::to_string(k)).is_ok());
  }
  EXPECT_EQ(domain.stats().pending, 0u);
}

// flush() frees what it retired: with no reader pinned, its drains
// pass the retirees' stamps and nothing stays pending. A reader pinned
// on another thread stops it at the first refused advance with every
// shard's memtable and version pending, and a later flush frees them.
// Either way it makes at most three advance attempts, one per drain.
TEST(DbTest, FlushFreesWhatItRetired) {
  reclaim::EpochDomain domain;
  ShardedDbOptions opt;
  opt.num_shards = 4;
  opt.block_cache_bytes = 64 * 1024;
  ShardedDB<> db(opt, &domain);
  auto fill = [&](std::uint64_t from) {
    for (std::uint64_t k = from; k < from + 400; ++k) {
      ASSERT_TRUE(db.put(bench_key(k), "value").is_ok());
    }
  };
  auto attempts = [](const reclaim::DomainStats& st) {
    return st.advances + st.advance_blocked;
  };
  fill(0);
  const reclaim::DomainStats s0 = domain.stats();
  ASSERT_EQ(s0.pending, 0u);
  db.flush();
  const reclaim::DomainStats s1 = domain.stats();
  EXPECT_EQ(s1.pending, 0u);
  EXPECT_EQ(s1.freed - s0.freed, 2 * opt.num_shards);
  EXPECT_LE(attempts(s1) - attempts(s0), 3u);

  fill(400);
  {
    PinnedReader reader(domain);
    const reclaim::DomainStats s2 = domain.stats();
    db.flush();
    const reclaim::DomainStats s3 = domain.stats();
    EXPECT_EQ(s3.pending, 2 * opt.num_shards);
    EXPECT_GT(s3.advance_blocked, s2.advance_blocked);
    EXPECT_LE(attempts(s3) - attempts(s2), 3u);
  }
  fill(800);
  db.flush();
  EXPECT_EQ(domain.stats().pending, 0u);
  EXPECT_EQ(db.stats().flushes, 3 * opt.num_shards);
}

// A cross-shard scan copies only the rows it returns. With every block
// it reads cached, a 32-row scan over 16 shards into a reserved vector
// allocates each row's key and value (16-byte keys and 100-byte values,
// both past the short-string buffer) and the merge's few cursor arrays:
// a small multiple of the limit. Copying every shard's bounded prefix
// to sort the union would make about a thousand.
TEST(DbTest, ShardedScanCopiesOnlyItsResults) {
  ShardedDbOptions opt;
  ASSERT_EQ(opt.num_shards, 16u);
  ShardedDB<> db(opt);
  constexpr std::uint64_t kKeys = 4000;
  constexpr std::size_t kLimit = 32;
  std::vector<std::string> keys;
  for (std::uint64_t k = 0; k < kKeys; ++k) keys.push_back(bench_key(k));
  const std::string value(100, 'v');
  for (const std::string& key : keys) ASSERT_TRUE(db.put(key, value).is_ok());
  db.flush();
  const Slice start(keys[kKeys / 2]);
  std::vector<std::pair<std::string, std::string>> warm;
  ASSERT_EQ(db.scan(start, kLimit, &warm), kLimit);  // caches the blocks
  const std::uint64_t misses0 = db.cache_misses();
  std::vector<std::pair<std::string, std::string>> rows;
  rows.reserve(kLimit);
  t_news = 0;
  t_count_allocs = true;
  const std::size_t n = db.scan(start, kLimit, &rows);
  t_count_allocs = false;
  EXPECT_EQ(n, kLimit);
  EXPECT_EQ(rows, warm);
  EXPECT_EQ(rows.front().first, keys[kKeys / 2]);
  EXPECT_EQ(db.cache_misses(), misses0);  // every block was cached
  EXPECT_LE(t_news, 4 * kLimit);
}

TEST(DbTest, CacheServesRepeatedReads) {
  DB<PthreadMutex> db;
  fill_seq(db, 2000, 64);
  std::string v;
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < 2000; i += 50) {
      ASSERT_TRUE(db.get(bench_key(i), &v).is_ok());
    }
  }
  EXPECT_GT(db.cache_hits(), 0u);
}

// The central integration property: concurrent readers + writer with
// a *Hemlock* central mutex return coherent values.
TEST(DbTest, ConcurrentReadersAndWriterWithHemlockMutex) {
  DbOptions opt;
  opt.write_buffer_bytes = 64 * 1024;
  DB<Hemlock> db(opt);
  constexpr std::uint64_t kKeys = 2000;
  fill_seq(db, kKeys, 32);

  std::atomic<bool> stop{false};
  std::atomic<bool> wrong{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 6; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 prng(r + 99);
      std::string v;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto k = prng.below(kKeys);
        if (!db.get(bench_key(k), &v).is_ok()) {
          wrong.store(true);  // every key was pre-populated
        }
      }
    });
  }
  // Writer keeps overwriting (values change but keys never vanish).
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t k = 0; k < kKeys; k += 37) {
      db.put(bench_key(k), "round" + std::to_string(round));
    }
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(wrong.load());
}

TEST(DbBench, FillSeqThenReadRandomFindsEverything) {
  DB<McsLock> db;
  fill_seq(db, 10000, 100);
  ReadRandomConfig cfg;
  cfg.threads = 4;
  cfg.duration_ms = 200;
  cfg.num_keys = 10000;
  const ReadRandomResult res = run_readrandom(db, cfg);
  EXPECT_GT(res.total_reads, 0u);
  EXPECT_EQ(res.total_reads, res.found);  // all keys exist
  EXPECT_GT(res.mops_per_sec(), 0.0);
}

TEST(DbBench, KeyFormatMatchesDbBench) {
  EXPECT_EQ(bench_key(0), "0000000000000000");
  EXPECT_EQ(bench_key(42), "0000000000000042");
  EXPECT_EQ(bench_key(9999999999999999ULL), "9999999999999999");
}

}  // namespace
}  // namespace hemlock::minikv
