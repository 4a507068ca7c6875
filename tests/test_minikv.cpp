// test_minikv.cpp — unit and integration tests for the MiniKV
// substrate (the Figure-8 LevelDB substitute): slice, varint
// encoding, arena, skiplist, memtable, the block format, immutable
// tables, the epoch-protected block cache, and the DB facade with its
// pluggable central mutex.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
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

#include "core/hemlock.hpp"
#include "locks/mcs.hpp"
#include "locks/std_adapter.hpp"
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

// Allocation counting for CacheTest.WarmMissesNeitherAllocateNorFree:
// while a thread arms it, the replaced global operator new / delete
// count that thread's calls.
namespace {
thread_local bool t_count_allocs = false;
thread_local std::size_t t_news = 0;
thread_local std::size_t t_deletes = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (t_count_allocs) ++t_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (t_count_allocs && p != nullptr) ++t_deletes;
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

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
  // 9 payload bytes (keys 1+3+1, values 1+0+3), then 7 offsets.
  EXPECT_EQ(blk.charge(), sizeof(Block) + 9 + 7 * sizeof(std::uint32_t));
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
  EXPECT_THROW(DB<StdMutex> db(opt), std::invalid_argument);
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
constexpr std::size_t kCacheSpareBound =
    Cache::kNumShards * Cache::kMaxBatches * Cache::kBatch;

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
  // Misses reuse entries: far fewer allocations than cached misses.
  EXPECT_LT(f.allocated, (cache.misses() - cache.bypassed()) / 4);
}

// Once the pools circulate, a miss copies into a recycled entry: it
// allocates and frees nothing. Only a bypassed miss (its own copy,
// two allocations and two frees) or a shard still growing toward its
// bound (a new entry and its buffer) may allocate.
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
  for (int i = 0; i < 20000; ++i) ASSERT_TRUE(op());  // warm the pools
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

// A reader stalled inside its epoch pins every batch retired after it
// entered. The cache must stop growing at its bound (bypassing misses,
// which still return their blocks), and once the reader leaves, misses
// must recycle the retired entries rather than allocate new ones.
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
  // A refused advance pauses a shard's drains until the epoch moves
  // (which it does at most once while the reader stays), retrying
  // every kBatch-th insert: misses do not each scan the registry.
  const reclaim::DomainStats stalled = domain.stats();
  EXPECT_LE(stalled.advances + stalled.advance_blocked,
            cache.misses() / Cache::kBatch + 2 * Cache::kNumShards);

  // The reader leaves: the retired batches come back to the pools.
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

// --------------------------------------------------------------- DB --
TEST(DbTest, PutGetAcrossFlushes) {
  DbOptions opt;
  opt.write_buffer_bytes = 16 * 1024;  // force frequent flushes
  DB<StdMutex> db(opt);
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
  DB<StdMutex> db(opt);
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
  DB<StdMutex> db(opt);
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
// fails it. `flushed()` says whether the last write flushed.
template <typename Db, typename Flushed>
void check_newest_first(Db& db, std::uint32_t seed, Flushed&& flushed,
                        std::size_t* checks, std::size_t* max_tables) {
  constexpr std::uint64_t kKeys = 64;  // plus 8 never written
  std::mt19937 rng(seed);
  std::map<std::string, std::string> model;
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
  }
}

TEST(NewestFirstModel, CentralDbOverwrites) {
  DbOptions opt;
  opt.write_buffer_bytes = 8 * 1024;
  opt.block_fanout = 4;
  opt.compaction_trigger = 4;
  opt.block_cache_bytes = 64 * 1024;
  DB<StdMutex> db(opt);
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

TEST(DbTest, CacheServesRepeatedReads) {
  DB<StdMutex> db;
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
