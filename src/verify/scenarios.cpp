// scenarios.cpp — the per-family verify scenario table.
//
// Each scenario follows the progress64 ver_hemlock.c shape: init()
// placement-news the lock under test into static storage, exec(id)
// performs a couple of lock / assert-exclusive / yield-inside-CS /
// unlock rounds, fini() asserts quiescence. The shared-state checks
// (owner counters) are deliberately plain relaxed atomics: under the
// token-serialized harness only one thread runs at a time, so they
// are schedule-level ghosts, not synchronization — the lock under
// test is the only thing ordering the threads.
//
// Tag-struct template parameters carry each family's "queued" trace
// tag into the generic FIFO post-check (string literals cannot be
// non-type template arguments).
#include <atomic>
#include <cstring>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/hemlock.hpp"
#include "core/hemlock_chain.hpp"
#include "locks/anderson.hpp"
#include "locks/clh.hpp"
#include "locks/mcs.hpp"
#include "locks/rwlock.hpp"
#include "locks/ticket.hpp"
#include "minikv/sharded_db.hpp"
#include "reclaim/epoch.hpp"
#include "runtime/governor.hpp"
#include "runtime/thread_rec.hpp"
#include "verify/verify.hpp"

namespace hemlock::verify {
namespace {

constexpr int kIters = 2;  ///< lock/unlock rounds per logical thread

// ---------------------------------------------------------------------
// Trace post-checks (run in fini, scanning the schedule's yield trace).
// ---------------------------------------------------------------------

/// FIFO admission check. `queued_tag` marks a thread's enqueue point
/// (its arrival order); "cs-enter" marks its admission. Admissions
/// must pop arrivals in order. Families that emit the tag on every
/// acquire (CLH's exchange, ticket's draw, Anderson's slot claim) get
/// an exact FIFO check; families that emit it only when contended
/// (Hemlock, MCS: pred != null) additionally require that an
/// unannounced admission only happens while nobody is queued — a
/// queued waiter pins the tail, so a later arrival cannot see an
/// empty doorstep.
void check_fifo(const char* queued_tag) {
  const auto& tr = current_trace();
  std::uint32_t q[kMaxScenarioThreads];
  std::uint32_t qn = 0;
  for (const Step& s : tr) {
    if (std::strcmp(s.tag, queued_tag) == 0) {
      for (std::uint32_t i = 0; i < qn; ++i) {
        VERIFY_ASSERT(q[i] != s.thread);  // no double-queue without acquire
      }
      VERIFY_ASSERT(qn < kMaxScenarioThreads);
      q[qn++] = s.thread;
    } else if (std::strcmp(s.tag, "cs-enter") == 0) {
      bool queued = false;
      for (std::uint32_t i = 0; i < qn; ++i) {
        if (q[i] == s.thread) {
          VERIFY_ASSERT(i == 0);  // FIFO: no overtaking the queue head
          queued = true;
          break;
        }
      }
      if (queued) {
        --qn;
        for (std::uint32_t i = 0; i < qn; ++i) q[i] = q[i + 1];
      } else {
        VERIFY_ASSERT(qn == 0);  // uncontended acquire past a waiter
      }
    }
  }
  VERIFY_ASSERT(qn == 0);  // every arrival was eventually admitted
}

/// Park reachability, across the whole enumeration: set when some
/// schedule's trace slept in the kernel (a futex wait, which the
/// verifier turns into a yield). A park-tier scenario whose bounded
/// depth never reaches a sleep would pass while proving nothing about
/// the park/publish window, so those rows assert it in post_all.
bool g_reached_park = false;

void note_park() {
  for (const Step& s : current_trace()) {
    if (std::strcmp(s.tag, "futex:wait") == 0) {
      g_reached_park = true;
      return;
    }
  }
}

void post_all_parked() {
  VERIFY_ASSERT(g_reached_park);
  g_reached_park = false;
}

// Tag carriers for the template parameter.
struct HemlockQueuedTag { static constexpr const char* value = "hemlock:queued"; };
struct McsQueuedTag { static constexpr const char* value = "mcs:queued"; };
struct ClhQueuedTag { static constexpr const char* value = "clh:queued"; };
struct TicketQueuedTag { static constexpr const char* value = "ticket:drawn"; };
struct AndersonQueuedTag { static constexpr const char* value = "anderson:slot"; };

// ---------------------------------------------------------------------
// Generic mutual-exclusion scenario.
// ---------------------------------------------------------------------

/// Mutual exclusion over kIters rounds per thread, with yield points
/// straddling the ownership ghost so a broken lock is caught at the
/// first overlapping admission. QueuedTag (or void) selects the FIFO
/// post-check. ForceTier (or void) pins the ContentionGovernor for
/// the schedule — the governed-escalation scenarios use it to make
/// the park tier reachable deterministically instead of depending on
/// a live oversubscription census. IdleGrant selects the end-of-exec
/// empty-mailbox check; Overlap leaves L there for a tardy successor
/// by design.
template <typename Lock, typename QueuedTag = void, typename ForceTier = void,
          bool IdleGrant = true>
struct MutexScenario {
  alignas(Lock) static inline unsigned char storage[sizeof(Lock)];
  static inline Lock* lk = nullptr;
  static inline std::atomic<int> owners{0};

  static void init() {
    if constexpr (!std::is_void_v<ForceTier>) {
      ContentionGovernor::instance().force(ForceTier::value);
    }
    // mo: relaxed — verification ghost state; ordering is supplied
    // by the lock under test, these asserts only count admissions.
    owners.store(0, std::memory_order_relaxed);
    lk = new (storage) Lock();
  }

  static void exec(std::uint32_t) {
    for (int i = 0; i < kIters; ++i) {
      lk->lock();
      yield_point("cs-enter");
      // mo: relaxed — verification ghost state; ordering is supplied
      // by the lock under test, these asserts only count admissions.
      VERIFY_ASSERT(owners.fetch_add(1, std::memory_order_relaxed) == 0);
      yield_point("cs");
      // mo: relaxed — verification ghost state; ordering is supplied
      // by the lock under test, these asserts only count admissions.
      VERIFY_ASSERT(owners.fetch_sub(1, std::memory_order_relaxed) == 1);
      lk->unlock();
    }
    // Hemlock Listing 1 line 6: the Grant mailbox is empty between
    // locking operations. Trivially true for the node/ticket families
    // (they never touch it), load-bearing for the Hemlock ones.
    if constexpr (IdleGrant) {
      // mo: relaxed — verification ghost state; ordering is supplied
      // by the lock under test, these asserts only count admissions.
      VERIFY_ASSERT(self().grant.value.load(std::memory_order_relaxed) ==
                    kGrantEmpty);
    }
  }

  static void fini() {
    // mo: relaxed — verification ghost state; ordering is supplied
    // by the lock under test, these asserts only count admissions.
    VERIFY_ASSERT(owners.load(std::memory_order_relaxed) == 0);
    if constexpr (requires { lk->appears_unlocked(); }) {
      VERIFY_ASSERT(lk->appears_unlocked());
    }
    if constexpr (!std::is_void_v<QueuedTag>) check_fifo(QueuedTag::value);
    note_park();
    lk->~Lock();
    lk = nullptr;
    if constexpr (!std::is_void_v<ForceTier>) {
      ContentionGovernor::instance().clear_force();
    }
  }
};

/// try_lock variant: acquisition by retry loop (every refusal is a
/// schedule point), same exclusion ghost.
template <typename Lock>
struct TryScenario {
  alignas(Lock) static inline unsigned char storage[sizeof(Lock)];
  static inline Lock* lk = nullptr;
  static inline std::atomic<int> owners{0};

  static void init() {
    // mo: relaxed — verification ghost state; ordering is supplied
    // by the lock under test, these asserts only count admissions.
    owners.store(0, std::memory_order_relaxed);
    lk = new (storage) Lock();
  }

  static void exec(std::uint32_t) {
    for (int i = 0; i < kIters; ++i) {
      while (!lk->try_lock()) {
        yield_point("try-retry");
      }
      yield_point("cs-enter");
      // mo: relaxed — verification ghost state; ordering is supplied
      // by the lock under test, these asserts only count admissions.
      VERIFY_ASSERT(owners.fetch_add(1, std::memory_order_relaxed) == 0);
      yield_point("cs");
      // mo: relaxed — verification ghost state; ordering is supplied
      // by the lock under test, these asserts only count admissions.
      VERIFY_ASSERT(owners.fetch_sub(1, std::memory_order_relaxed) == 1);
      lk->unlock();
    }
  }

  static void fini() {
    // mo: relaxed — verification ghost state; ordering is supplied
    // by the lock under test, these asserts only count admissions.
    VERIFY_ASSERT(owners.load(std::memory_order_relaxed) == 0);
    if constexpr (requires { lk->appears_unlocked(); }) {
      VERIFY_ASSERT(lk->appears_unlocked());
    }
    lk->~Lock();
    lk = nullptr;
  }
};

struct ForcePark { static constexpr WaitTier value = WaitTier::kPark; };

/// A scenario run with the §5.4 LockProfiler on, so Hemlock waits take
/// the multi-waiting gauge's peek-then-consume path.
template <typename Base>
struct Profiled : Base {
  static void init() {
    LockProfiler::enable(true);
    Base::init();
  }
  static void fini() {
    Base::fini();
    LockProfiler::enable(false);
  }
};
using ProfiledBase =
    MutexScenario<HemlockAdaptive, HemlockQueuedTag, ForcePark>;

using OverlapScenario =
    MutexScenario<HemlockOverlap, HemlockQueuedTag, void, false>;
using AhScenario = MutexScenario<HemlockAh, HemlockQueuedTag>;
using Ohv1Scenario = MutexScenario<HemlockOhv1, HemlockQueuedTag>;
using Ohv2Scenario = MutexScenario<HemlockOhv2, HemlockQueuedTag>;
// Chain tags its Tail-SWAP-to-push window hemlock:queued too.
using ChainScenario = MutexScenario<HemlockChain, HemlockQueuedTag>;

// ---------------------------------------------------------------------
// Reader-writer scenarios. Shards=2 keeps the writer's drain walk
// short enough to enumerate while still crossing a shard boundary.
// ---------------------------------------------------------------------

using VerRwLock = RwLockT<QueueSpinWaiting, 2>;

/// Thread role split: ids below `Writers` write, the rest read.
/// Writer sections must exclude everything; reader sections must
/// exclude writers but overlap each other (asserted over the whole
/// enumeration by post_all — no single schedule can prove overlap is
/// *possible*).
template <std::uint32_t Writers>
struct RwScenario {
  alignas(VerRwLock) static inline unsigned char storage[sizeof(VerRwLock)];
  static inline VerRwLock* lk = nullptr;
  static inline std::atomic<int> writers_in{0};
  static inline std::atomic<int> readers_in{0};
  static inline int max_reader_overlap = 0;  // across schedules; post_all

  static void init() {
    // mo: relaxed — verification ghost state; ordering is supplied
    // by the lock under test, these asserts only count admissions.
    writers_in.store(0, std::memory_order_relaxed);
    readers_in.store(0, std::memory_order_relaxed);
    lk = new (storage) VerRwLock();
  }

  static void exec(std::uint32_t id) {
    for (int i = 0; i < kIters; ++i) {
      if (id < Writers) {
        lk->lock();
        // mo: relaxed — verification ghost state; ordering is supplied
        // by the lock under test, these asserts only count admissions.
        VERIFY_ASSERT(writers_in.fetch_add(1, std::memory_order_relaxed) == 0);
        VERIFY_ASSERT(readers_in.load(std::memory_order_relaxed) == 0);
        yield_point("ws");
        // mo: relaxed — verification ghost state; ordering is supplied
        // by the lock under test, these asserts only count admissions.
        VERIFY_ASSERT(readers_in.load(std::memory_order_relaxed) == 0);
        VERIFY_ASSERT(writers_in.fetch_sub(1, std::memory_order_relaxed) == 1);
        lk->unlock();
      } else {
        lk->lock_shared();
        // mo: relaxed — verification ghost state; ordering is supplied
        // by the lock under test, these asserts only count admissions.
        const int in = readers_in.fetch_add(1, std::memory_order_relaxed) + 1;
        if (in > max_reader_overlap) max_reader_overlap = in;
        // mo: relaxed — verification ghost state; ordering is supplied
        // by the lock under test, these asserts only count admissions.
        VERIFY_ASSERT(writers_in.load(std::memory_order_relaxed) == 0);
        yield_point("rs");
        // mo: relaxed — verification ghost state; ordering is supplied
        // by the lock under test, these asserts only count admissions.
        VERIFY_ASSERT(writers_in.load(std::memory_order_relaxed) == 0);
        readers_in.fetch_sub(1, std::memory_order_relaxed);
        lk->unlock_shared();
      }
    }
  }

  static void fini() {
    // mo: relaxed — verification ghost state; ordering is supplied
    // by the lock under test, these asserts only count admissions.
    VERIFY_ASSERT(writers_in.load(std::memory_order_relaxed) == 0);
    VERIFY_ASSERT(readers_in.load(std::memory_order_relaxed) == 0);
    VERIFY_ASSERT(lk->appears_unlocked());
    lk->~VerRwLock();
    lk = nullptr;
  }

  /// Reader-overlap liveness: some enumerated schedule must have held
  /// two read sessions at once (writer exclusion alone would also
  /// pass every per-schedule assert).
  static void post_all_readers() {
    VERIFY_ASSERT(max_reader_overlap >= 2);
    max_reader_overlap = 0;
  }
};

using RwWW = RwScenario<2>;   // writer vs writer (2 threads)
using RwWR = RwScenario<1>;   // writer vs reader (2 threads)
using RwRRR = RwScenario<0>;  // readers only (3 threads, overlap check)

// ---------------------------------------------------------------------
// MiniKV read promotion (minikv/sharded_db.hpp). The store holds `k`
// and `m` in one table. Thread 0 gets `k` twice: a get misses the
// memtable, reads the row from the tables and tries to promote it (a
// slot linked to the table's row, memtable.hpp), and a later get may
// stop at `memtable:hit` holding that row. Thread 1 overwrites `k`,
// makes a compacting flush (the promoted rows' table goes with the
// retired memtable), drains twice and puts `k` again, the same encoded
// size: a clean row of `k` in the fresh memtable then leaves the cap,
// its table row left to the table. The promotion's yield points sit
// after the table read and after its try_lock, so the put and the flush
// can land between the read and the promotion. Whatever the schedule, a
// get returns a version no older than the last put that completed
// before it started: a stale row promoted into the fresh memtable would
// shadow the flushed table. `fini` then drains twice and puts `z`, also
// of that size, so a table row add() had wrongly listed as dead would
// be reused and overwritten; a compacting flush folds the table's own
// blocks (a scan alone would read the cache's copy), and a full scan
// must return every key once, in order. The `-mutant` row
// drops the (memtable, version) recheck; `-kill-clean` lets add() list a
// clean row's table row as dead. Both must be caught.
// ---------------------------------------------------------------------

struct PromoteScenario {
  using Db = minikv::ShardedDB<Hemlock>;
  static inline reclaim::EpochDomain* domain = nullptr;
  static inline Db* db = nullptr;
  /// Ghost: how many of thread 1's puts have returned.
  static inline int puts_done = 0;

  /// Version order of the values thread 1 writes: old < new < nw2.
  static int rank(const std::string& v) {
    return v == "old" ? 0 : v == "new" ? 1 : v == "nw2" ? 2 : -1;
  }

  static void init() {
    domain = new reclaim::EpochDomain();
    minikv::ShardedDbOptions o;
    o.num_shards = 1;
    o.block_cache_bytes = 64 << 10;
    o.compaction_trigger = 1;  // every flush over a table compacts
    db = new Db(o, domain);
    db->put("k", "old");
    db->put("m", "mid");
    db->flush();
    puts_done = 0;
  }

  static void exec(std::uint32_t id) {
    if (id == 0) {
      for (int i = 0; i < 2; ++i) {
        const int floor = puts_done;
        std::string v;
        VERIFY_ASSERT(db->get("k", &v).is_ok());
        VERIFY_ASSERT(rank(v) >= floor);
      }
    } else {
      db->put("k", "new");
      puts_done = 1;
      yield_point("recycle:step");
      db->flush();  // compacts
      yield_point("recycle:step");
      db->reclaim_drain(~std::size_t{0});
      yield_point("recycle:step");
      db->reclaim_drain(~std::size_t{0});
      yield_point("recycle:step");
      db->put("k", "nw2");  // the size of every row here
      puts_done = 2;
    }
  }

  static void fini() {
    db->reclaim_drain(~std::size_t{0});
    db->reclaim_drain(~std::size_t{0});
    db->put("z", "zzz");  // would reuse a table row listed as dead
    db->flush();          // folds the table's own blocks
    std::vector<std::pair<std::string, std::string>> rows;
    db->scan("", 10, &rows);
    const std::vector<std::pair<std::string, std::string>> want = {
        {"k", "nw2"}, {"m", "mid"}, {"z", "zzz"}};
    VERIFY_ASSERT(rows == want);  // the last write wins, tables intact
    delete db;
    delete domain;
    db = nullptr;
    domain = nullptr;
  }
};

// ---------------------------------------------------------------------
// MiniKV memtable recycling (minikv/memtable.hpp). Thread 0 gets key
// `a`, which the memtable holds, and stops between the memtable hit
// and the copy of the value it found. Thread 1 overwrites `a` (its old
// entry dies), drains the domain twice, then writes a new key `b` of
// the same encoded size, whose entry reuses the oldest dead entry of
// that size once the epoch has passed it: `a`'s old one. Whatever the
// schedule, the reader must copy one of `a`'s values; thread 0's epoch
// guard keeps the epoch from passing the entry it holds. Thread 1
// yields between its steps, so the get can also start after the
// overwrite or after the drains. The `-mutant`
// row reuses dead entries without the epoch check and must be caught.
// ---------------------------------------------------------------------

struct RecycleScenario {
  using Db = minikv::ShardedDB<Hemlock>;
  static inline reclaim::EpochDomain* domain = nullptr;
  static inline Db* db = nullptr;
  static inline std::string got;

  static void init() {
    domain = new reclaim::EpochDomain();
    minikv::ShardedDbOptions o;
    o.num_shards = 1;
    o.block_cache_bytes = 64 << 10;
    db = new Db(o, domain);
    db->put("a", "a0");
    got.clear();
  }

  static void exec(std::uint32_t id) {
    if (id == 0) {
      std::string v;
      VERIFY_ASSERT(db->get("a", &v).is_ok());
      got = v;
    } else {
      db->put("a", "a1");
      yield_point("recycle:step");
      db->reclaim_drain(~std::size_t{0});
      yield_point("recycle:step");
      db->reclaim_drain(~std::size_t{0});
      yield_point("recycle:step");
      db->put("b", "b0");  // the size of `a`'s entries
    }
  }

  static void fini() {
    VERIFY_ASSERT(got == "a0" || got == "a1");
    std::string v;
    VERIFY_ASSERT(db->get("b", &v).is_ok() && v == "b0");
    delete db;
    delete domain;
    db = nullptr;
    domain = nullptr;
  }
};

// ---------------------------------------------------------------------
// MiniKV block-cache recycling (minikv/cache.hpp). The cache's shards
// hold one block each, and blocks b0, b1 and b2 map to one shard, b0
// cached. Thread 0, inside an EpochGuard, reads b0 and stops at
// `cache:hit`, between the hit and the return of its block; it then
// records whether every key and value it reads is b0's. Thread 1
// inserts b1, which evicts b0 (its entry dies), makes two advance
// attempts and inserts b2, which reuses the oldest dead entry, b0's,
// once the epoch has passed it. Thread 0's guard keeps the epoch from
// passing the entry it holds, so b2 then takes a new one. Thread 1
// yields between its steps, so the read can also start after any of
// them. The `-mutant` row reuses dead entries without the epoch check
// and must be caught.
// ---------------------------------------------------------------------

struct CacheRecycleScenario {
  using Cache = minikv::ShardedLruCache<minikv::Block>;
  static inline reclaim::EpochDomain* domain = nullptr;
  static inline minikv::ImmutableTable* table = nullptr;
  static inline Cache* cache = nullptr;
  static inline std::size_t b[3] = {};  ///< three blocks of one shard
  static inline bool whole = false;

  static void insert(std::size_t idx) {
    const minikv::Block& block = table->block(idx);
    cache->insert({table->id(), static_cast<std::uint32_t>(idx)}, block,
                  block.charge());
  }

  static void init() {
    domain = new reclaim::EpochDomain();
    std::vector<std::pair<std::string, std::string>> rows;
    for (int i = 0; i < 100; ++i) {  // one entry a block, every block alike
      const std::string n = std::to_string(100 + i);
      rows.emplace_back("k" + n, "v" + n);
    }
    table = new minikv::ImmutableTable(1, rows, 1);
    auto shard_of = [](std::size_t idx) {
      return minikv::BlockKeyHash{}({1, static_cast<std::uint32_t>(idx)}) %
             Cache::kNumShards;
    };
    std::size_t found = 0;
    for (std::size_t i = 0; found < 3 && i < table->num_blocks(); ++i) {
      if (shard_of(i) == shard_of(0)) b[found++] = i;
    }
    VERIFY_ASSERT(found == 3);
    // A shard's capacity is a 16th of the cache's, plus one byte.
    cache = new Cache(Cache::kNumShards * table->block(0).charge(), *domain);
    insert(b[0]);
    whole = false;
  }

  static void exec(std::uint32_t id) {
    if (id == 0) {
      reclaim::EpochGuard g(*domain);
      const minikv::BlockRef got =
          minikv::read_block_cached(*cache, *table, b[0]);
      const minikv::Block& want = table->block(b[0]);
      bool same = got->size() == want.size();
      for (std::size_t i = 0; same && i < want.size(); ++i) {
        same = got->key(i) == want.key(i) && got->value(i) == want.value(i);
      }
      whole = same;
    } else {
      insert(b[1]);  // evicts b0
      yield_point("recycle:step");
      domain->try_advance();
      yield_point("recycle:step");
      domain->try_advance();
      yield_point("recycle:step");
      insert(b[2]);  // evicts b1, into b0's entry if the epoch passed it
    }
  }

  static void fini() {
    VERIFY_ASSERT(whole);  // thread 0 read b0, whole
    delete cache;
    delete table;
    delete domain;
    cache = nullptr;
    table = nullptr;
    domain = nullptr;
  }
};

// ---------------------------------------------------------------------
// The deliberately-broken toy lock: test-and-set with the test and
// the set split by a yield point — the textbook lost-update race. The
// harness must catch it within the bounded depth; this regression-
// proofs the harness itself (a verifier that cannot find a planted
// bug proves nothing by passing).
// ---------------------------------------------------------------------

class BrokenTas {
 public:
  void lock() noexcept {
    for (;;) {
      // mo: acquire/release as a real TAS would use — the planted bug
      // is the check-to-set window, not the memory ordering.
      if (flag_.load(std::memory_order_acquire) == 0) {
        // The bug: another thread can run here, see flag_ == 0 too,
        // and both proceed to the store.
        yield_point("broken:check-to-set");
        // mo: release — as a real TAS unlock would use.
        flag_.store(1, std::memory_order_release);
        return;
      }
      yield_point("broken:poll");
    }
  }
  // mo: release — as a real TAS unlock would use.
  void unlock() noexcept { flag_.store(0, std::memory_order_release); }

 private:
  std::atomic<std::uint32_t> flag_{0};
};

}  // namespace

// The ver_funcs table.
const Scenario kScenarios[] = {
    {"hemlock", "Hemlock + CTR CAS grant (paper Listing 2)", 2,
     &MutexScenario<Hemlock, HemlockQueuedTag>::init,
     &MutexScenario<Hemlock, HemlockQueuedTag>::exec,
     &MutexScenario<Hemlock, HemlockQueuedTag>::fini, nullptr, false},
    {"hemlock-naive", "Hemlock- load-polling grant (paper Listing 1)", 2,
     &MutexScenario<HemlockNaive, HemlockQueuedTag>::init,
     &MutexScenario<HemlockNaive, HemlockQueuedTag>::exec,
     &MutexScenario<HemlockNaive, HemlockQueuedTag>::fini, nullptr, false},
    {"hemlock-faa", "Hemlock + CTR FAA(0) grant polling", 2,
     &MutexScenario<HemlockFaa, HemlockQueuedTag>::init,
     &MutexScenario<HemlockFaa, HemlockQueuedTag>::exec,
     &MutexScenario<HemlockFaa, HemlockQueuedTag>::fini, nullptr, false},
    {"hemlock-futex", "Hemlock + CTR grant on the park tier (futex shimmed)",
     2, &MutexScenario<HemlockFutex, HemlockQueuedTag>::init,
     &MutexScenario<HemlockFutex, HemlockQueuedTag>::exec,
     &MutexScenario<HemlockFutex, HemlockQueuedTag>::fini, &post_all_parked,
     false},
    {"hemlock-adaptive", "Hemlock + governed grant, tier forced to park", 2,
     &MutexScenario<HemlockAdaptive, HemlockQueuedTag, ForcePark>::init,
     &MutexScenario<HemlockAdaptive, HemlockQueuedTag, ForcePark>::exec,
     &MutexScenario<HemlockAdaptive, HemlockQueuedTag, ForcePark>::fini,
     &post_all_parked, false},
    {"hemlock-profiled",
     "hemlock-adaptive forced to park, §5.4 profiler on (peek-then-consume)",
     2, &Profiled<ProfiledBase>::init, &Profiled<ProfiledBase>::exec,
     &Profiled<ProfiledBase>::fini, &post_all_parked, false},
    {"hemlock-try", "Hemlock try_lock retry loops", 2,
     &TryScenario<Hemlock>::init, &TryScenario<Hemlock>::exec,
     &TryScenario<Hemlock>::fini, nullptr, false},
    {"hemlock-overlap", "Overlap: deferred drain, residual check (Listing 3)",
     2, &OverlapScenario::init, &OverlapScenario::exec,
     &OverlapScenario::fini, nullptr, false},
    // Appendix A's residual race needs a third thread: a new arrival
    // behind the re-enqueued owner, while the tardy successor waits.
    {"hemlock-overlap-tardy",
     "Overlap, three threads (a tardy successor's residual grant)", 3,
     &OverlapScenario::init, &OverlapScenario::exec, &OverlapScenario::fini,
     nullptr, false},
    {"hemlock-ah", "Aggressive Hand-Over: publish before the CAS (Listing 4)",
     2, &AhScenario::init, &AhScenario::exec, &AhScenario::fini, nullptr,
     false},
    {"hemlock-ohv1", "OHV1: L|1 successor flag (Listing 5)", 2,
     &Ohv1Scenario::init, &Ohv1Scenario::exec, &Ohv1Scenario::fini, nullptr,
     false},
    {"hemlock-ohv2", "OHV2: polite Tail read before the CAS (Listing 6)", 2,
     &Ohv2Scenario::init, &Ohv2Scenario::exec, &Ohv2Scenario::fini, nullptr,
     false},
    {"hemlock-chain", "Appendix C chain: private flags, park tier", 2,
     &ChainScenario::init, &ChainScenario::exec, &ChainScenario::fini,
     &post_all_parked, false},
    {"mcs", "MCS, spin tier", 2,
     &MutexScenario<McsLock, McsQueuedTag>::init,
     &MutexScenario<McsLock, McsQueuedTag>::exec,
     &MutexScenario<McsLock, McsQueuedTag>::fini, nullptr, false},
    {"mcs-park", "MCS, spin-then-park tier (futex shimmed)", 2,
     &MutexScenario<McsParkLock, McsQueuedTag>::init,
     &MutexScenario<McsParkLock, McsQueuedTag>::exec,
     &MutexScenario<McsParkLock, McsQueuedTag>::fini, &post_all_parked,
     false},
    {"governed", "MCS, governed tier forced to park (escalation path)", 2,
     &MutexScenario<McsGovernedLock, McsQueuedTag, ForcePark>::init,
     &MutexScenario<McsGovernedLock, McsQueuedTag, ForcePark>::exec,
     &MutexScenario<McsGovernedLock, McsQueuedTag, ForcePark>::fini,
     &post_all_parked, false},
    {"clh", "CLH, spin tier (node migration)", 2,
     &MutexScenario<ClhLock, ClhQueuedTag>::init,
     &MutexScenario<ClhLock, ClhQueuedTag>::exec,
     &MutexScenario<ClhLock, ClhQueuedTag>::fini, nullptr, false},
    {"ticket", "Ticket, spin tier (exact FIFO by draw order)", 2,
     &MutexScenario<TicketLock, TicketQueuedTag>::init,
     &MutexScenario<TicketLock, TicketQueuedTag>::exec,
     &MutexScenario<TicketLock, TicketQueuedTag>::fini, nullptr, false},
    {"ticket-park", "Ticket, park tier (slotted ring wakeups)", 2,
     &MutexScenario<TicketParkLock, TicketQueuedTag>::init,
     &MutexScenario<TicketParkLock, TicketQueuedTag>::exec,
     &MutexScenario<TicketParkLock, TicketQueuedTag>::fini, &post_all_parked,
     false},
    {"anderson", "Anderson array lock (4-slot ring)", 2,
     &MutexScenario<AndersonLockT<4>, AndersonQueuedTag>::init,
     &MutexScenario<AndersonLockT<4>, AndersonQueuedTag>::exec,
     &MutexScenario<AndersonLockT<4>, AndersonQueuedTag>::fini, nullptr,
     false},
    {"rwlock-ww", "rwlock: two writers (Hemlock writer path)", 2,
     &RwWW::init, &RwWW::exec, &RwWW::fini, nullptr, false},
    {"rwlock-wr", "rwlock: writer vs reader (gate-close/drain Dekker)", 2,
     &RwWR::init, &RwWR::exec, &RwWR::fini, nullptr, false},
    {"rwlock-readers", "rwlock: three readers (overlap must occur)", 3,
     &RwRRR::init, &RwRRR::exec, &RwRRR::fini, &RwRRR::post_all_readers,
     false},
    {"memtable-promote",
     "MiniKV read promotion vs. a put, a compacting flush, two drains and "
     "a same-size put of the same key",
     2,
     &PromoteScenario::init, &PromoteScenario::exec, &PromoteScenario::fini,
     nullptr, false},
    {"memtable-promote-mutant",
     "read promotion without its (memtable, version) recheck — must be "
     "caught",
     2, &PromoteScenario::init, &PromoteScenario::exec,
     &PromoteScenario::fini, nullptr, true, "promote:skip-recheck"},
    {"memtable-promote-kill-clean",
     "a put that lists a clean row's table row as dead — must be caught", 2,
     &PromoteScenario::init, &PromoteScenario::exec, &PromoteScenario::fini,
     nullptr, true, "memtable:kill-clean"},
    {"memtable-recycle",
     "MiniKV memtable hit vs. an overwrite whose dead entry a new key "
     "reuses",
     2, &RecycleScenario::init, &RecycleScenario::exec,
     &RecycleScenario::fini, nullptr, false},
    {"memtable-recycle-mutant",
     "memtable reuse without the epoch check — must be caught", 2,
     &RecycleScenario::init, &RecycleScenario::exec, &RecycleScenario::fini,
     nullptr, true, "memtable:recycle-early"},
    {"cache-recycle",
     "MiniKV block-cache hit vs. an eviction whose dead entry an insert "
     "reuses",
     2, &CacheRecycleScenario::init, &CacheRecycleScenario::exec,
     &CacheRecycleScenario::fini, nullptr, false},
    {"cache-recycle-mutant",
     "block-cache reuse without the epoch check — must be caught", 2,
     &CacheRecycleScenario::init, &CacheRecycleScenario::exec,
     &CacheRecycleScenario::fini, nullptr, true, "cache:recycle-early"},
    {"broken", "deliberately racy test-and-set — must be caught", 2,
     &MutexScenario<BrokenTas>::init, &MutexScenario<BrokenTas>::exec,
     &MutexScenario<BrokenTas>::fini, nullptr, true},
};

const std::size_t kNumScenarios = sizeof(kScenarios) / sizeof(kScenarios[0]);

}  // namespace hemlock::verify
