// telemetry.cpp — slab registry, handle table, flight recorder, and
// the HEMLOCK_STATS / HEMLOCK_TRACE / SIGUSR1 exporters.

#include "stats/telemetry.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "reclaim/epoch.hpp"
#include "runtime/governor.hpp"
#include "runtime/raw_spinlock.hpp"
#include "runtime/thread_rec.hpp"

namespace hemlock::telemetry {

namespace {

/// Condvar-counter source registered by the interpose layer (the
/// stats layer cannot see ShimCond itself).
std::atomic<CondCounters (*)()> g_cond_source{nullptr};

}  // namespace

void set_cond_source(CondCounters (*source)()) {
  // mo: release publish / acquire read at use — the source function's
  // static state is set up before registration.
  g_cond_source.store(source, std::memory_order_release);
}

namespace {

/// The counter table as data, for the generic walks below: the fold,
/// scrub, JSON and report code iterate it instead of naming counters.
struct Column {
  const char* key;      ///< JSON key: the field's name
  const char* heading;  ///< text report column heading
  Fold fold;
  std::uint64_t Counters::*value;
  std::atomic<std::uint64_t> TmSlot::*slot;
};

constexpr Column kColumns[] = {
#define HEMLOCK_TM_COLUMN(field, fold, heading) \
  {#field, heading, Fold::fold, &Counters::field, &TmSlot::field},
    HEMLOCK_TM_COUNTERS(HEMLOCK_TM_COLUMN)
#undef HEMLOCK_TM_COLUMN
};

/// The report's original columns; the histogram p99s follow them, and
/// the later table rows come after those.
constexpr std::size_t kFirstColumns = 7;

static_assert(ContentionGovernor::kParkBuckets <= (1u << kCensusBucketBits),
              "a census bucket must fit below the packed count");

constexpr std::uint64_t fold(Fold f, std::uint64_t a, std::uint64_t b) {
  return f == Fold::kSum ? a + b : std::max(a, b);
}

}  // namespace

void Counters::add(const Counters& o) noexcept {
  for (const Column& c : kColumns) {
    this->*c.value = fold(c.fold, this->*c.value, o.*c.value);
  }
}

bool Counters::any() const noexcept {
  for (const Column& c : kColumns) {
    if (this->*c.value != 0) return true;
  }
  return false;
}

#if HEMLOCK_TELEMETRY_ENABLED

namespace {

// ---------------------------------------------------------------------
// Handle table.
// ---------------------------------------------------------------------

constexpr std::size_t kNameBytes = 48;

struct HandleEntry {
  bool live = false;
  std::uint32_t refs = 0;
  char name[kNameBytes] = {};
};

RawSpinLock g_handle_mu;
HandleEntry g_handles[kMaxHandles];  // slot 0 = "(unattributed)"

/// One handle's fold: its counters and its histograms' bucket counts.
struct FoldRow {
  Counters c;
  std::uint64_t wait_hist[kHistBuckets] = {};
  std::uint64_t hold_hist[kHistBuckets] = {};
};

/// Counters folded in from exited threads, indexed like a slab.
/// Guarded by g_fold_mu (deregistration holds the thread-registry
/// lock when folding; the snapshot fold takes the locks strictly one
/// at a time, so the orders never nest into a cycle).
RawSpinLock g_fold_mu;
FoldRow g_retired[kMaxHandles];

/// Shared fallback slab for hooks that fire after the calling
/// thread's ThreadRec was torn down (thread_local destructor order).
/// Cross-thread racy, but these are relaxed statistics.
Slab g_late_slab;
thread_local bool t_slab_dead = false;

template <typename T>
T peek(const std::atomic<T>& c) noexcept {
  // mo: relaxed — monotonic stats counters; racy-consistent snapshot
  // by design (exact once writers quiesce).
  return c.load(std::memory_order_relaxed);
}

template <typename T>
void zero(std::atomic<T>& c) noexcept {
  // mo: relaxed — stats reset; a racing owner increment is racy by
  // the same contract as bump().
  c.store(0, std::memory_order_relaxed);
}

/// Fold a slab into rows[0..kMaxHandles).
void fold_slab(FoldRow* rows, const Slab& slab) noexcept {
  for (std::uint16_t i = 0; i < kMaxHandles; ++i) {
    const TmSlot& s = slab.slots[i];
    FoldRow& r = rows[i];
    for (const Column& c : kColumns) {
      r.c.*c.value = fold(c.fold, r.c.*c.value, peek(s.*c.slot));
    }
    for (unsigned b = 0; b < kHistBuckets; ++b) {
      r.wait_hist[b] += peek(s.wait_hist[b]);
      r.hold_hist[b] += peek(s.hold_hist[b]);
    }
  }
}

/// The fold collect() and the no-allocation report share: the retired
/// accumulator, every live slab, then the post-exit fallback slab.
void fold_all(FoldRow* rows) noexcept {
  {
    RawSpinGuard g(g_fold_mu);
    std::copy(g_retired, g_retired + kMaxHandles, rows);
  }
  ThreadRegistry::for_each_raw(
      [](ThreadRec& rec, void* ctx) {
        fold_slab(static_cast<FoldRow*>(ctx), rec.telemetry_slab);
      },
      rows);
  fold_slab(rows, g_late_slab);
}

void scrub(TmSlot& s) noexcept {
  for (const Column& c : kColumns) zero(s.*c.slot);
  for (unsigned b = 0; b < kHistBuckets; ++b) {
    zero(s.wait_hist[b]);
    zero(s.hold_hist[b]);
  }
}

/// Zero one slot id everywhere: retired fold + every live slab.
void zero_slot_everywhere(std::uint16_t id) {
  {
    RawSpinGuard g(g_fold_mu);
    g_retired[id] = FoldRow{};
  }
  ThreadRegistry::for_each(
      [id](ThreadRec& rec) { scrub(rec.telemetry_slab.slots[id]); });
  scrub(g_late_slab.slots[id]);
}

}  // namespace

TelemetryHandle register_handle(std::string_view name) noexcept {
  if (name.empty()) return {};
  std::uint16_t claimed = 0;
  {
    RawSpinGuard g(g_handle_mu);
    // Refcount an existing live entry with the same name.
    for (std::uint16_t i = 1; i < kMaxHandles; ++i) {
      HandleEntry& e = g_handles[i];
      if (e.live && name == std::string_view(e.name)) {
        ++e.refs;
        return {i};
      }
    }
    for (std::uint16_t i = 1; i < kMaxHandles; ++i) {
      HandleEntry& e = g_handles[i];
      if (!e.live) {
        e.live = true;
        e.refs = 1;
        const std::size_t n = name.size() < kNameBytes - 1 ? name.size()
                                                          : kNameBytes - 1;
        std::memcpy(e.name, name.data(), n);
        e.name[n] = '\0';
        claimed = i;
        break;
      }
    }
  }
  if (claimed == 0) return {};  // table full: fall back to unattributed
  return {claimed};
}

void release_handle(TelemetryHandle h) noexcept {
  if (h.id == 0 || h.id >= kMaxHandles) return;
  {
    RawSpinGuard g(g_handle_mu);
    HandleEntry& e = g_handles[h.id];
    if (!e.live || e.refs == 0) return;
    if (--e.refs != 0) return;
    // Last reference: keep the slot marked live until the counters are
    // scrubbed, so a racing register_handle cannot adopt a dirty slot.
  }
  zero_slot_everywhere(h.id);
  RawSpinGuard g(g_handle_mu);
  g_handles[h.id].live = false;
  g_handles[h.id].name[0] = '\0';
}

std::string_view handle_name(TelemetryHandle h) noexcept {
  if (h.id == 0 || h.id >= kMaxHandles) return {};
  RawSpinGuard g(g_handle_mu);
  return g_handles[h.id].live ? std::string_view(g_handles[h.id].name)
                              : std::string_view{};
}

Slab* slab_slow() noexcept {
  if (t_slab_dead) return &g_late_slab;
  Slab* s = &self().telemetry_slab;
  t_slab = s;
  return s;
}

void on_thread_exit(Slab& slab) noexcept {
  t_slab = nullptr;
  t_slab_dead = true;
  RawSpinGuard g(g_fold_mu);
  fold_slab(g_retired, slab);
}

// ---------------------------------------------------------------------
// Waiting-layer hooks: single-writer bumps on the caller's own slab.
// ---------------------------------------------------------------------

namespace {
/// A census registration as a kCensus value: the count above the bucket.
void note_census(TmSlot& s, const void* addr, std::uint32_t parked) noexcept {
  raise(s.census_high_water,
        (std::uint64_t{parked} << kCensusBucketBits) |
            ContentionGovernor::park_bucket(addr));
}
}  // namespace

void wl_contended() noexcept {
  bump(attr_slot(my_slab()).contended);
  trace(Ev::kContended, t_attr);
}

void wl_park(const void* addr, std::uint32_t parked) noexcept {
  TmSlot& s = attr_slot(my_slab());
  bump(s.parks);
  note_census(s, addr, parked);
  trace(Ev::kPark, t_attr);
}

void wl_unpark() noexcept { bump(attr_slot(my_slab()).park_returns); }

void wl_retry(const void* addr, std::uint32_t parked) noexcept {
  TmSlot& s = attr_slot(my_slab());
  bump(s.baseline_retries);
  note_census(s, addr, parked);
}

void wl_wake() noexcept {
  bump(attr_slot(my_slab()).wakes);
  trace(Ev::kWake, t_attr);
}

void wl_gate_skip() noexcept { bump(attr_slot(my_slab()).gate_skips); }

void wl_escalate() noexcept {
  bump(attr_slot(my_slab()).escalations);
  trace(Ev::kEscalate, t_attr);
}

// ---------------------------------------------------------------------
// Flight recorder.
//
// Rings live in one lazily-allocated global pool (allocated on the
// loading thread when HEMLOCK_TRACE enables tracing — never on a lock
// path). A thread claims a ring on its first traced event and keeps
// it forever, so events from exited threads survive to the dump.
// ---------------------------------------------------------------------

namespace {

constexpr std::size_t kTraceCap = 4096;   ///< events per thread (ring)
constexpr std::size_t kTraceThreads = 64; ///< claimable rings per process

struct TraceRec {
  std::uint64_t ticks;
  std::uint32_t arg;
  std::uint16_t handle;
  std::uint8_t ev;
  std::uint8_t pad;
};
static_assert(sizeof(TraceRec) == 16);

struct TraceRing {
  TraceRec recs[kTraceCap];
  std::atomic<std::uint64_t> count{0};  ///< total appended (owner-written)
  std::uint32_t tid = 0;
};

TraceRing* g_trace_pool = nullptr;           ///< kTraceThreads rings
std::atomic<std::uint32_t> g_trace_claimed{0};
std::atomic<std::uint64_t> g_trace_dropped{0};
thread_local TraceRing* t_trace_ring = nullptr;
thread_local bool t_trace_saturated = false;

char g_trace_path[256] = {};
std::uint64_t g_cal_ticks0 = 0;
std::int64_t g_cal_ns0 = 0;

inline std::uint64_t trace_ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(now_ns());
#endif
}

const char* ev_name(std::uint8_t ev) noexcept {
  switch (static_cast<Ev>(ev)) {
    case Ev::kAcquire: return "acquire";
    case Ev::kContended: return "contended";
    case Ev::kPark: return "park";
    case Ev::kWake: return "wake";
    case Ev::kEscalate: return "escalate";
    case Ev::kEpochAdvance: return "epoch-advance";
  }
  return "?";
}

}  // namespace

void trace_emit(Ev ev, std::uint16_t handle, std::uint32_t arg) noexcept {
  TraceRing* r = t_trace_ring;
  if (r == nullptr) {
    if (t_trace_saturated || g_trace_pool == nullptr) {
      // mo: relaxed — diagnostic drop counter.
      g_trace_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // mo: relaxed — slot claim; each thread claims a distinct index,
    // and the pool itself was published before g_trace_on was set.
    const std::uint32_t idx =
        g_trace_claimed.fetch_add(1, std::memory_order_relaxed);
    if (idx >= kTraceThreads) {
      t_trace_saturated = true;
      g_trace_dropped.fetch_add(1, std::memory_order_relaxed);  // mo: stats
      return;
    }
    r = &g_trace_pool[idx];
    r->tid = idx;
    t_trace_ring = r;
  }
  // mo: relaxed owner read — only this thread writes count.
  const std::uint64_t i = r->count.load(std::memory_order_relaxed);
  r->recs[i % kTraceCap] = {trace_ticks(), arg, handle,
                            static_cast<std::uint8_t>(ev), 0};
  // mo: release — the record is complete before the dump walk (which
  // runs after threads quiesce, but release keeps the pairing honest).
  r->count.store(i + 1, std::memory_order_release);
}

namespace {

/// Dump the rings as Chrome trace-event JSON (instant events with
/// thread scope). Linear two-point TSC calibration: (ticks0, ns0) at
/// enable, (ticks1, ns1) here, spread over the program lifetime.
void trace_dump() {
  // mo: relaxed — flipping the switch off before the dump walk; any
  // concurrently-appended event is either seen via count or dropped.
  g_trace_on.store(false, std::memory_order_relaxed);
  if (g_trace_pool == nullptr || g_trace_path[0] == '\0') return;
  std::FILE* f = std::fopen(g_trace_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[hemlock-telemetry] cannot open HEMLOCK_TRACE=%s\n",
                 g_trace_path);
    return;
  }
  const std::uint64_t ticks1 = trace_ticks();
  const std::int64_t ns1 = now_ns();
  const double ns_per_tick =
      ticks1 > g_cal_ticks0
          ? static_cast<double>(ns1 - g_cal_ns0) /
                static_cast<double>(ticks1 - g_cal_ticks0)
          : 1.0;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  // mo: relaxed — pool claim count; threads are quiescing at exit and
  // a racing late claim only loses its (empty) ring.
  const std::uint32_t rings =
      std::min<std::uint32_t>(g_trace_claimed.load(std::memory_order_relaxed),
                              kTraceThreads);
  for (std::uint32_t ri = 0; ri < rings; ++ri) {
    TraceRing& r = g_trace_pool[ri];
    // mo: acquire — pairs with trace_emit's release so the records up
    // to `count` are fully written.
    const std::uint64_t total = r.count.load(std::memory_order_acquire);
    const std::uint64_t begin = total > kTraceCap ? total - kTraceCap : 0;
    for (std::uint64_t i = begin; i < total; ++i) {
      const TraceRec& rec = r.recs[i % kTraceCap];
      const double us =
          (static_cast<double>(g_cal_ns0) +
           static_cast<double>(rec.ticks - g_cal_ticks0) * ns_per_tick) /
          1000.0;
      char name[96];
      const std::string_view lock = handle_name({rec.handle});
      if (lock.empty()) {
        std::snprintf(name, sizeof(name), "%s", ev_name(rec.ev));
      } else {
        std::snprintf(name, sizeof(name), "%s %.*s", ev_name(rec.ev),
                      static_cast<int>(lock.size()), lock.data());
      }
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,"
                   "\"pid\":%d,\"tid\":%u,\"args\":{\"arg\":%u}}",
                   first ? "" : ",\n", name, us, static_cast<int>(getpid()),
                   r.tid, rec.arg);
      first = false;
    }
  }
  // mo: relaxed — diagnostic counter.
  const std::uint64_t dropped = g_trace_dropped.load(std::memory_order_relaxed);
  std::fprintf(f,
               "%s{\"name\":\"hemlock-trace-dropped\",\"ph\":\"i\",\"s\":\"g\","
               "\"ts\":0,\"pid\":%d,\"tid\":0,\"args\":{\"dropped\":%" PRIu64
               "}}\n]}\n",
               first ? "" : ",\n", static_cast<int>(getpid()), dropped);
  std::fclose(f);
}

}  // namespace

#endif  // HEMLOCK_TELEMETRY_ENABLED

// ---------------------------------------------------------------------
// Snapshot / export.
// ---------------------------------------------------------------------

namespace {

/// The governor block: the census read live, the protocol totals read
/// off `total` (every per-lock row folded together).
GovernorTelemetry governor_of(const Counters& total) {
  auto& gov = ContentionGovernor::instance();
  GovernorTelemetry g;
  g.cpus = gov.cpus();
  g.waiters = gov.waiters();
  g.parked_total = gov.parked_total();
  g.wake_syscalls = total.wakes;
  g.wake_gate_skips = total.gate_skips;
  g.park_sleeps = total.parks;
  g.park_wakeups = total.park_returns;
  g.baseline_retries = total.baseline_retries;
  g.escalations = total.escalations;
  g.census_high_water_max =
      static_cast<std::uint32_t>(total.census_high_water >> kCensusBucketBits);
  g.census_high_water_bucket = static_cast<std::uint32_t>(
      total.census_high_water & ((1u << kCensusBucketBits) - 1));
  return g;
}

EpochTelemetry epoch_snapshot() {
  const auto s = reclaim::EpochDomain::global().stats();
  return {s.epoch, s.pending, s.freed, s.advances, s.advance_blocked};
}

}  // namespace

Snapshot collect() {
  Snapshot snap;
  snap.epoch = epoch_snapshot();
  // mo: acquire — pairs with set_cond_source's release publish.
  if (auto* src = g_cond_source.load(std::memory_order_acquire)) {
    snap.cond = src();
    snap.cond_present = true;
  }
  Counters total;
#if HEMLOCK_TELEMETRY_ENABLED
  std::vector<FoldRow> rows(kMaxHandles);
  fold_all(rows.data());
  for (std::uint16_t i = 0; i < kMaxHandles; ++i) {
    const FoldRow& row = rows[i];
    LockTelemetry lt;
    static_cast<Counters&>(lt) = row.c;
    lt.name = i == 0 ? "(unattributed)" : std::string(handle_name({i}));
    if (i != 0 && lt.name.empty()) lt.name = "(released)";
    for (unsigned b = 0; b < kHistBuckets; ++b) {
      if (row.wait_hist[b] != 0) {
        lt.wait_ns.record_n(1ull << b, row.wait_hist[b]);
      }
      if (row.hold_hist[b] != 0) {
        lt.hold_ns.record_n(1ull << b, row.hold_hist[b]);
      }
    }
    total.add(row.c);
    if (!lt.empty()) snap.locks.push_back(std::move(lt));
  }
#endif  // HEMLOCK_TELEMETRY_ENABLED
  snap.governor = governor_of(total);
  snap.profile.nested_acquires = total.nested_acquires;
  snap.profile.max_locks_held = static_cast<std::uint32_t>(total.max_held);
  snap.profile.max_grant_waiters =
      static_cast<std::uint32_t>(total.max_grant_waiters);
  return snap;
}

void reset() {
#if HEMLOCK_TELEMETRY_ENABLED
  for (std::uint16_t i = 0; i < kMaxHandles; ++i) zero_slot_everywhere(i);
#endif
}

std::string LockUsageProfile::describe() const {
  char buf[512];
  if (!HEMLOCK_TELEMETRY_ENABLED) {
    std::snprintf(buf, sizeof(buf),
                  "lock-usage profile (cf. paper §5.4): not collected — it "
                  "needs the telemetry slabs (built with "
                  "-DHEMLOCK_TELEMETRY=OFF)\n");
    return buf;
  }
  std::snprintf(
      buf, sizeof(buf),
      "lock-usage profile (cf. paper §5.4):\n"
      "  lock() calls while already holding a lock : %" PRIu64 "\n"
      "  max locks held simultaneously by a thread : %u\n"
      "  max threads waiting on any one Grant field: %u\n"
      "  spinning locality                          : %s\n",
      nested_acquires, max_locks_held, max_grant_waiters,
      purely_local() ? "purely local" : "multi-waiting observed");
  return buf;
}

namespace {

void json_escape_into(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

/// `,"key":v,...` for every (key, value) pair — one JSON block's body
/// after its first member.
void append_fields(
    std::string& out,
    std::initializer_list<std::pair<const char*, std::uint64_t>> fields) {
  for (const auto& [key, v] : fields) {
    out += ",\"";
    out += key;
    out += "\":";
    append_u64(out, v);
  }
}

void append_hist(std::string& out, const char* key, const Histogram& h) {
  out += ",\"";
  out += key;
  out += "\":{\"count\":";
  append_u64(out, h.count());
  append_fields(out, {{"p50", h.quantile(0.50)},
                      {"p99", h.quantile(0.99)},
                      {"max", h.max()}});
  out += '}';
}

}  // namespace

std::string to_json(const Snapshot& snap) {
  std::string out;
  out.reserve(2048);
  out += "{\"schema\":\"hemlock-telemetry-v1\",\"pid\":";
  append_u64(out, static_cast<std::uint64_t>(getpid()));
  out += ",\"locks\":[";
  bool first = true;
  for (const LockTelemetry& lt : snap.locks) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    json_escape_into(out, lt.name);
    out += '"';
    for (const Column& c : kColumns) {
      const std::uint64_t v = lt.*c.value;
      if (c.fold != Fold::kCensus) {
        append_fields(out, {{c.key, v}});
        continue;
      }
      out += ",\"";
      out += c.key;
      out += "\":{\"max\":";
      append_u64(out, v >> kCensusBucketBits);
      append_fields(out, {{"bucket", v & ((1u << kCensusBucketBits) - 1)}});
      out += '}';
    }
    append_hist(out, "wait_ns", lt.wait_ns);
    append_hist(out, "hold_ns", lt.hold_ns);
    out += '}';
  }
  const GovernorTelemetry& g = snap.governor;
  out += "],\"governor\":{\"cpus\":";
  append_u64(out, g.cpus);
  append_fields(out, {{"waiters", g.waiters},
                      {"parked", g.parked_total},
                      {"wake_syscalls", g.wake_syscalls},
                      {"wake_gate_skips", g.wake_gate_skips},
                      {"park_sleeps", g.park_sleeps},
                      {"park_wakeups", g.park_wakeups},
                      {"baseline_retries", g.baseline_retries},
                      {"escalations", g.escalations}});
  out += ",\"census_high_water\":{\"max\":";
  append_u64(out, g.census_high_water_max);
  append_fields(out, {{"bucket", g.census_high_water_bucket}});
  out += "}},\"epoch\":{\"epoch\":";
  append_u64(out, snap.epoch.epoch);
  append_fields(out, {{"pending", snap.epoch.pending},
                      {"freed", snap.epoch.freed},
                      {"advances", snap.epoch.advances},
                      {"advance_blocked", snap.epoch.advance_blocked}});
  out += '}';
  if (snap.cond_present) {
    const CondCounters& c = snap.cond;
    out += ",\"cond\":{\"adopted\":";
    append_u64(out, c.adopted);
    append_fields(out, {{"waits", c.waits},
                        {"timeouts", c.timeouts},
                        {"signals", c.signals},
                        {"broadcasts", c.broadcasts},
                        {"requeued", c.requeued},
                        {"chain_wakes", c.chain_wakes}});
    out += '}';
  }
  out += '}';
  return out;
}

// ---------------------------------------------------------------------
// No-allocation report (shared by the atexit dump and the SIGUSR1
// handler). snprintf into a bounded stack buffer + write(2) only.
// ---------------------------------------------------------------------

namespace {

/// A line built piecewise in a bounded buffer, then written whole.
struct FdSink {
  int fd;
  char buf[1024];
  std::size_t len = 0;

  /// Append to the pending line (truncating at the buffer's end).
  void add(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list ap;
    va_start(ap, fmt);
    const int n = std::vsnprintf(buf + len, sizeof(buf) - len, fmt, ap);
    va_end(ap);
    if (n > 0) {
      len = std::min(len + static_cast<std::size_t>(n), sizeof(buf) - 1);
    }
  }

  /// Write the pending line out.
  void flush() {
    (void)!write(fd, buf, len);
    len = 0;
  }
};

#if HEMLOCK_TELEMETRY_ENABLED
/// Approximate quantile over a log2 bucket array: the upper edge of
/// the bucket containing the q-th sample.
std::uint64_t bucket_quantile(const std::uint64_t* hist, double q) {
  std::uint64_t total = 0;
  for (unsigned b = 0; b < kHistBuckets; ++b) total += hist[b];
  if (total == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (unsigned b = 0; b < kHistBuckets; ++b) {
    seen += hist[b];
    if (seen > rank) return (2ull << b) - 1;
  }
  return (2ull << (kHistBuckets - 1)) - 1;
}

/// A report column's width: its heading's, at least 8.
int width(const Column& c) {
  return std::max(8, static_cast<int>(std::strlen(c.heading)));
}
#endif  // HEMLOCK_TELEMETRY_ENABLED

}  // namespace

void report_to_fd(int fd) {
  FdSink out{fd, {}};
  out.add("[hemlock-telemetry] pid %d\n", static_cast<int>(getpid()));
  out.flush();
  Counters total;
#if HEMLOCK_TELEMETRY_ENABLED
  static FoldRow rows[kMaxHandles];  // static: a signal handler's stack is small
  fold_all(rows);
  out.add("%-28s", "lock");
  for (std::size_t k = 0; k < std::size(kColumns); ++k) {
    if (k == kFirstColumns) {
      out.add(" %12s %12s", "wait-p99(ns)", "hold-p99(ns)");
    }
    out.add(" %*s", width(kColumns[k]), kColumns[k].heading);
  }
  out.add("\n");
  out.flush();
  for (std::uint16_t i = 0; i < kMaxHandles; ++i) {
    const FoldRow& row = rows[i];
    total.add(row.c);
    if (!row.c.any()) continue;
    char name[kNameBytes];
    const std::string_view n = handle_name({i});
    if (i == 0) {
      std::snprintf(name, sizeof(name), "(unattributed)");
    } else if (n.empty()) {
      std::snprintf(name, sizeof(name), "(released #%u)", i);
    } else {
      std::snprintf(name, sizeof(name), "%.*s", static_cast<int>(n.size()),
                    n.data());
    }
    out.add("%-28s", name);
    for (std::size_t k = 0; k < std::size(kColumns); ++k) {
      const Column& c = kColumns[k];
      if (k == kFirstColumns) {
        out.add(" %12" PRIu64 " %12" PRIu64,
                bucket_quantile(row.wait_hist, 0.99),
                bucket_quantile(row.hold_hist, 0.99));
      }
      const std::uint64_t v = row.c.*c.value;
      out.add(" %*" PRIu64, width(c),
              c.fold == Fold::kCensus ? v >> kCensusBucketBits : v);
    }
    out.add("\n");
    out.flush();
  }
#endif  // HEMLOCK_TELEMETRY_ENABLED
  const GovernorTelemetry g = governor_of(total);
  out.add("governor: cpus=%u waiters=%u parked=%u wake-syscalls=%" PRIu64
          " wake-gate-skips=%" PRIu64 " park-sleeps=%" PRIu64
          " park-wakeups=%" PRIu64 " baseline-retries=%" PRIu64
          " escalations=%" PRIu64 " census-high-water=%u (bucket %u)\n",
          g.cpus, g.waiters, g.parked_total, g.wake_syscalls,
          g.wake_gate_skips, g.park_sleeps, g.park_wakeups,
          g.baseline_retries, g.escalations, g.census_high_water_max,
          g.census_high_water_bucket);
  out.flush();
  const auto e = reclaim::EpochDomain::global().stats();
  out.add("epoch: epoch=%" PRIu64 " pending=%" PRIu64 " freed=%" PRIu64
          " advances=%" PRIu64 " advance-blocked=%" PRIu64 "\n",
          e.epoch, e.pending, e.freed, e.advances, e.advance_blocked);
  out.flush();
  // mo: acquire — pairs with set_cond_source's release publish.
  if (auto* src = g_cond_source.load(std::memory_order_acquire)) {
    const CondCounters c = src();
    out.add("cond: adopted=%" PRIu64 " waits=%" PRIu64 " timeouts=%" PRIu64
            " signals=%" PRIu64 " broadcasts=%" PRIu64 " requeued=%" PRIu64
            " chain-wakes=%" PRIu64 "\n",
            c.adopted, c.waits, c.timeouts, c.signals, c.broadcasts,
            c.requeued, c.chain_wakes);
    out.flush();
  }
}

// ---------------------------------------------------------------------
// Environment wiring: HEMLOCK_STATS, HEMLOCK_TRACE, SIGUSR1.
// ---------------------------------------------------------------------

namespace {

enum class StatsMode { kOff, kReport, kJson };
StatsMode g_stats_mode = StatsMode::kOff;
char g_stats_path[256] = {};

void stats_atexit() {
  if (g_stats_mode == StatsMode::kReport) {
    report_to_fd(STDERR_FILENO);
    return;
  }
  const std::string doc = to_json(collect());
  if (g_stats_path[0] != '\0') {
    if (std::FILE* f = std::fopen(g_stats_path, "w")) {
      std::fputs(doc.c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
      return;
    }
    std::fprintf(stderr, "[hemlock-telemetry] cannot open HEMLOCK_STATS path %s\n",
                 g_stats_path);
  }
  std::fputs(doc.c_str(), stderr);
  std::fputc('\n', stderr);
}

void sigusr1_handler(int) { report_to_fd(STDERR_FILENO); }

}  // namespace

void init_from_env() {
  static std::atomic<bool> once{false};
  // mo: relaxed — idempotence latch; init runs on the loading thread
  // before any competitor exists.
  if (once.exchange(true, std::memory_order_relaxed)) return;

  if (const char* stats = std::getenv("HEMLOCK_STATS");
      stats != nullptr && stats[0] != '\0') {
    std::string_view spec(stats);
    std::string_view mode = spec;
    if (const auto colon = spec.find(':'); colon != std::string_view::npos) {
      mode = spec.substr(0, colon);
      const std::string_view path = spec.substr(colon + 1);
      const std::size_t n = path.size() < sizeof(g_stats_path) - 1
                                ? path.size()
                                : sizeof(g_stats_path) - 1;
      std::memcpy(g_stats_path, path.data(), n);
      g_stats_path[n] = '\0';
    }
    if (mode == "report") {
      g_stats_mode = StatsMode::kReport;
    } else if (mode == "json") {
      g_stats_mode = StatsMode::kJson;
    } else {
      std::fprintf(stderr,
                   "[hemlock-telemetry] HEMLOCK_STATS=%s unrecognized "
                   "(want report|json[:path]); ignored\n",
                   stats);
    }
    if (g_stats_mode != StatsMode::kOff) {
      std::atexit(&stats_atexit);
      struct sigaction sa = {};
      sa.sa_handler = &sigusr1_handler;
      sigemptyset(&sa.sa_mask);
      sa.sa_flags = SA_RESTART;
      sigaction(SIGUSR1, &sa, nullptr);
    }
  }

#if HEMLOCK_TELEMETRY_ENABLED
  if (const char* trace = std::getenv("HEMLOCK_TRACE");
      trace != nullptr && trace[0] != '\0') {
    const std::size_t n = std::strlen(trace) < sizeof(g_trace_path) - 1
                              ? std::strlen(trace)
                              : sizeof(g_trace_path) - 1;
    std::memcpy(g_trace_path, trace, n);
    g_trace_path[n] = '\0';
    g_trace_pool = new TraceRing[kTraceThreads];
    g_cal_ticks0 = trace_ticks();
    g_cal_ns0 = now_ns();
    std::atexit(&trace_dump);
    // mo: release-ish not needed — the pool store above happens-before
    // any thread observes the flag via the loader's synchronization;
    // relaxed matches the hooks' relaxed reads.
    g_trace_on.store(true, std::memory_order_release);
  }
#endif
}

namespace {
struct EnvInit {
  EnvInit() { init_from_env(); }
};
EnvInit g_env_init;
}  // namespace

}  // namespace hemlock::telemetry
