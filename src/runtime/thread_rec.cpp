#include "runtime/thread_rec.hpp"

#include "runtime/pause.hpp"
#include "runtime/raw_spinlock.hpp"

namespace hemlock {

std::atomic<bool> LockProfiler::enabled_{false};

namespace {

// Registry guard. Deliberately NOT std::mutex: under the LD_PRELOAD
// interposition library every pthread_mutex (and therefore every
// std::mutex) in the process is replaced by a library lock whose
// lock() path registers the thread — which would re-enter this
// registry. The library's raw spinlock breaks that recursion. Nothing
// here is on a lock fast path.
RawSpinLock g_registry_mu;
ThreadRec* g_head = nullptr;
std::uint32_t g_ever = 0;
std::uint32_t g_live = 0;

// Holder gives the thread_local a destructor that drains the Grant
// word (paper Appendix A) before deregistering.
struct Holder {
  ThreadRec rec;

  Holder() { ThreadRegistry::register_rec(&rec); }

  ~Holder() {
    // A tardy successor (Overlap variant) may not yet have fetched
    // and cleared our Grant; its acknowledgement store must land
    // before this memory is reclaimed.
    SpinWait waiter;
    // mo: acquire drain — pairs with the successor's releasing
    // consume; its acknowledgement must land before reclamation.
    while (rec.grant.value.load(std::memory_order_acquire) != kGrantEmpty) {
      waiter.wait();
    }
    ThreadRegistry::deregister_rec(&rec);
  }
};

}  // namespace

ThreadRec& self() {
  static thread_local Holder holder;
  return holder.rec;
}

void ThreadRegistry::register_rec(ThreadRec* rec) {
  RawSpinGuard g(g_registry_mu);
  rec->id = g_ever++;
  rec->registry_next = g_head;
  g_head = rec;
  ++g_live;
  // mo: release — publishes id/registry_next before for_each can
  // observe the record as live.
  rec->live.store(true, std::memory_order_release);
}

void ThreadRegistry::deregister_rec(ThreadRec* rec) {
  RawSpinGuard g(g_registry_mu);
  // mo: release — orders the record's last profiling writes before
  // the tombstone that for_each checks.
  rec->live.store(false, std::memory_order_release);
  ThreadRec** link = &g_head;
  while (*link != nullptr && *link != rec) link = &(*link)->registry_next;
  if (*link == rec) *link = rec->registry_next;
  --g_live;
  // Preserve this thread's telemetry past its exit (the telemetry fold
  // takes its own accumulator lock; registry -> fold is the one
  // permitted nesting order).
  telemetry::on_thread_exit(rec->telemetry_slab);
}

void ThreadRegistry::for_each_raw(void (*fn)(ThreadRec&, void*), void* ctx) {
  RawSpinGuard g(g_registry_mu);
  for (ThreadRec* r = g_head; r != nullptr; r = r->registry_next) {
    // mo: acquire — pairs with register_rec's release so the
    // record's fields are visible for live entries.
    if (r->live.load(std::memory_order_acquire)) fn(*r, ctx);
  }
}

std::uint32_t ThreadRegistry::ever_registered() {
  RawSpinGuard g(g_registry_mu);
  return g_ever;
}

std::uint32_t ThreadRegistry::live_count() {
  RawSpinGuard g(g_registry_mu);
  return g_live;
}

}  // namespace hemlock
