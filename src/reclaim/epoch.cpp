#include "reclaim/epoch.hpp"

#include <stdexcept>

#include "stats/telemetry.hpp"

namespace hemlock::reclaim {

namespace {

/// Bitmap of claimed ThreadRec::epochs slots — one bit per live
/// EpochDomain, process-wide.
std::atomic<std::uint32_t> g_domain_slots{0};

/// retire(p, deleter)'s limbo node, allocated per call.
struct BoxedRetiree : EpochDomain::RetireNode {
  void* ptr;
  void (*deleter)(void*);
};

}  // namespace

EpochDomain::EpochDomain() {
  // mo: relaxed initial read — the CAS below revalidates it.
  std::uint32_t bits = g_domain_slots.load(std::memory_order_relaxed);
  for (;;) {
    std::uint32_t free_bit = ThreadRec::kMaxEpochDomains;
    for (std::uint32_t i = 0; i < ThreadRec::kMaxEpochDomains; ++i) {
      if ((bits & (1u << i)) == 0) {
        free_bit = i;
        break;
      }
    }
    if (free_bit == ThreadRec::kMaxEpochDomains) {
      throw std::runtime_error(
          "hemlock: EpochDomain slots exhausted (ThreadRec::kMaxEpochDomains "
          "live domains already exist)");
    }
    // mo: acq_rel — claims are ordered against other domains'
    // claims/releases of the same bitmap; failure refreshes `bits`.
    if (g_domain_slots.compare_exchange_weak(bits, bits | (1u << free_bit),
                                             std::memory_order_acq_rel)) {
      slot_ = free_bit;
      return;
    }
    // bits was refreshed by the failed CAS; rescan.
  }
}

EpochDomain::~EpochDomain() {
  // Contract: quiesced (no reader in-epoch, no concurrent calls), so
  // every retiree is safe regardless of its stamp.
  RetireNode* n = limbo_head_;
  while (n != nullptr) {
    RetireNode* next = n->next;
    n->reclaim(n);
    n = next;
  }
  limbo_head_ = nullptr;
  // mo: acq_rel — orders this domain's teardown before any successor
  // domain that re-claims the slot (and its epochs column).
  g_domain_slots.fetch_and(~(1u << slot_), std::memory_order_acq_rel);
}

void EpochDomain::enter() noexcept {
  ThreadRec& me = self();
  if (me.epoch_depth[slot_]++ != 0) return;  // nested: already pinned
  auto& announce = me.epochs[slot_].value;
  // mo: acquire — a first guess at the current epoch; the seq_cst
  // announce/recheck loop below does the real synchronization.
  std::uint64_t e = epoch_.load(std::memory_order_acquire);
  for (;;) {
    // seq_cst store/load pair: an advancer either sees this
    // announcement (and refuses to move past e+1) or has already
    // moved the epoch, in which case the recheck re-pins the fresh
    // value — a stale pin would needlessly block future advances.
    // mo: seq_cst announce/recheck — Dekker pair with try_advance's
    // seq_cst epoch-CAS/announcement-scan (see comment above).
    announce.store(e, std::memory_order_seq_cst);
    const std::uint64_t now = epoch_.load(std::memory_order_seq_cst);
    if (now == e) return;
    e = now;
  }
}

void EpochDomain::exit() noexcept {
  ThreadRec& me = self();
  if (--me.epoch_depth[slot_] != 0) return;  // still nested
  // Release: every read the section performed happens-before the
  // quiescence an advancer observes.
  // mo: release (see comment above).
  me.epochs[slot_].value.store(0, std::memory_order_release);
}

bool EpochDomain::in_epoch() const noexcept {
  return self().epoch_depth[slot_] != 0;
}

std::uint64_t EpochDomain::stamp() const noexcept {
  // The caller's unlink store must be globally visible before the
  // epoch is read: a stale load yields a SMALLER stamp, which expires
  // EARLIER — a reader pinned at that stale epoch + 1 could still hold
  // the pre-unlink pointer. The seq_cst fence + load mirror enter()'s
  // announce/recheck pairing and force the store->load ordering plain
  // acquire does not give on TSO.
  // mo: seq_cst fence + load — Dekker-style store->load ordering
  // described above; the stamp must not be read early.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  return epoch_.load(std::memory_order_seq_cst);
}

void EpochDomain::retire(void* p, void (*deleter)(void*)) {
  auto* box = new BoxedRetiree;
  box->ptr = p;
  box->deleter = deleter;
  retire(box, [](RetireNode* n) {
    auto* b = static_cast<BoxedRetiree*>(n);
    b->deleter(b->ptr);
    delete b;
  });
}

void EpochDomain::retire(RetireNode* node, void (*reclaim)(RetireNode*)) {
  node->reclaim = reclaim;
  node->epoch = stamp();  // the caller has unlinked it
  RawSpinGuard g(limbo_lock_);
  node->next = limbo_head_;
  limbo_head_ = node;
  ++pending_;
}

bool EpochDomain::try_advance() noexcept {
  // mo: seq_cst — part of the Dekker pair with enter()'s
  // announce/recheck: the scan below must be ordered after this read.
  const std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
  struct Scan {
    std::uint32_t slot;
    std::uint64_t epoch;
    bool blocked;
  } scan{slot_, e, false};
  // The raw walk: a std::function over this lambda's captures would
  // allocate on every advance attempt.
  ThreadRegistry::for_each_raw(
      [](ThreadRec& rec, void* ctx) {
        auto& sc = *static_cast<Scan*>(ctx);
        // mo: seq_cst scan — sees every announcement that the epoch
        // read above did not already supersede (enter()'s recheck).
        const std::uint64_t a =
            rec.epochs[sc.slot].value.load(std::memory_order_seq_cst);
        // A thread announcing e is current; announcing an older epoch
        // means it may still hold references unlinked two epochs back.
        if (a != 0 && a != sc.epoch) sc.blocked = true;
      },
      &scan);
  if (scan.blocked) {
    advance_blocked_.fetch_add(1, std::memory_order_relaxed);  // mo: stats
    return false;
  }
  std::uint64_t expected = e;
  // mo: seq_cst advance — totally ordered with announcements so no
  // reader can pin e-1 after the move is visible.
  if (epoch_.compare_exchange_strong(expected, e + 1,
                                     std::memory_order_seq_cst)) {
    advances_.fetch_add(1, std::memory_order_relaxed);  // mo: stats
    HEMLOCK_TM_EPOCH_ADVANCE(e + 1);
    return true;
  }
  return false;  // lost the race to a concurrent advancer
}

std::size_t EpochDomain::drain(std::size_t max_frees) {
  try_advance();
  RetireNode* to_free = nullptr;
  std::size_t taken = 0;
  {
    RawSpinGuard g(limbo_lock_);
    RetireNode** pp = &limbo_head_;
    while (*pp != nullptr && taken < max_frees) {
      RetireNode* n = *pp;
      if (expired(n->epoch)) {  // every possible observer has exited
        *pp = n->next;
        n->next = to_free;
        to_free = n;
        ++taken;
      } else {
        pp = &n->next;
      }
    }
    pending_ -= taken;
  }
  while (to_free != nullptr) {  // reclaim hooks run outside the limbo lock
    RetireNode* n = to_free;
    to_free = n->next;  // before the hook: it may free or reuse n
    n->reclaim(n);
  }
  if (taken != 0) {
    freed_.fetch_add(taken, std::memory_order_relaxed);  // mo: stats
  }
  return taken;
}

DomainStats EpochDomain::stats() const {
  DomainStats s;
  // mo: acquire — snapshot is ordered after the latest advance.
  s.epoch = epoch_.load(std::memory_order_acquire);
  {
    RawSpinGuard g(limbo_lock_);
    s.pending = pending_;
  }
  // mo: relaxed — monotonic stats counters; no ordering implied.
  s.freed = freed_.load(std::memory_order_relaxed);
  s.advances = advances_.load(std::memory_order_relaxed);
  s.advance_blocked = advance_blocked_.load(std::memory_order_relaxed);
  return s;
}

EpochDomain& EpochDomain::global() {
  static EpochDomain domain;
  return domain;
}

}  // namespace hemlock::reclaim
