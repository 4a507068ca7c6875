// verify_codegen_probe.cpp — TU compiled to assembly (never linked)
// by tools/check_verify_off.py to prove the HEMLOCK_VERIFY_YIELD
// markers are zero-cost when disabled.
//
// It instantiates the hottest instrumented paths of every family.
// Without -DHEMLOCK_VERIFY, the generated assembly must contain no
// verifier residue (no yield tag strings, no tl_hook access); with
// it, the residue must appear — which proves the probe actually
// exercises instrumented code and the OFF check is not vacuous.
#include "core/hemlock.hpp"
#include "core/hemlock_chain.hpp"
#include "locks/anderson.hpp"
#include "locks/clh.hpp"
#include "locks/mcs.hpp"
#include "locks/rwlock.hpp"
#include "locks/ticket.hpp"
#include "minikv/sharded_db.hpp"

namespace probe {

// MiniKV's read promotion and memtable hit: their yield points and
// their planted-mutant switches (HEMLOCK_VERIFY_MUTANT) must all
// compile out.
bool sharded_get(hemlock::minikv::ShardedDB<hemlock::Hemlock>& db,
                 std::string* value) {
  return db.get("k", value).is_ok();
}

// A put's memtable add, whose dead-entry reuse plants a mutant.
bool sharded_put(hemlock::minikv::ShardedDB<hemlock::Hemlock>& db) {
  return db.put("k", "v").is_ok();
}

// A block-cache read: its hit's yield point, and the insert whose
// dead-entry reuse plants a mutant.
std::size_t cached_block_read(
    hemlock::minikv::ShardedLruCache<hemlock::minikv::Block>& cache,
    const hemlock::minikv::ImmutableTable& table) {
  return hemlock::minikv::read_block_cached(cache, table, 0)->size();
}

void hemlock_cycle(hemlock::Hemlock& l) {
  l.lock();
  l.unlock();
}

void hemlock_naive_cycle(hemlock::HemlockNaive& l) {
  l.lock();
  l.unlock();
}

void hemlock_adaptive_cycle(hemlock::HemlockAdaptive& l) {
  l.lock();
  l.unlock();
}

void hemlock_overlap_cycle(hemlock::HemlockOverlap& l) {
  l.lock();
  l.unlock();
}

void hemlock_ah_cycle(hemlock::HemlockAh& l) {
  l.lock();
  l.unlock();
}

void hemlock_ohv1_cycle(hemlock::HemlockOhv1& l) {
  l.lock();
  l.unlock();
}

void hemlock_ohv2_cycle(hemlock::HemlockOhv2& l) {
  l.lock();
  l.unlock();
}

void hemlock_chain_cycle(hemlock::HemlockChain& l) {
  l.lock();
  l.unlock();
}

void mcs_cycle(hemlock::McsLock& l) {
  l.lock();
  l.unlock();
}

void mcs_park_cycle(hemlock::McsParkLock& l) {
  l.lock();
  l.unlock();
}

void clh_cycle(hemlock::ClhLock& l) {
  l.lock();
  l.unlock();
}

void ticket_cycle(hemlock::TicketLock& l) {
  l.lock();
  l.unlock();
}

void ticket_park_cycle(hemlock::TicketParkLock& l) {
  l.lock();
  l.unlock();
}

void anderson_cycle(hemlock::AndersonLockT<4>& l) {
  l.lock();
  l.unlock();
}

void rwlock_cycle(hemlock::RwLock& l) {
  l.lock();
  l.unlock();
  l.lock_shared();
  l.unlock_shared();
}

}  // namespace probe
