// pipeline — a lock-protected multi-stage pipeline showing coupled
// ("hand-over-hand") locking, the usage pattern the paper notes does
// NOT cause multi-waiting (§2.2: "common usage patterns such as
// hand-over-hand 'coupled' locking do not result in multi-waiting").
//
// Work items flow through a chain of stages; each stage has its own
// Hemlock-guarded slot. A worker holds at most two stage locks at a
// time (the one it reads from and the one it writes to), so every
// thread's Grant word has at most one waiter — purely local spinning,
// verified live with the §5.4 profiler.
//
//   build/examples/pipeline [stages] [items]
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <thread>
#include <vector>

#include "api/hemlock_api.hpp"
#include "stats/telemetry.hpp"

namespace {

struct Stage {
  hemlock::Hemlock mu;
  std::optional<std::uint64_t> slot;  // protected by mu
  std::uint64_t processed = 0;        // protected by mu
};

}  // namespace

int main(int argc, char** argv) {
  const int num_stages = argc > 1 ? std::atoi(argv[1]) : 6;
  const std::uint64_t num_items =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 20000;

  std::vector<Stage> stages(num_stages);

  hemlock::telemetry::reset();
  hemlock::LockProfiler::enable(true);

  // One mover thread per adjacent stage pair: takes an item from
  // stage i and pushes it to stage i+1, holding both locks briefly
  // (coupled locking).
  std::vector<std::thread> movers;
  for (int s = 0; s + 1 < num_stages; ++s) {
    movers.emplace_back([&, s] {
      Stage& src = stages[s];
      Stage& dst = stages[s + 1];
      std::uint64_t moved = 0;
      while (moved < num_items) {
        src.mu.lock();
        if (!src.slot.has_value()) {
          src.mu.unlock();
          hemlock::cpu_relax();
          continue;
        }
        dst.mu.lock();  // coupled: hold src and dst
        if (dst.slot.has_value()) {
          dst.mu.unlock();
          src.mu.unlock();
          hemlock::cpu_relax();
          continue;
        }
        dst.slot = *src.slot + 1;  // "process": increment per stage
        src.slot.reset();
        ++dst.processed;
        src.mu.unlock();  // arbitrary release order
        dst.mu.unlock();
        ++moved;
      }
    });
  }

  // Producer feeds stage 0; consumer drains the last stage.
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < num_items;) {
      stages[0].mu.lock();
      if (!stages[0].slot.has_value()) {
        stages[0].slot = i;
        ++stages[0].processed;
        ++i;
      }
      stages[0].mu.unlock();
    }
  });
  std::uint64_t checksum = 0;
  std::thread consumer([&] {
    Stage& last = stages[num_stages - 1];
    for (std::uint64_t drained = 0; drained < num_items;) {
      last.mu.lock();
      if (last.slot.has_value()) {
        checksum += *last.slot;
        last.slot.reset();
        ++drained;
      }
      last.mu.unlock();
    }
  });

  producer.join();
  for (auto& m : movers) m.join();
  consumer.join();
  hemlock::LockProfiler::enable(false);

  // Every item passed num_stages-1 increments; sum over i of
  // (i + stages-1) = n(n-1)/2 + n*(stages-1).
  const std::uint64_t expected = num_items * (num_items - 1) / 2 +
                                 num_items * (num_stages - 1);
  const auto profile = hemlock::telemetry::collect().profile;
  std::cout << "stages=" << num_stages << " items=" << num_items
            << " checksum=" << checksum << " (expected " << expected
            << ")\n\n"
            << profile.describe()
            << "\n(coupled locking holds at most 2 locks; the paper "
               "predicts at most 2 waiters per Grant word and, typically, "
               "purely local spinning)\n";
  return checksum == expected ? 0 : 1;
}
