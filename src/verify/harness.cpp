// harness.cpp — engine implementation. See harness.hpp for the model.
#include "verify/harness.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "runtime/thread_rec.hpp"

namespace hemlock::verify {

namespace {

/// The one live engine; fail() and current_trace() reach the
/// schedule context through it.
Engine* g_engine = nullptr;

void yield_trampoline(void* engine, std::uint32_t id, const char* tag) {
  static_cast<Engine*>(engine)->on_yield(id, tag);
}

const char* mode_name(Options::Mode m) {
  return m == Options::Mode::kExhaustive ? "exhaustive" : "random";
}

}  // namespace

Engine::Engine(const Scenario& sc, const Options& opt) : sc_(sc), opt_(opt) {
  if (sc_.threads == 0 || sc_.threads > kMaxScenarioThreads) {
    std::fprintf(stderr,
                 "verify: scenario %s declares %u threads; the harness "
                 "supports 1..%u (kMaxScenarioThreads)\n",
                 sc_.name, sc_.threads, kMaxScenarioThreads);
    std::fflush(nullptr);
    std::_Exit(1);
  }
  finished_.assign(sc_.threads, false);
}

Engine::~Engine() {
  if (!workers_.empty()) stop_workers();
  if (g_engine == this) g_engine = nullptr;
}

void Engine::start_workers() {
  for (std::uint32_t t = 0; t < sc_.threads; ++t) {
    go_.push_back(std::make_unique<std::binary_semaphore>(0));
  }
  for (std::uint32_t t = 0; t < sc_.threads; ++t) {
    workers_.emplace_back(&Engine::worker_main, this, t);
  }
  // Registration handshake: admit the workers one at a time, in
  // logical-id order, so runtime/thread_rec.cpp assigns registry ids
  // (which e.g. the rwlock's sharded ingress indexes by) identically
  // in every process run — replay vectors stay valid across runs.
  for (std::uint32_t t = 0; t < sc_.threads; ++t) {
    go_[t]->release();
    sched_.acquire();
  }
}

void Engine::stop_workers() {
  stop_ = true;
  for (auto& g : go_) g->release();
  for (auto& w : workers_) w.join();
  workers_.clear();
  go_.clear();
}

void Engine::worker_main(std::uint32_t id) {
  ThreadHook hook{&yield_trampoline, this, id};
  go_[id]->acquire();
  (void)self();  // register the ThreadRec while holding the token
  set_thread_hook(&hook);
  sched_.release();
  for (;;) {
    go_[id]->acquire();
    if (stop_) break;
    sc_.exec(id);
    finished_[id] = true;
    sched_.release();
  }
  set_thread_hook(nullptr);
}

void Engine::on_yield(std::uint32_t id, const char* tag) {
  trace_.push_back(Step{id, tag});
  ++total_steps_;
  if (trace_.size() > opt_.max_steps) {
    fail_now("schedule step cap exceeded (deadlock or livelock)",
             __FILE__, __LINE__, /*honor_expect_fail=*/false);
  }
  sched_.release();
  go_[id]->acquire();
}

void Engine::run_one_schedule() {
  sc_.init();
  trace_.clear();
  std::fill(finished_.begin(), finished_.end(), false);
  decisions_ = 0;
  tail_used_ = false;
  last_run_ = sc_.threads - 1;  // the tail's first pick is thread 0
  const std::uint64_t steps_before = total_steps_;

  for (;;) {
    std::uint32_t runnable[kMaxScenarioThreads];
    std::uint32_t n = 0;
    for (std::uint32_t t = 0; t < sc_.threads; ++t) {
      if (!finished_[t]) runnable[n++] = t;
    }
    if (n == 0) break;

    std::uint32_t id;
    if (n == 1) {
      id = runnable[0];  // forced move — consumes no depth
    } else if (decisions_ < prefix_.size()) {
      // Replaying a digit chosen by an earlier run (or a --replay
      // vector); refresh its branch count for the odometer. The
      // modulo tolerates hand-edited replay vectors.
      if (decisions_ < branch_.size()) {
        branch_[decisions_] = n;
      } else {
        branch_.push_back(n);
      }
      id = runnable[prefix_[decisions_] % n];
      ++decisions_;
    } else if (prefix_.size() < opt_.depth) {
      const std::uint32_t choice =
          opt_.mode == Options::Mode::kRandom ? rng_.below(n) : 0;
      prefix_.push_back(choice);
      branch_.push_back(n);
      id = runnable[choice];
      ++decisions_;
    } else {
      // Past the enumerated prefix: deterministic fair round-robin,
      // so every correct scenario terminates and replays exactly.
      tail_used_ = true;
      id = runnable[0];
      for (std::uint32_t off = 1; off <= sc_.threads; ++off) {
        const std::uint32_t t = (last_run_ + off) % sc_.threads;
        if (!finished_[t]) {
          id = t;
          break;
        }
      }
    }

    last_run_ = id;
    go_[id]->release();
    sched_.acquire();
  }

  sc_.fini();
  ++schedules_run_;
  const std::uint64_t steps = total_steps_ - steps_before;
  if (steps > max_sched_steps_) max_sched_steps_ = steps;
}

bool Engine::advance_prefix() {
  while (!prefix_.empty() &&
         prefix_.back() + 1 >= branch_[prefix_.size() - 1]) {
    prefix_.pop_back();
    branch_.pop_back();
  }
  if (prefix_.empty()) return false;
  ++prefix_.back();
  return true;
}

std::uint64_t Engine::trace_hash() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  for (const Step& s : trace_) {
    mix(static_cast<unsigned char>(s.thread));
    for (const char* p = s.tag; *p != '\0'; ++p) {
      mix(static_cast<unsigned char>(*p));
    }
    mix(0xFFU);
  }
  return h;
}

int Engine::run() {
  g_engine = this;
  detail::g_mutant = sc_.mutant;  // before the workers start
  start_workers();
  int rc = 0;

  if (!opt_.replay.empty()) {
    prefix_ = opt_.replay;
    branch_.assign(prefix_.size(), 2);  // refreshed as digits are consumed
    run_one_schedule();
    std::printf("replay: scenario %s, %zu-digit schedule ran clean (%" PRIu64
                " steps)\n",
                sc_.name, opt_.replay.size(), total_steps_);
  } else if (opt_.mode == Options::Mode::kExhaustive) {
    prefix_.clear();
    branch_.clear();
    for (;;) {
      run_one_schedule();
      if (!advance_prefix()) break;
    }
    if (sc_.post_all != nullptr) sc_.post_all();
  } else {
    const int passes = opt_.check_determinism ? 2 : 1;
    std::uint64_t pass_hash[2] = {0, 0};
    std::uint64_t schedules_first_pass = 0;
    for (int p = 0; p < passes; ++p) {
      SplitMix64 seeder(opt_.seed);
      std::uint64_t h = 0x2545F4914F6CDD1DULL;
      for (std::uint64_t s = 0; s < opt_.schedules; ++s) {
        random_seq_ = s;
        rng_ = Xoshiro256(seeder.next());
        prefix_.clear();
        branch_.clear();
        run_one_schedule();
        h = (h * 1099511628211ULL) ^ trace_hash();
      }
      pass_hash[p] = h;
      if (p == 0) schedules_first_pass = schedules_run_;
    }
    (void)schedules_first_pass;
    if (opt_.check_determinism) {
      if (pass_hash[0] != pass_hash[1]) {
        std::fprintf(stderr,
                     "DETERMINISM FAILURE: seed %" PRIu64 " depth %u: pass "
                     "hashes %016" PRIx64 " vs %016" PRIx64 "\n",
                     opt_.seed, opt_.depth, pass_hash[0], pass_hash[1]);
        rc = 1;
      } else {
        std::printf("determinism: 2 passes of %" PRIu64
                    " schedules hashed %016" PRIx64 " — identical\n",
                    opt_.schedules, pass_hash[0]);
      }
    }
    if (sc_.post_all != nullptr) sc_.post_all();
  }

  stop_workers();
  detail::g_mutant = nullptr;

  if (sc_.expect_fail) {
    // The broken scenario's whole point is to trip VERIFY_ASSERT
    // (which exits 0 for expect_fail scenarios before reaching here).
    std::fprintf(stderr,
                 "verify: scenario %s expected a VERIFY_ASSERT violation "
                 "but the full enumeration ran clean\n",
                 sc_.name);
    rc = 1;
  }

  std::printf("verify: %s [%s depth=%u]: %" PRIu64 " schedules, %" PRIu64
              " steps total, longest schedule %" PRIu64 " steps%s\n",
              sc_.name, mode_name(opt_.mode), opt_.depth, schedules_run_,
              total_steps_, max_sched_steps_, rc == 0 ? " — PASS" : "");
  g_engine = nullptr;
  return rc;
}

void Engine::fail_now(const char* expr, const char* file, int line,
                      bool honor_expect_fail) {
  std::fprintf(stderr, "\nVERIFY FAILURE: %s\n  at %s:%d\n", expr, file, line);
  std::fprintf(stderr,
               "  scenario: %s  mode: %s  schedule #%" PRIu64 "  depth: %u\n",
               sc_.name, mode_name(opt_.mode), schedules_run_, opt_.depth);
  std::string replay;
  for (std::uint32_t i = 0; i < decisions_ && i < prefix_.size(); ++i) {
    if (!replay.empty()) replay += ',';
    replay += std::to_string(prefix_[i]);
  }
  std::fprintf(stderr,
               "  reproduce: verify_runner --algo=%s --depth=%u --replay=%s\n",
               sc_.name, opt_.depth, replay.empty() ? "0" : replay.c_str());
  if (tail_used_) {
    std::fprintf(stderr,
                 "  (schedule ran past the enumerated prefix; the replay is "
                 "still exact — the tail is deterministic round-robin)\n");
  }
  const std::size_t kTail = 60;
  const std::size_t from = trace_.size() > kTail ? trace_.size() - kTail : 0;
  std::fprintf(stderr, "  trace (last %zu of %zu steps):\n",
               trace_.size() - from, trace_.size());
  for (std::size_t i = from; i < trace_.size(); ++i) {
    std::fprintf(stderr, "    [t%u] %s\n", trace_[i].thread, trace_[i].tag);
  }
  const bool expected = honor_expect_fail && sc_.expect_fail;
  if (expected) {
    std::fprintf(stderr,
                 "  expected failure for scenario %s — caught as intended\n",
                 sc_.name);
  }
  std::fflush(nullptr);
  // Lock methods are noexcept: no unwinding out of a failed invariant.
  // _Exit also skips the Holder destructors in thread_rec.cpp, which
  // would otherwise spin on Grant words the dead schedule never
  // drained.
  std::_Exit(expected ? 0 : 1);
}

void fail(const char* expr, const char* file, int line) {
  if (g_engine != nullptr) {
    g_engine->fail_now(expr, file, line, /*honor_expect_fail=*/true);
  }
  std::fprintf(stderr, "VERIFY FAILURE (no engine): %s at %s:%d\n", expr,
               file, line);
  std::fflush(nullptr);
  std::_Exit(1);
}

const std::vector<Step>& current_trace() {
  static const std::vector<Step> empty;
  return g_engine != nullptr ? g_engine->trace_ : empty;
}

}  // namespace hemlock::verify
