// preload_demo — a deliberately plain pthreads program.
//
// It knows nothing about this library: it creates pthread mutexes
// (one dynamic, one PTHREAD_MUTEX_INITIALIZER static), hammers them
// from several threads, and prints the counters. Run it bare and it
// uses glibc's mutex; run it under the interposition library and the
// same binary runs on any HEMLOCK_LOCK algorithm (the paper's §5
// evaluation mechanism):
//
//   LD_PRELOAD=$BUILD/src/interpose/libhemlock_preload.so  # plus
//   HEMLOCK_LOCK=hemlock ./preload_demo
//
// Exit code 0 iff the counters are exact and the timed acquires below
// succeed — which makes this binary double as the interposition
// integration test.
#include <pthread.h>
#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace {

/// Positive long from the environment, or `def` when unset/invalid.
long env_long(const char* key, long def) {
  const char* env = std::getenv(key);
  const long parsed = env != nullptr ? std::atol(env) : 0;
  return parsed > 0 ? parsed : def;
}

/// Contending threads; HEMLOCK_DEMO_THREADS overrides (the CI
/// oversubscription smoke runs at a multiple of the host's cores to
/// prove the shim's adaptive waiting tier keeps queue locks from
/// convoying when threads outnumber CPUs).
int threads() {
  static const int n = static_cast<int>(env_long("HEMLOCK_DEMO_THREADS", 8));
  return n;
}

/// Iterations per thread; HEMLOCK_DEMO_ITERS overrides (the
/// interposition integration test dials this down so that sweeping
/// every algorithm stays fast on small hosts — queue locks hand over
/// at scheduler speed when cores are scarce).
long iters() {
  static const long n = env_long("HEMLOCK_DEMO_ITERS", 20000);
  return n;
}

pthread_mutex_t g_static_mu = PTHREAD_MUTEX_INITIALIZER;  // lazy adoption
pthread_mutex_t g_dynamic_mu;                             // pthread_mutex_init
long g_static_counter = 0;
long g_dynamic_counter = 0;
long g_trylock_wins = 0;

void* worker(void*) {
  for (long i = 0, n = iters(); i < n; ++i) {
    pthread_mutex_lock(&g_static_mu);
    ++g_static_counter;
    pthread_mutex_unlock(&g_static_mu);

    pthread_mutex_lock(&g_dynamic_mu);
    ++g_dynamic_counter;
    pthread_mutex_unlock(&g_dynamic_mu);

    if (pthread_mutex_trylock(&g_static_mu) == 0) {
      ++g_trylock_wins;  // protected: we hold the lock
      ++g_static_counter;
      pthread_mutex_unlock(&g_static_mu);
    }
  }
  return nullptr;
}

/// Before any worker runs, both timed acquire paths must take a free
/// lock: pthread_mutex_timedlock on the static mutex, and a
/// std::timed_mutex through try_lock_for (which libstdc++ builds on
/// pthread_mutex_clocklock or timedlock).
bool timed_acquires_work() {
  struct timespec deadline;
  clock_gettime(CLOCK_REALTIME, &deadline);
  deadline.tv_sec += 1;
  const int rc = pthread_mutex_timedlock(&g_static_mu, &deadline);
  if (rc == 0) pthread_mutex_unlock(&g_static_mu);
  std::timed_mutex tm;
  const bool timed = tm.try_lock_for(std::chrono::seconds(1));
  if (timed) tm.unlock();
  std::printf("timed acquires : pthread_mutex_timedlock=%d try_lock_for=%s\n",
              rc, timed ? "ok" : "failed");
  return rc == 0 && timed;
}

}  // namespace

int main() {
  pthread_mutex_init(&g_dynamic_mu, nullptr);
  const bool timed_ok = timed_acquires_work();

  std::vector<pthread_t> workers(threads());
  for (auto& t : workers) pthread_create(&t, nullptr, worker, nullptr);
  for (auto& t : workers) pthread_join(t, nullptr);

  const long expected_static =
      static_cast<long>(threads()) * iters() + g_trylock_wins;
  const long expected_dynamic = static_cast<long>(threads()) * iters();
  std::printf("static counter : %ld (expected %ld)\n", g_static_counter,
              expected_static);
  std::printf("dynamic counter: %ld (expected %ld)\n", g_dynamic_counter,
              expected_dynamic);
  std::printf("trylock wins   : %ld\n", g_trylock_wins);

  pthread_mutex_destroy(&g_dynamic_mu);
  const bool ok = timed_ok && g_static_counter == expected_static &&
                  g_dynamic_counter == expected_dynamic;
  std::puts(ok ? "OK" : "FAILED");
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
