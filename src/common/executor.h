// Bulk-synchronous parallel executor for the distributed replay
// (Section 5.2's deployment, where "each warehouse is provisioned with a
// server" that computes independently between exchanges): a persistent
// worker pool that fans independent work items across threads and joins
// before the caller proceeds.
//
// Two levels of work share the one pool. The outer level is per site:
// sites only interact through Network::Send at transfer and flush epochs,
// so DistributedSystem runs every site's Observe/AdvanceTo window (the
// Section 4.1 streaming inference, both containment levels under Appendix
// A.4 hierarchy) as one work item each, and the read-only per-tag accuracy
// scans behind the Figures 5(e)/5(f) error sampling fan out the same way.
// The inner level is inside one inference run: RFInfer's E-step (per
// container), M-step and evidence scan (per object) are independent loops
// whose chunks a site's task submits with a nested Run, so threads left
// idle by an uneven site split help the site on the critical path. Every
// item writes only its own state and every cross-item effect happens after
// the join, so results are bit-identical for any thread count and any
// schedule. The phase structure is diagrammed in docs/ARCHITECTURE.md.
#ifndef RFID_COMMON_EXECUTOR_H_
#define RFID_COMMON_EXECUTOR_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace rfid {

/// Sentinel for "use std::thread::hardware_concurrency()".
inline constexpr int kAutoThreads = -1;

/// A fixed pool of worker threads executing indexed work items. Run() is
/// called from the thread that owns the pool or, nested, from inside a
/// task already running on it.
class SiteExecutor {
 public:
  /// Maps a requested thread count to an effective one: negative values
  /// resolve to the hardware concurrency (at least 1); 0 and 1 mean serial
  /// in-line execution on the caller.
  static int ResolveThreads(int requested);

  /// Spawns `ResolveThreads(num_threads) - 1` workers; the calling thread
  /// is the remaining executor during Run().
  explicit SiteExecutor(int num_threads);
  ~SiteExecutor();

  SiteExecutor(const SiteExecutor&) = delete;
  SiteExecutor& operator=(const SiteExecutor&) = delete;

  /// Effective thread count (workers + owner); 1 means serial.
  int num_threads() const { return num_threads_; }
  bool serial() const { return workers_.empty(); }

  /// A loop body: fn(i, thread) with `thread` the index in
  /// [0, num_threads()) of the thread running it. Two bodies running at
  /// the same time never share a thread index, so per-thread scratch
  /// indexed by it needs no lock.
  using Task = std::function<void(size_t i, int thread)>;

  /// Invokes fn(i, thread) exactly once for every i in [0, n), potentially
  /// concurrently, and returns when all invocations have completed. `fn`
  /// must confine each index to disjoint state. With no workers (or
  /// n == 1) the calls run in order on the caller.
  ///
  /// Nesting: a body may call Run again. The caller runs its own job's
  /// indices first; while the job's last indices finish elsewhere it helps
  /// with other nested jobs but never claims an index of an outermost job
  /// (one submitted from outside the pool), so a nested job is never held
  /// up behind a whole site's window. An idle worker takes the innermost
  /// job that still has unclaimed indices.
  void Run(size_t n, const Task& fn);

 private:
  /// One Run call; lives on its caller's stack until every index is done.
  struct Job {
    const Task* fn = nullptr;
    size_t n = 0;
    size_t next = 0;  ///< next unclaimed index
    size_t done = 0;
    int depth = 0;    ///< 0 = outermost
  };

  void WorkerLoop(int thread);
  /// The innermost open job of depth >= min_depth with an unclaimed index
  /// (the newest on ties), or nullptr.
  Job* PickJob(int min_depth) REQUIRES(mu_);
  /// Claims job->next, runs it outside the lock as `thread`, and counts it
  /// done, waking waiters when the job completes.
  void RunOne(Job* job, int thread) REQUIRES(mu_);

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  // Claims and completion counts are guarded by mu_; bodies run outside
  // it. Jobs are chunks of a loop or whole site windows, so dispatch
  // contention stays small against the work itself.
  Mutex mu_;
  CondVar cv_;  ///< a job was opened or completed, or the pool stops
  /// Open jobs with unclaimed indices, in submission order.
  std::vector<Job*> jobs_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
};

/// Calls body(begin, end, thread) over contiguous chunks covering [0, n)
/// exactly once: a few chunks per thread on `pool`, or the single chunk
/// [0, n) on thread 0 when `pool` is null or serial. `thread` is as in
/// SiteExecutor::Task, so per-thread scratch or partials need no lock.
template <typename Body>
void ForChunks(SiteExecutor* pool, size_t n, const Body& body) {
  if (pool == nullptr || pool->serial()) {
    body(size_t{0}, n, 0);
    return;
  }
  // A few chunks per thread: dynamic claiming evens out skewed items (one
  // crowded container can outweigh a dozen quiet ones).
  constexpr size_t kChunksPerThread = 4;
  const size_t chunks = std::min(
      n, kChunksPerThread * static_cast<size_t>(pool->num_threads()));
  pool->Run(chunks, [&](size_t k, int thread) {
    body(k * n / chunks, (k + 1) * n / chunks, thread);
  });
}

}  // namespace rfid

#endif  // RFID_COMMON_EXECUTOR_H_
