#include "common/executor.h"

#include <algorithm>

namespace rfid {

namespace {

/// What the current thread is running: bodies of `pool` as `thread`, inside
/// a body of a job of `depth` (-1: inside none).
struct Context {
  const SiteExecutor* pool = nullptr;
  int thread = 0;
  int depth = -1;
};

thread_local Context current;

/// Installs a context for the scope of one body and restores the previous
/// one (a thread helping another job returns to its own afterwards).
class ScopedContext {
 public:
  explicit ScopedContext(Context next) : saved_(current) { current = next; }
  ~ScopedContext() { current = saved_; }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context saved_;
};

}  // namespace

int SiteExecutor::ResolveThreads(int requested) {
  if (requested >= 0) return requested < 1 ? 1 : requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

SiteExecutor::SiteExecutor(int num_threads)
    : num_threads_(ResolveThreads(num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

SiteExecutor::~SiteExecutor() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void SiteExecutor::Run(size_t n, const Task& fn) {
  if (n == 0) return;
  // The owning thread runs bodies as thread 0; a nested call keeps the
  // index of the thread it is on.
  const bool nested = current.pool == this;
  const int thread = nested ? current.thread : 0;
  const int depth = nested ? current.depth + 1 : 0;
  if (workers_.empty() || n == 1) {
    ScopedContext scope(Context{this, thread, depth});
    for (size_t i = 0; i < n; ++i) fn(i, thread);
    return;
  }
  Job job;
  job.fn = &fn;
  job.n = n;
  job.depth = depth;
  mu_.Lock();
  jobs_.push_back(&job);
  cv_.NotifyAll();
  while (job.next < job.n) RunOne(&job, thread);
  // The last indices run elsewhere. Meanwhile help nested jobs (they are
  // short), never an outermost one (a whole site window would hold this
  // job's caller up long after its own job completed).
  while (job.done != job.n) {
    Job* other = PickJob(/*min_depth=*/1);
    if (other != nullptr) {
      RunOne(other, thread);
    } else {
      cv_.Wait(&mu_);
    }
  }
  mu_.Unlock();
}

SiteExecutor::Job* SiteExecutor::PickJob(int min_depth) {
  Job* best = nullptr;
  for (auto it = jobs_.rbegin(); it != jobs_.rend(); ++it) {
    if ((*it)->depth >= min_depth &&
        (best == nullptr || (*it)->depth > best->depth)) {
      best = *it;
    }
  }
  return best;
}

void SiteExecutor::RunOne(Job* job, int thread) {
  const size_t i = job->next++;
  if (job->next == job->n) {
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), job));
  }
  mu_.Unlock();
  {
    // fn and depth are fixed before the job is published.
    ScopedContext scope(Context{this, thread, job->depth});
    (*job->fn)(i, thread);
  }
  mu_.Lock();
  if (++job->done == job->n) cv_.NotifyAll();
}

void SiteExecutor::WorkerLoop(int thread) {
  current = Context{this, thread, -1};
  mu_.Lock();
  while (!stop_) {
    Job* job = PickJob(/*min_depth=*/0);
    if (job != nullptr) {
      RunOne(job, thread);
    } else {
      cv_.Wait(&mu_);
    }
  }
  mu_.Unlock();
}

}  // namespace rfid
