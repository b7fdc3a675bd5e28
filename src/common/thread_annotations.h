#ifndef RFID_COMMON_THREAD_ANNOTATIONS_H_
#define RFID_COMMON_THREAD_ANNOTATIONS_H_

// Clang thread-safety-analysis annotations plus the annotated
// synchronization primitives the repo uses instead of raw std::mutex.
//
// The macros expand to Clang `thread_safety` attributes when compiling
// with Clang and to nothing otherwise, so GCC builds see plain code.
// Under Clang the build enables `-Wthread-safety -Werror=thread-safety`
// (see CMakeLists.txt), which statically proves that every access to a
// GUARDED_BY member happens with its mutex held.
//
// Conventions (see docs/ARCHITECTURE.md, "Static analysis"):
//  * Mutex-guarded state uses rfid::Mutex + GUARDED_BY. std::mutex and
//    std::lock_guard carry no annotations in libstdc++, so the wrappers
//    here are required for the analysis to see lock scopes.
//  * Serial-by-contract state (Network, Site, DistributedSystem's
//    boundary-phase bookkeeping) uses rfid::SerialPhase + GUARDED_BY.
//    SerialPhase is a zero-cost capability: no lock exists at runtime;
//    the BSP driver asserts the capability at serial-phase entry and
//    worker read paths assert shared access. Debug builds additionally
//    bind the capability to the first asserting thread and abort on a
//    cross-thread exclusive assert.
//  * Per-index partitioned state (e.g. DistributedSystem::cursors_,
//    written element-wise by workers with disjoint indices) cannot be
//    expressed by GUARDED_BY; such members carry a
//    "partitioned by site index" comment instead of an annotation.

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#if defined(__clang__)
#define RFID_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define RFID_THREAD_ANNOTATION(x)
#endif

#define CAPABILITY(x) RFID_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY RFID_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) RFID_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) RFID_THREAD_ANNOTATION(pt_guarded_by(x))
#define REQUIRES(...) \
  RFID_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  RFID_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) RFID_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  RFID_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) RFID_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  RFID_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  RFID_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) RFID_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) RFID_THREAD_ANNOTATION(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  RFID_THREAD_ANNOTATION(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) RFID_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  RFID_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace rfid {

// Annotated wrapper over std::mutex. Lock/Unlock for annotated code;
// lowercase lock/unlock keep the BasicLockable interface so the mutex
// still composes with std::condition_variable_any (see CondVar).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // BasicLockable; intentionally unannotated so CondVar::Wait can
  // release/reacquire inside a REQUIRES(mu) scope.
  void lock() NO_THREAD_SAFETY_ANALYSIS { mu_.lock(); }
  void unlock() NO_THREAD_SAFETY_ANALYSIS { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// RAII lock with a scoped capability, replacing std::lock_guard /
// std::unique_lock over annotated mutexes.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

// Condition variable usable with rfid::Mutex. Wait requires the mutex
// capability: the analysis treats the wait as happening with the lock
// held, matching the std::condition_variable_any contract.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) REQUIRES(mu) { cv_.wait(*mu); }

  template <typename Pred>
  void Wait(Mutex* mu, Pred pred) REQUIRES(mu) {
    cv_.wait(*mu, std::move(pred));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

// Zero-cost capability for serial-by-contract state in the BSP replay.
//
// The replay alternates serial boundary phases (one thread mutates
// Network/Site/DistributedSystem state) with parallel window phases
// (workers only read a vetted subset: Network::IsSiteDown, the ONS
// directory and belief maps behind BelievedContainer). No lock exists;
// instead mutating entry points call AssertHeld() and worker read
// paths call AssertShared(), which (a) inform the static analysis and
// (b) in debug builds bind the exclusive capability to one thread and
// abort if another thread ever asserts it.
class CAPABILITY("serial_phase") SerialPhase {
 public:
  SerialPhase() = default;
  SerialPhase(const SerialPhase&) = delete;
  SerialPhase& operator=(const SerialPhase&) = delete;

  // Asserts exclusive access: caller is the single serial-phase thread.
  void AssertHeld() const ASSERT_CAPABILITY(this) {
#if !defined(NDEBUG)
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id bound = bound_.load(std::memory_order_acquire);
    if (bound == std::thread::id()) {
      // Bind on first use. If we lose the race, fall through to check.
      if (bound_.compare_exchange_strong(bound, self,
                                         std::memory_order_acq_rel)) {
        return;
      }
    }
    if (bound != self) std::abort();
#endif
  }

  // Asserts shared (read-only) access from a worker during a parallel
  // phase. Any thread may read; no dynamic check is possible without
  // a phase registry, so this only informs the static analysis.
  void AssertShared() const ASSERT_SHARED_CAPABILITY(this) {}

  // The executor reuses the driving thread across runs, but tests may
  // drive one system from several threads sequentially; they can
  // rebind explicitly between runs.
  void ResetOwnerForTesting() {
#if !defined(NDEBUG)
    bound_.store(std::thread::id(), std::memory_order_release);
#endif
  }

 private:
#if !defined(NDEBUG)
  mutable std::atomic<std::thread::id> bound_{};
#endif
};

}  // namespace rfid

#endif  // RFID_COMMON_THREAD_ANNOTATIONS_H_
