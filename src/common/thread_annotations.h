// Clang Thread Safety Analysis annotations plus the project's annotated
// locking primitives. All mutex-guarded classes in src/ use Mutex /
// MutexLock / CondVar / SharedMutex from this header instead of the raw
// <mutex> types so that the `clang-thread-safety` preset (-Wthread-safety
// -Werror) can prove the locking discipline at compile time: every
// GUARDED_BY member access outside its mutex, every REQUIRES violation, and
// every unbalanced Lock/Unlock becomes a build error under clang. Under GCC
// the macros expand to nothing and the wrappers compile down to the std
// types.
//
// Conventions (see DESIGN.md §"Static analysis & locking discipline"):
//   - members protected by mu_ are declared GUARDED_BY(mu_);
//   - private helpers called with the lock held are named *Locked() and
//     annotated REQUIRES(mu_);
//   - public entry points that take the lock are annotated EXCLUDES(mu_);
//   - the unlock-deliver-relock pattern (callbacks fired outside the lock
//     from a locked region) uses explicit mu_.Unlock()/mu_.Lock() inside a
//     REQUIRES(mu_) function — the analysis checks the balance.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define SEBDB_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define SEBDB_THREAD_ANNOTATION__(x)  // no-op outside clang
#endif

#define CAPABILITY(x) SEBDB_THREAD_ANNOTATION__(capability(x))
#define SCOPED_CAPABILITY SEBDB_THREAD_ANNOTATION__(scoped_lockable)
#define GUARDED_BY(x) SEBDB_THREAD_ANNOTATION__(guarded_by(x))
#define PT_GUARDED_BY(x) SEBDB_THREAD_ANNOTATION__(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) \
  SEBDB_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  SEBDB_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
#define REQUIRES(...) \
  SEBDB_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  SEBDB_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) SEBDB_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  SEBDB_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) SEBDB_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  SEBDB_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  SEBDB_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) SEBDB_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) SEBDB_THREAD_ANNOTATION__(assert_capability(x))
#define RETURN_CAPABILITY(x) SEBDB_THREAD_ANNOTATION__(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  SEBDB_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace sebdb {

/// Annotated mutex. Identical to std::mutex at runtime; under clang the
/// capability annotations let -Wthread-safety track what it protects.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII guard — the only sanctioned way to take a Mutex for a full scope
/// (scripts/lint.sh rejects raw std::lock_guard / .lock() in src/).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() RELEASE() { mu_->Unlock(); }

 private:
  Mutex* const mu_;
};

/// Annotated reader/writer lock, writer-preferring: once a writer waits,
/// new readers queue behind it, so a steady stream of readers cannot starve
/// it. Not reentrant in either mode — a thread must never take it while it
/// already holds it (a shared re-acquire deadlocks behind a waiting writer).
class CAPABILITY("mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
    std::unique_lock<std::mutex> lock(mu_);
    writers_waiting_++;
    cv_.wait(lock, [this] { return !writer_ && readers_ == 0; });
    writers_waiting_--;
    writer_ = true;
  }
  void Unlock() RELEASE() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      writer_ = false;
    }
    cv_.notify_all();
  }
  void LockShared() ACQUIRE_SHARED() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !writer_ && writers_waiting_ == 0; });
    readers_++;
  }
  void UnlockShared() RELEASE_SHARED() {
    bool last;
    {
      std::lock_guard<std::mutex> lock(mu_);
      last = --readers_ == 0;
    }
    if (last) cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_ = false;
};

/// RAII exclusive hold of a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }

 private:
  SharedMutex* const mu_;
};

/// RAII shared hold of a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;
  ~ReaderMutexLock() RELEASE() { mu_->UnlockShared(); }

 private:
  SharedMutex* const mu_;
};

/// Condition variable paired with Mutex. Every wait requires the mutex held
/// on entry and holds it again on return (release + reacquire happen inside,
/// invisible to the analysis — the REQUIRES contract is what clang checks).
/// Predicate loops are written explicitly at the call site:
///   MutexLock lock(&mu_);
///   while (!ready_) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Returns false on timeout (like std::cv_status::timeout).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& dur)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    bool signalled = cv_.wait_for(lock, dur) == std::cv_status::no_timeout;
    lock.release();
    return signalled;
  }

  /// Returns false on timeout (deadline is a steady_clock time point).
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    bool signalled = cv_.wait_until(lock, deadline) == std::cv_status::no_timeout;
    lock.release();
    return signalled;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace sebdb
